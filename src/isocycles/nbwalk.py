"""Graph-side cycle counting through the non-backtracking edge operator.

The operator B acts on directed edges: B[e, f] = 1 when f leaves the
target of e and f is not the dual of e.  Every undirected edge of
multiplicity m gives m dual pairs of directed edges; at a vertex with loop
multiplicity c, the loop copies pair up two at a time and, when c is odd,
the last copy is a half-loop: one self-dual directed edge.  A half-loop is
a trace-zero endomorphism phi with phi-hat = -phi, so repeating it is
backtracking.  Every vertex then has out-degree ell + 1 and B has
dimension n(ell + 1).

Traces of B^r come from the n x n adjacency A alone (Ihara-Bass; Bass 1992,
Kotani-Sunada 2000).  Let P x = x o source and Q x = x o target lift
vertex functions to edge functions, and J be the dual involution.  Then
B = Q P^T - J, B P x = ell Q x and B Q y = Q A y - P y, so B preserves
W = P C^n + Q C^n and acts on it through M = [[0, -I], [ell I, A]] on
pairs (x, y), whose powers have trace tr S_r with

    S_0 = 2I,  S_1 = A,  S_r = A S_{r-1} - ell S_{r-2}.

On W-perp (sums over out-edges and in-edges vanish at every vertex)
B = -J.  On a connected non-bipartite component the pair (1, -1) spans the
kernel of (x, y) -> P x + Q y; it is a 1-eigenvector of M and a
(-1)-eigenvector of the swap that lifts J, so tr(B^r | W) = tr S_r - 1,
dim W-perp = n(ell - 1) + 1 and tr(J | W-perp) = h - 1, with h the number
of half-loops (the fixed points of J).  A bipartite component has no
half-loop and a second kernel vector that cancels the same way.  Hence

    tr B^r = tr S_r + n(ell - 1) [r even] - h [r odd].

The S_r are scaled Chebyshev polynomials in A, so
S_a S_b = S_{a+b} + ell^min(a, b) S_|a-b| and, A being symmetric,

    tr S_2k = |S_k|^2 - 2n ell^k,    tr S_2k+1 = <S_k, S_k+1> - ell^k tr A,

so traces up to r_max need the recursion only up to k = ceil(r_max / 2).
Neither B nor A is formed: A is applied as an n x (ell + 1)
neighbour-index array, to blocks of columns in O(n * block) memory here
and to one vector in the spectral estimate.

Exactness comes from residues.  The recursion runs once in int64, whose
wrap-around makes it exact mod 2^64, and then once mod each prime m that
is needed, reducing S_k after every step; n * block * (m - 1)^2 < 2^63
keeps every block sum in int64.  The moduli must multiply past twice a
bound on each |<S_j, S_k>|, and the CRT gives the sums as symmetric
residues.  The bound is n (ell^j + 1)(ell^k + 1).  A is symmetric with
non-negative entries and row sums ell + 1, so its spectrum lies in
[-(ell + 1), ell + 1].  Write lam = a + b with ab = ell, so that
S_k(lam) = a^k + b^k.  For |lam| <= 2 sqrt(ell), a and b are conjugates of
modulus sqrt(ell), and |S_k(lam)| <= 2 ell^(k/2) <= ell^k + 1.  Otherwise
a and b are real of one sign with |a| + |b| = |lam| <= ell + 1, so
{|a|, |b|} lies between {sqrt(ell), sqrt(ell)} and {1, ell}, where
x^k + (ell / x)^k, increasing for x >= sqrt(ell), is at most ell^k + 1.
Hence S_k, a polynomial in A, has spectral norm at most ell^k + 1, and
each diagonal entry of S_j S_k is at most (ell^j + 1)(ell^k + 1) in
absolute value.  A block's partial sum adds at most n of these entries,
and <S_j, S_k> = tr S_j S_k adds all n, so both stay within the bound.  Mobius inversion of the
traces gives the primitive directed cycle counts.  Floating point appears
only in the spectral estimate.
"""

from __future__ import annotations

import math

from .ff import divisors, is_prime, mobius
from .ssgraph import IsogenyGraph

_INT64_MAX = 2**63 - 1
_WRAP = 2**64  # int64 arithmetic wraps, so it is exact mod 2^64
_BLOCK = 128  # columns of S_k held at once
_POWER_ITERATIONS = 200000
_POWER_TOL = 1e-8  # stop when successive norms agree this closely


class NonBacktrackingOperator:
    """The operator B of a graph, held as the graph data its traces read."""

    __slots__ = ("adjacency", "ell")

    def __init__(self, adjacency, ell):
        self.adjacency = adjacency
        self.ell = ell

    @property
    def dimension(self) -> int:
        return len(self.adjacency) * (self.ell + 1)


def require_graph_side(what: str, p: int):
    """Refuse a p the graph side does not cover: off p = 1 mod 12, j = 0 or
    1728 is a vertex and its extra automorphisms make adjacency asymmetric."""
    if p % 12 != 1:
        raise ValueError(f"{what} needs p = 1 mod 12 (extra-automorphism gate); "
                         f"p={p} is {p % 12} mod 12")


def build_nb_operator(graph: IsogenyGraph) -> NonBacktrackingOperator:
    """B on a p = 1 mod 12 graph, whose adjacency `build_graph` certifies
    symmetric and (ell + 1)-regular."""
    require_graph_side(f"build_nb_operator(p={graph.p}, ell={graph.ell})", graph.p)
    return NonBacktrackingOperator(graph.adjacency, graph.ell)


def _neighbour_array(adjacency, ell: int):
    """n x (ell + 1) neighbour indices, each repeated by its multiplicity."""
    import numpy as np  # here, so that commands without the graph side never load it

    return np.array([[v for v in sorted(row) for _ in range(row[v])] for row in adjacency],
                    dtype=np.intp).reshape(len(adjacency), ell + 1)


def _moduli(terms: int, need: int) -> list[int]:
    """2^64, then primes m with terms * (m - 1)^2 < 2^63, largest first,
    until their product exceeds `need`: `terms` products of residues fit."""
    moduli, product = [_WRAP], _WRAP
    m = math.isqrt(_INT64_MAX // terms) + 1
    while product <= need:
        if is_prime(m):
            moduli.append(m)
            product *= m
        m -= 1
    return moduli


def _pairings(nbr, ell: int, r_max: int, modulus: int) -> list[int]:
    """pairing[r] = |S_k|^2 (r = 2k) or <S_k, S_k+1> (r = 2k + 1) mod
    `modulus` for r = 1..r_max; index 0 is unused."""
    import numpy as np

    n = len(nbr)
    columns = np.ascontiguousarray(nbr.T)

    def times_a(s, out, tmp):
        # mode "clip" writes into out directly where "raise" would buffer it;
        # every index is in range
        np.take(s, columns[0], axis=0, out=out, mode="clip")
        for column in columns[1:]:
            np.take(s, column, axis=0, out=tmp, mode="clip")
            out += tmp

    pairing = [0] * (r_max + 1)
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        # four buffers per block: past glibc's mmap threshold a fresh array
        # every step costs a new mapping and its page faults
        prev, cur, nxt, tmp = (np.zeros((n, width), dtype=np.int64) for _ in range(4))
        diagonal = (lo + np.arange(width), np.arange(width))
        nxt[diagonal] = 1
        times_a(nxt, cur, tmp)  # S_1 = A
        prev[diagonal] = 2  # S_0 = 2I
        for r in range(1, r_max + 1):
            if r % 2 == 0:  # (prev, cur) = (S_k-1, S_k) with r = 2k
                pairing[r] += int(np.vdot(cur, cur))
                continue
            if r > 1:  # step to (S_k, S_k+1) with r = 2k + 1
                prev *= ell
                times_a(cur, nxt, tmp)
                nxt -= prev
                if modulus != _WRAP:  # nxt %= modulus, but faster in numpy
                    np.floor_divide(nxt, modulus, out=tmp)
                    tmp *= modulus
                    nxt -= tmp
                prev, cur, nxt = cur, nxt, prev
            pairing[r] += int(np.vdot(prev, cur))
    return pairing


def closed_nbw_counts(op: NonBacktrackingOperator, r_max: int) -> list[int]:
    """Traces of operator powers 1..r_max, exact, by the Ihara-Bass recursion."""
    n, ell = len(op.adjacency), op.ell
    if r_max < 1:
        raise ValueError(f"closed_nbw_counts(n={n}, ell={ell}, r_max={r_max}): "
                         "r_max must be at least 1")
    import numpy as np

    nbr = _neighbour_array(op.adjacency, ell)
    loops_at = (nbr == np.arange(n)[:, None]).sum(axis=1)
    loops = int(loops_at.sum())
    half_loops = int((loops_at % 2).sum())

    # |pairing[r]| <= n (ell^j + 1)(ell^k + 1) with j + k = r (module
    # docstring), and np.vdot sums n * _BLOCK products; the CRT joins one pass
    # per modulus into symmetric residues
    bound = n * (ell ** (r_max // 2) + 1) * (ell ** ((r_max + 1) // 2) + 1)
    pairing, product = [0] * (r_max + 1), 1
    for m in _moduli(n * _BLOCK, 2 * bound):
        inverse = pow(product, -1, m)
        pairing = [x + product * ((y - x) * inverse % m)
                   for x, y in zip(pairing, _pairings(nbr, ell, r_max, m))]
        product *= m
    pairing = [x - product if 2 * x >= product else x for x in pairing]

    traces = []
    for r in range(1, r_max + 1):
        k = r // 2
        if r % 2:
            traces.append(pairing[r] - ell**k * loops - half_loops)
        else:
            traces.append(pairing[r] - 2 * n * ell**k + n * (ell - 1))
    return traces


def directed_cycle_counts(traces: list[int]) -> dict[int, int]:
    """Primitive directed cycle counts for 3 <= r <= len(traces) by Mobius inversion.

    c_r = (1/r) sum over d | r of mu(r/d) t_d; divisibility is asserted,
    a non-exact division signals a graph or operator bug.
    """
    out = {}
    for r in range(3, len(traces) + 1):
        total = sum(mobius(r // d) * traces[d - 1] for d in divisors(r))
        q, rem = divmod(total, r)
        if rem:
            raise ArithmeticError(f"directed_cycle_counts(r_max={len(traces)}): "
                                  f"Mobius inversion not divisible at r={r}: {total}")
        out[r] = q
    return out


def spectral_check(graph: IsogenyGraph):
    """Largest eigenvalue exactly, second by power iteration, Ramanujan verdict.

    A is applied through the neighbour array, so no n x n matrix is formed.
    A single vertex has no eigenvalue on 1-perp; lambda2 is then 0.
    """
    require_graph_side(f"spectral_check(p={graph.p}, ell={graph.ell})", graph.p)
    import numpy as np

    ell = graph.ell
    nbr = _neighbour_array(graph.adjacency, ell)
    n = len(nbr)
    lam1 = float(ell + 1)
    estimate = 0.0
    if n > 1:
        x = np.cos(np.arange(n, dtype=np.float64))
        x -= x.mean()
        x /= np.linalg.norm(x)
        for _ in range(_POWER_ITERATIONS):
            y = x[nbr].sum(axis=1)
            y -= y.mean()
            norm = float(np.linalg.norm(y))
            if norm == 0.0 or abs(norm - estimate) < _POWER_TOL:
                estimate = norm
                break
            estimate = norm
            x = y / norm
    verdict = estimate <= 2 * math.sqrt(ell) + 1e-6
    return lam1, estimate, verdict

