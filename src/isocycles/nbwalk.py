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
and to one vector in the spectral estimate.  Entries stay exact: int64
while the column-sum bound b_k = (ell + 1) b_{k-1} + ell b_{k-2} keeps
n b_k^2 below 2^63, Python integers past it.  Mobius inversion of the
traces gives the primitive directed cycle counts.  Floating point appears
only in the spectral estimate.
"""

from __future__ import annotations

import math

from .ff import divisors, mobius
from .ssgraph import IsogenyGraph

_INT64_MAX = 2**63 - 1
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


def build_nb_operator(graph: IsogenyGraph) -> NonBacktrackingOperator:
    """B on a p = 1 mod 12 graph, whose adjacency `build_graph` certifies
    symmetric and (ell + 1)-regular."""
    if not graph.regular_flag:
        raise ValueError(
            f"build_nb_operator(p={graph.p}, ell={graph.ell}): graph has p != 1 mod 12; "
            "the operator requires honest (ell+1)-regular undirected semantics"
        )
    return NonBacktrackingOperator(graph.adjacency, graph.ell)


def _neighbour_array(adjacency, ell: int):
    """n x (ell + 1) neighbour indices, each repeated by its multiplicity."""
    import numpy as np  # here, so that commands without the graph side never load it

    return np.array([[v for v in sorted(row) for _ in range(row[v])] for row in adjacency],
                    dtype=np.intp).reshape(len(adjacency), ell + 1)


def _column_sum_bounds(ell: int, k_max: int) -> list[int]:
    """b_k >= the largest absolute column sum of S_k, for k = 0..k_max."""
    b = [2, ell + 1]
    while len(b) <= k_max:
        b.append((ell + 1) * b[-1] + ell * b[-2])
    return b


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
    k_max = (r_max + 1) // 2
    bounds = _column_sum_bounds(ell, k_max)

    def times_a(s):
        out = s[nbr[:, 0]]
        for k in range(1, ell + 1):
            out += s[nbr[:, k]]
        return out

    # squares[k] = |S_k|^2 and cross[k] = <S_k, S_k+1>, summed over blocks
    squares = [0] * (k_max + 1)
    cross = [0] * k_max
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        cur = np.zeros((n, width), dtype=np.int64)
        cur[lo + np.arange(width), np.arange(width)] = 1
        prev, cur = 2 * cur, times_a(cur)
        cross[0] += int(np.vdot(prev, cur))
        for k in range(1, k_max):
            if cur.dtype != object and n * bounds[k + 1] ** 2 > _INT64_MAX:
                prev, cur = prev.astype(object), cur.astype(object)
            squares[k] += int(np.vdot(cur, cur))
            prev *= ell
            prev, cur = cur, times_a(cur) - prev
            cross[k] += int(np.vdot(prev, cur))
        squares[k_max] += int(np.vdot(cur, cur))

    traces = []
    for r in range(1, r_max + 1):
        k = r // 2
        if r % 2:
            traces.append(cross[k] - ell**k * loops - half_loops)
        else:
            traces.append(squares[k] - 2 * n * ell**k + n * (ell - 1))
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
    if not graph.regular_flag:
        raise ValueError(f"spectral_check(p={graph.p}, ell={graph.ell}): "
                         "spectral check requires p = 1 mod 12")
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


def count_cycles(graph: IsogenyGraph, r_max: int) -> dict[int, int]:
    """Primitive directed cycle counts c_3..c_r_max of a p = 1 mod 12 graph."""
    return directed_cycle_counts(closed_nbw_counts(build_nb_operator(graph), r_max))
