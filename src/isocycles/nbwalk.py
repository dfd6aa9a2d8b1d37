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
A is applied as an n x (ell + 1) neighbour-index array to blocks of
columns, in O(n * block) memory.  Entries stay exact: int64 while the
column-sum bound b_k = (ell + 1) b_{k-1} + ell b_{k-2} keeps n b_k^2 below
2^63, Python integers past it.  Mobius inversion of the traces gives the
primitive directed cycle counts.  Floating point appears only in the
spectral estimate and the random-walk bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ff import divisors, mobius
from .ssgraph import IsogenyGraph

_INT64_MAX = 2**63 - 1
_BLOCK = 128  # columns of S_k held at once


def _adjacency_rows(graph_or_matrix):
    """Validated adjacency rows {neighbour: multiplicity} and ell."""
    if isinstance(graph_or_matrix, IsogenyGraph):
        where = f"build_nb_operator(p={graph_or_matrix.p}, ell={graph_or_matrix.ell}): "
        if not graph_or_matrix.regular_flag:
            raise ValueError(
                f"{where}graph has p != 1 mod 12; the operator requires honest "
                "(ell+1)-regular undirected semantics"
            )
        rows = graph_or_matrix.adjacency
    else:
        mat = [list(map(int, row)) for row in graph_or_matrix]
        where = f"build_nb_operator(n={len(mat)}): "
        if any(len(row) != len(mat) for row in mat):
            raise ValueError(f"{where}adjacency matrix must be square")
        if any(m < 0 for row in mat for m in row):
            raise ValueError(f"{where}multiplicities must be nonnegative")
        rows = [{j: m for j, m in enumerate(row) if m} for row in mat]
    for u, row in enumerate(rows):
        for v, m in row.items():
            back = rows[v].get(u, 0)
            if back != m:
                raise ValueError(
                    f"{where}directed imbalance between vertices {u} and {v}: {m} vs {back}"
                )
    degrees = {sum(row.values()) for row in rows}
    if len(degrees) != 1:
        raise ValueError(f"{where}graph is not regular: out-degrees {sorted(degrees)}")
    return rows, degrees.pop() - 1


class NonBacktrackingOperator:
    """Sparse operator on directed edges: continue without traversing the dual.

    `successors[e]` lists the directed edges B lets e continue into;
    `adjacency` and `ell` are the graph data the trace recursion reads.
    """

    __slots__ = ("directed_edges", "dual", "successors", "adjacency", "ell")

    def __init__(self, directed_edges, dual, successors, adjacency, ell):
        self.directed_edges = directed_edges
        self.dual = dual
        self.successors = successors
        self.adjacency = adjacency
        self.ell = ell

    @property
    def dimension(self) -> int:
        return len(self.directed_edges)


def build_nb_operator(graph_or_matrix) -> NonBacktrackingOperator:
    """Expand multiplicities into directed edges with a fixed dual pairing.

    Copies of a multiplicity-m undirected edge are dual-paired by copy
    index.  Loop copies pair up two at a time; an unpaired loop copy is a
    half-loop, one directed edge that is its own dual.
    """
    rows, ell = _adjacency_rows(graph_or_matrix)
    edges = []
    dual = []
    for u, row in enumerate(rows):
        for v in sorted(row):
            if v <= u:
                continue
            for k in range(row[v]):
                e = len(edges)
                edges.append((u, v, k))
                edges.append((v, u, k))
                dual.extend([e + 1, e])
        c = row.get(u, 0)
        for i in range(c // 2):
            e = len(edges)
            edges.append((u, u, 2 * i))
            edges.append((u, u, 2 * i + 1))
            dual.extend([e + 1, e])
        if c % 2:
            dual.append(len(edges))
            edges.append((u, u, c - 1))

    out_by_source = [[] for _ in rows]
    for idx, (s, _, _) in enumerate(edges):
        out_by_source[s].append(idx)
    successors = tuple(
        tuple(f for f in out_by_source[t] if f != d)
        for (_, t, _), d in zip(edges, dual)
    )
    return NonBacktrackingOperator(tuple(edges), tuple(dual), successors, rows, ell)


def _column_sum_bounds(ell: int, k_max: int) -> list[int]:
    """b_k >= the largest absolute column sum of S_k, for k = 0..k_max."""
    b = [2, ell + 1]
    while len(b) <= k_max:
        b.append((ell + 1) * b[-1] + ell * b[-2])
    return b


def closed_nbw_counts(op: NonBacktrackingOperator, r_max: int) -> list[int]:
    """Traces of operator powers 1..r_max, exact, by the Ihara-Bass recursion."""
    rows, ell = op.adjacency, op.ell
    n = len(rows)
    if r_max < 1:
        raise ValueError(f"closed_nbw_counts(n={n}, ell={ell}, r_max={r_max}): "
                         "r_max must be at least 1")
    nbr = np.array([[v for v in sorted(row) for _ in range(row[v])] for row in rows],
                   dtype=np.intp).reshape(n, ell + 1)
    loops = sum(row.get(u, 0) for u, row in enumerate(rows))
    half_loops = sum(row.get(u, 0) % 2 for u, row in enumerate(rows))
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


def directed_cycle_counts(traces: list[int], r_max: int | None = None) -> dict[int, int]:
    """Primitive directed cycle counts for r >= 3 by Mobius inversion.

    c_r = (1/r) sum over d | r of mu(r/d) t_d; divisibility is asserted,
    a non-exact division signals a graph or operator bug.
    """
    if r_max is None:
        r_max = len(traces)
    where = f"directed_cycle_counts(r_max={r_max}): "
    if r_max > len(traces):
        raise ValueError(f"{where}only {len(traces)} traces, shorter than requested")
    out = {}
    for r in range(3, r_max + 1):
        total = sum(mobius(r // d) * traces[d - 1] for d in divisors(r))
        q, rem = divmod(total, r)
        if rem:
            raise ArithmeticError(f"{where}Mobius inversion not divisible at r={r}: {total}")
        out[r] = q
    return out


def undirected_cycle_counts(directed: dict[int, int], graph: IsogenyGraph) -> dict[int, int]:
    """Exact halving of directed counts; refused when the graph has loops."""
    loops = graph.total_loops()
    if loops:
        raise ValueError(
            f"undirected_cycle_counts(p={graph.p}, ell={graph.ell}): graph has {loops} "
            "loops, so barbells may exist and directed counts need not halve exactly"
        )
    out = {}
    for r, c in directed.items():
        q, rem = divmod(c, 2)
        if rem:
            raise ArithmeticError(f"undirected_cycle_counts(p={graph.p}, ell={graph.ell}): "
                                  f"directed count c_{r}={c} is odd in a loop-free graph")
        out[r] = q
    return out


def barbell_upper_bound(graph: IsogenyGraph, r: int) -> int:
    """Bound on closed walks equal to their own reversal; even length only."""
    if r % 2 or r < 2:
        raise ValueError(f"barbell_upper_bound(r={r}): barbells have an even number of edges")
    if graph.total_loops() < 2:
        return 0
    return graph.vertex_count * (graph.ell + 1) * graph.ell ** ((r - 2) // 2)


def rw_distribution_distance(graph: IsogenyGraph, subset, t: int):
    """Exact t-step random-walk deviation from uniform, and the spectral bound.

    Returns (max_j |Pr_t(j) - 1/n|, (1/#S) * (2*sqrt(ell)/(ell+1))^t).
    """
    where = f"rw_distribution_distance(p={graph.p}, ell={graph.ell}, t={t}): "
    if not graph.regular_flag:
        raise ValueError(f"{where}random-walk bound requires p = 1 mod 12")
    subset = sorted(set(subset))
    if not subset:
        raise ValueError(f"{where}initial subset must be nonempty")
    n = graph.vertex_count
    if any(i < 0 or i >= n for i in subset):
        raise ValueError(f"{where}subset contains an invalid vertex index")
    ell = graph.ell
    adj = np.array(graph.multiplicity_matrix(), dtype=object)
    u = np.zeros(n, dtype=object)
    for i in subset:
        u[i] = 1
    for _ in range(t):
        u = adj @ u
    denominator = len(subset) * (ell + 1) ** t
    deviation = max(abs(Fraction(int(x), denominator) - Fraction(1, n)) for x in u)
    bound = (2 * math.sqrt(ell) / (ell + 1)) ** t / len(subset)
    return float(deviation), bound


def mixing_steps_bound(graph: IsogenyGraph, subset_size: int = 1) -> int:
    """Steps after which every vertex has positive probability mass."""
    ell = graph.ell
    rate = math.log((ell + 1) / (2 * math.sqrt(ell)))
    t = (math.log(graph.vertex_count) - math.log(subset_size)) / rate
    return math.floor(t) + 1


def spectral_check(graph: IsogenyGraph, tol: float = 1e-8, max_iter: int = 200000):
    """Largest eigenvalue exactly, second by power iteration, Ramanujan verdict."""
    where = f"spectral_check(p={graph.p}, ell={graph.ell}): "
    if not graph.regular_flag:
        raise ValueError(f"{where}spectral check requires p = 1 mod 12")
    ell = graph.ell
    adj = np.array(graph.multiplicity_matrix(), dtype=np.float64)
    n = graph.vertex_count
    ones = np.ones(n)
    if not np.array_equal(adj @ ones, (ell + 1) * ones):
        raise ArithmeticError(f"{where}graph is not (ell+1)-regular")
    lam1 = float(ell + 1)
    x = np.cos(np.arange(n, dtype=np.float64))
    x -= x.mean()
    x /= np.linalg.norm(x)
    estimate = 0.0
    for _ in range(max_iter):
        y = adj @ x
        y -= y.mean()
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            estimate = 0.0
            break
        if abs(norm - estimate) < tol:
            estimate = norm
            break
        estimate = norm
        x = y / norm
    verdict = estimate <= 2 * math.sqrt(ell) + 1e-6
    return lam1, estimate, verdict


@dataclass(frozen=True)
class CycleCountTable:
    r_max: int
    traces: tuple
    directed: dict
    undirected: dict | None


def count_cycles(graph: IsogenyGraph, r_max: int) -> CycleCountTable:
    op = build_nb_operator(graph)
    traces = closed_nbw_counts(op, r_max)
    directed = directed_cycle_counts(traces, r_max)
    undirected = None
    if graph.total_loops() == 0:
        undirected = undirected_cycle_counts(directed, graph)
    return CycleCountTable(r_max, tuple(traces), directed, undirected)


def cycle_report(graph: IsogenyGraph, r_max: int) -> str:
    table = count_cycles(graph, r_max)
    rs = sorted(table.directed)
    payload = {
        "schema": 1,
        "p": graph.p,
        "ell": graph.ell,
        "r_max": r_max,
        "traces": list(table.traces),
        "directed": [table.directed[r] for r in rs],
        "undirected": [table.undirected[r] for r in rs] if table.undirected else None,
        "barbell_bounds": [
            [r, barbell_upper_bound(graph, r)] for r in range(2, r_max + 1, 2)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def dfs_primitive_cycle_counts(op: NonBacktrackingOperator, r_max: int) -> dict[int, int]:
    """Independent oracle: enumerate primitive cyclically non-backtracking
    closed walks up to rotation by depth-first search over edge sequences.

    A rotation class is counted once, at its lexicographically least
    rotation.  Intended for small graphs and modest r_max.
    """
    succ = op.successors
    succ_sets = [frozenset(s) for s in succ]
    counts = {r: 0 for r in range(3, r_max + 1)}

    def dfs(start: int, path: list[int]):
        depth = len(path)
        if depth >= 3 and start in succ_sets[path[-1]]:
            seq = tuple(path)
            if _is_least_rotation(seq) and _is_primitive(seq):
                counts[depth] += 1
        if depth == r_max:
            return
        for f in succ[path[-1]]:
            if f >= start:
                path.append(f)
                dfs(start, path)
                path.pop()

    for start in range(op.dimension):
        dfs(start, [start])
    return counts


def _is_least_rotation(seq: tuple) -> bool:
    doubled = seq + seq
    n = len(seq)
    return all(seq <= doubled[k:k + n] for k in range(1, n))


def _is_primitive(seq: tuple) -> bool:
    n = len(seq)
    for period in divisors(n)[:-1]:
        if all(seq[i] == seq[i % period] for i in range(n)):
            return False
    return True
