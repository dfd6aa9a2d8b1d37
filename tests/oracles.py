"""Reference implementations the tests compare the program against.

None of this runs in an `isocycles` command.  The cycle oracle on the
directed-edge expansion, the dense-matrix random-walk bound and power
iteration, and the ell-graph rim route are independent routes to
quantities the program computes another way; the small helpers read graph
and polynomial data through the program's plain attributes and F_{p^2}
element arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from isocycles import hilbert, quadform
from isocycles.ff import PolyOverFp2, poly_roots
from isocycles.nbwalk import NonBacktrackingOperator


def multiplicity_matrix(graph) -> list[list[int]]:
    """The n x n adjacency matrix of `graph`: entry (i, j) is the
    multiplicity of j among the roots of Phi_ell(X, v_i)."""
    n = graph.vertex_count
    mat = [[0] * n for _ in range(n)]
    for i, row in enumerate(graph.adjacency):
        for j, m in row.items():
            mat[i][j] = m
    return mat


def dense_second_eigenvalue(graph) -> float:
    """`spectral_check`'s power iteration for lambda2 on the dense float matrix."""
    adj = np.array(multiplicity_matrix(graph), dtype=np.float64)
    x = np.cos(np.arange(graph.vertex_count, dtype=np.float64))
    x -= x.mean()
    x /= np.linalg.norm(x)
    estimate = 0.0
    for _ in range(200000):
        y = adj @ x
        y -= y.mean()
        norm = float(np.linalg.norm(y))
        if norm == 0.0 or abs(norm - estimate) < 1e-8:
            return norm
        estimate = norm
        x = y / norm
    return estimate


def adjacency_rows(mat) -> list[dict[int, int]]:
    """Rows {neighbour: multiplicity} of a symmetric, regular multiplicity
    matrix, the form `IsogenyGraph.adjacency` takes."""
    rows = [{j: int(m) for j, m in enumerate(row) if m} for row in mat]
    for u, row in enumerate(rows):
        for v, m in row.items():
            back = rows[v].get(u, 0)
            if back != m:
                raise ValueError(f"directed imbalance between vertices {u} and {v}: "
                                 f"{m} vs {back}")
    degrees = {sum(row.values()) for row in rows}
    if len(degrees) != 1:
        raise ValueError(f"matrix is not regular: out-degrees {sorted(degrees)}")
    return rows


def matrix_operator(mat) -> NonBacktrackingOperator:
    """The program's operator on a symmetric (ell + 1)-regular multiplicity matrix."""
    rows = adjacency_rows(mat)
    return NonBacktrackingOperator(rows, sum(rows[0].values()) - 1)


def expand_edges(adjacency):
    """Directed edges, their duals and their successors under B.

    `adjacency` is a list of rows {neighbour: multiplicity}.  Copies of a
    multiplicity-m undirected edge are dual-paired by copy index.  Loop
    copies pair up two at a time; an unpaired loop copy is a half-loop, one
    directed edge (u, u, k) that is its own dual.  `successors[e]` lists the
    edges leaving the target of e other than the dual of e.
    """
    edges = []
    dual = []
    for u, row in enumerate(adjacency):
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
    out_by_source = [[] for _ in adjacency]
    for idx, (s, _, _) in enumerate(edges):
        out_by_source[s].append(idx)
    successors = [[f for f in out_by_source[t] if f != d]
                  for (_, t, _), d in zip(edges, dual)]
    return edges, dual, successors


def dfs_primitive_cycle_counts(adjacency, r_max: int) -> dict[int, int]:
    """Independent oracle: enumerate primitive cyclically non-backtracking
    closed walks up to rotation by depth-first search over edge sequences.

    It expands `adjacency` (rows {neighbour: multiplicity}) into directed
    edges itself with `expand_edges`, and shares no code with the program's
    Ihara-Bass trace recursion or Mobius inversion.  A rotation class is
    counted once, at its lexicographically least rotation.  Intended for
    small graphs and modest r_max.
    """
    _, _, succ = expand_edges(adjacency)
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

    for start in range(len(succ)):
        dfs(start, [start])
    return counts


def _is_least_rotation(seq: tuple) -> bool:
    doubled = seq + seq
    n = len(seq)
    return all(seq <= doubled[k:k + n] for k in range(1, n))


def _is_primitive(seq: tuple) -> bool:
    n = len(seq)
    for period in (d for d in range(1, n) if n % d == 0):
        if all(seq[i] == seq[i % period] for i in range(n)):
            return False
    return True


def rims_on_ell_graph(D: int, graph) -> list[tuple]:
    """`locate_rim_vertices` by the route that builds the ell-graph.

    The roots of H_D mod p come from the general splitting, and membership
    and edge multiplicities from `graph`, built by `build_graph(p, ell)`.
    Only the threading search and the canonical form are the program's.
    """
    disc = quadform.Discriminant(D)
    r = quadform.form_order(disc, quadform.prime_form(disc, graph.ell))
    count = {}
    for v in poly_roots(hilbert.hilbert_mod_p(D, graph.field)):
        i = graph.vertex_index[graph.field.elem(*v)]
        count[i] = count.get(i, 0) + 1
    ids = sorted(count)
    rows = [{k: graph.adjacency[i][j] for k, j in enumerate(ids) if j in graph.adjacency[i]}
            for i in ids]
    free = {k for k, i in enumerate(ids)
            if graph.vertices[i].key() in ((0, 0), (1728 % graph.p, 0))}
    cycles = hilbert._thread_cycles([count[i] for i in ids], rows, r, free)
    return [tuple(graph.vertices[ids[k]] for k in cyc)
            for cyc in sorted(hilbert._canonical_cycle(c) for c in cycles)]


def rw_distribution_distance(graph, subset, t: int):
    """Exact t-step random-walk deviation from uniform, and the spectral bound.

    Returns (max_j |Pr_t(j) - 1/n|, (1/#S) * (2*sqrt(ell)/(ell+1))^t).
    """
    where = f"rw_distribution_distance(p={graph.p}, ell={graph.ell}, t={t}): "
    if graph.p % 12 != 1:
        raise ValueError(f"{where}random-walk bound requires p = 1 mod 12")
    subset = sorted(set(subset))
    if not subset:
        raise ValueError(f"{where}initial subset must be nonempty")
    n = graph.vertex_count
    if any(i < 0 or i >= n for i in subset):
        raise ValueError(f"{where}subset contains an invalid vertex index")
    ell = graph.ell
    adj = np.array(multiplicity_matrix(graph), dtype=object)
    u = np.zeros(n, dtype=object)
    for i in subset:
        u[i] = 1
    for _ in range(t):
        u = adj @ u
    denominator = len(subset) * (ell + 1) ** t
    deviation = max(abs(Fraction(int(x), denominator) - Fraction(1, n)) for x in u)
    bound = (2 * math.sqrt(ell) / (ell + 1)) ** t / len(subset)
    return float(deviation), bound


def mixing_steps_bound(graph, subset_size: int = 1) -> int:
    """Steps after which every vertex has positive probability mass."""
    ell = graph.ell
    rate = math.log((ell + 1) / (2 * math.sqrt(ell)))
    t = (math.log(graph.vertex_count) - math.log(subset_size)) / rate
    return math.floor(t) + 1


def loop_count(graph, j: int) -> int:
    """Loop multiplicity at the vertex j, an element of F_p."""
    i = graph.vertex_index[graph.field.elem(j)]
    return graph.adjacency[i].get(i, 0)


def modpoly_text(phi) -> str:
    """`phi` in the phi<ell>.txt format that `resolve_modular_polynomial` reads."""
    lines = [f"ell={phi.level}"]
    for (i, j) in sorted(phi.coefficients, reverse=True):
        lines.append(f"{i} {j} {phi.coefficients[(i, j)]}")
    return "\n".join(lines) + "\n"


def poly_eval(f: PolyOverFp2, x):
    """f(x) by Horner's rule in F_{p^2} element arithmetic."""
    acc = f.field.zero
    for a, b in reversed(f.coeff_pairs()):
        acc = acc * x + f.field.elem(a, b)
    return acc


def poly_mul(f: PolyOverFp2, g: PolyOverFp2) -> PolyOverFp2:
    """The product f * g by schoolbook multiplication in F_{p^2} element arithmetic."""
    field = f.field
    u = [field.elem(a, b) for a, b in f.coeff_pairs()]
    v = [field.elem(a, b) for a, b in g.coeff_pairs()]
    out = [field.zero] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for k, y in enumerate(v):
            out[i + k] = out[i + k] + x * y
    return PolyOverFp2(field, [x.key() for x in out])
