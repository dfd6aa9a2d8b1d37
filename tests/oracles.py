"""Reference implementations the tests compare the program against.

None of this runs in an `isocycles` command.  The cycle oracle, the
random-walk bound and the ell-graph rim route are independent routes to
quantities the program computes another way; the small helpers read graph and polynomial data through the
program's plain attributes and F_{p^2} element arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from isocycles import hilbert, quadform
from isocycles.ff import PolyOverFp2, poly_roots


def dfs_primitive_cycle_counts(op, r_max: int) -> dict[int, int]:
    """Independent oracle: enumerate primitive cyclically non-backtracking
    closed walks up to rotation by depth-first search over edge sequences.

    It shares only `build_nb_operator`'s edge expansion (the directed edges,
    their duals and successor lists) with the program, not the Ihara-Bass
    trace recursion or the Mobius inversion.  A rotation class is counted
    once, at its lexicographically least rotation.  Intended for small
    graphs and modest r_max.
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
    for period in (d for d in range(1, n) if n % d == 0):
        if all(seq[i] == seq[i % period] for i in range(n)):
            return False
    return True


def rims_on_ell_graph(D: int, graph) -> list[tuple]:
    """`locate_rim_vertices` by the route that builds the ell-graph.

    The roots of H_D mod p come from the general splitting, and membership
    and adjacency from `graph`, built by `build_graph(p, ell)`.  Only the
    threading search and the canonical form are the program's.
    """
    disc = quadform.Discriminant(D)
    r = quadform.form_order(disc, quadform.prime_form(disc, graph.ell))
    count = {}
    for v in poly_roots(hilbert.hilbert_mod_p(D, graph.p, graph.field)):
        i = graph.vertex_index[v]
        count[i] = count.get(i, 0) + 1
    ids = sorted(count)
    neighbours = [[k for k, j in enumerate(ids) if graph.adjacency[i].get(j, 0) > 0]
                  for i in ids]
    cycles = hilbert._thread_cycles([count[i] for i in ids], neighbours, r)
    return [tuple(graph.vertices[ids[k]] for k in cyc)
            for cyc in sorted(hilbert._canonical_cycle(c) for c in cycles)]


def rw_distribution_distance(graph, subset, t: int):
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
    """`phi` in the phi<ell>.txt format that `load_modular_polynomial` reads."""
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
    return PolyOverFp2(field, out)
