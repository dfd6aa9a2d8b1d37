"""Supersingular ell-isogeny graph construction over F_{p^2}.

One supersingular j-invariant is produced from congruence conditions on p
(or a CM seed when p = 1 mod 12), and `bfs` searches the graph breadth
first from it, one vertex at a time, by the roots of the instantiated
modular polynomial.  `build_graph` runs the search to its end and validates
the vertex census against the closed-form count; `locate` stops it once
the roots it needs are found.  At ell = 2 a vertex's roots other than its
BFS parent come from one square root in F_{p^2} (Charles-Goren-Lauter),
and the seed's come from Cardano's formula, since its cubic splits in
F_{p^2}.  Every vertex for ell >= 3 takes the general path: a Frobenius
power isolates the distinct roots, equal-degree splitting runs only while
a factor has degree 4 or more (at ell = 3, one successful split per vertex
at most), and the quadratic formula or Cardano's formula solves the
factors left.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from . import hilbert
from .ff import (PolyOverFp2, PrimeField, QuadExtElement, is_prime, kronecker_symbol,
                 next_prime, poly_roots)
from .modpoly import instantiate, reduce_mod_p, resolve_modular_polynomial

MAX_GRAPH_PRIME = 2 * 10**5
_SEED_SEARCH_LIMIT = 1000


def vertex_count_formula(p: int) -> int:
    """Number of supersingular j-invariants over F_{p^2}."""
    if p < 5:
        raise ValueError(f"formula requires p >= 5, got {p}")
    extra = {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]
    return p // 12 + extra


def initial_supersingular_j(p: int) -> tuple[int, int]:
    """One supersingular j-invariant in F_{p^2}, as an (a, b) pair.

    1728 when p = 3 mod 4, else 0 when p = 2 mod 3; for p = 1 mod 12 the
    canonically smallest root of a class polynomial H_{-q} mod p for the
    smallest prime q = 3 mod 4 that is inert over p.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"initial_supersingular_j(p={p}): p must be a prime >= 5")
    if p % 4 == 3:
        return (1728 % p, 0)
    if p % 3 == 2:
        return (0, 0)
    q = 3
    while True:
        if q % 4 == 3 and kronecker_symbol(-q, p) == -1:
            break
        q = next_prime(q)
        if q > _SEED_SEARCH_LIMIT:
            raise ArithmeticError(
                f"initial_supersingular_j(p={p}): no CM seed prime below {_SEED_SEARCH_LIMIT}"
            )
    return poly_roots(hilbert.hilbert_mod_p(-q, PrimeField(p)))[0]


class IsogenyGraph:
    """Vertices are supersingular j-invariants; directed multi-edges come
    from root multiplicities of the instantiated modular polynomial."""

    __slots__ = ("p", "ell", "field", "vertices", "vertex_index", "adjacency")

    def __init__(self, p, ell, field, vertices, adjacency):
        self.p = p
        self.ell = ell
        self.field = field
        self.vertices = vertices
        self.vertex_index = {v: i for i, v in enumerate(vertices)}
        self.adjacency = adjacency

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def label(self, i: int) -> str:
        v = self.vertices[i]
        return f"{v.a}+{v.b}*s"

    def json_chunks(self):
        """The JSON export, `json.dumps(payload, indent=2) + "\\n"`, in the
        pieces the indented encoder yields.

        Written piece by piece, a graph export peaks near twice its text;
        joined first, near eight times (2 MB for the 0.25 MB text at
        p = 20029, ell = 2).
        """
        payload = {
            "schema": 1,
            "p": self.p,
            "ell": self.ell,
            "non_residue": self.field.non_residue,
            "vertices": [self.label(i) for i in range(self.vertex_count)],
            "adjacency": [sorted(row.items()) for row in self.adjacency],
        }
        yield from json.JSONEncoder(indent=2).iterencode(payload)
        yield "\n"

    def dot_lines(self):
        """The DOT export, line by line, each line ending in "\n"."""
        yield f'graph isogeny_{self.p}_{self.ell} {{\n'
        for i in range(self.vertex_count):
            yield f'  v{i} [label="{self.label(i)}"];\n'
        for i, row in enumerate(self.adjacency):
            for j, m in sorted(row.items()):
                if j < i:
                    continue
                if j == i:
                    yield f'  v{i} -- v{i} [label={m}];\n'
                else:
                    back = self.adjacency[j].get(i, 0)
                    tag = str(m) if back == m else f'"{m}/{back}"'
                    yield f'  v{i} -- v{j} [label={tag}];\n'
        yield "}\n"


def bfs(p: int, ell: int, modpoly_dir: str | None):
    """Breadth-first search of the supersingular ell-isogeny graph, one vertex at a time.

    The refusals of `build_graph` run at the call, in its order; the search
    runs as the result is iterated.  It yields each expanded vertex v, an
    (a, b) pair, with the roots of Phi_ell(X, v) in F_{p^2} with
    multiplicity, certified by rebuilding Phi_ell(X, v) from them, so that
    every vertex it reaches is joined to the seed by certified roots.  It
    stops after the first level that passes the census count.  Errors name
    build_graph and (p, ell).
    """
    with _named(p, ell):
        if not is_prime(ell):
            raise ValueError(f"ell must be prime, got {ell}")
        if p > MAX_GRAPH_PRIME:
            raise ValueError(f"p={p} exceeds the desk-scale cap {MAX_GRAPH_PRIME}")
        if ell >= p:
            raise ValueError(f"need ell < p, got ell={ell}, p={p}")
        modpoly = resolve_modular_polynomial(ell, modpoly_dir)
        seed = initial_supersingular_j(p)
        field = PrimeField(p)
        rows = reduce_mod_p(modpoly, p)
    return _search(p, ell, seed, field, rows)


def _search(p, ell, seed, field, rows):
    # Every neighbour of a supersingular j lies in F_{p^2}, and Phi_ell is
    # symmetric, so the BFS parent of a vertex is a root of Phi_ell(X, v): at
    # ell = 2 the other two roots solve a quadratic.
    with _named(p, ell):
        n = field.non_residue
        expected = vertex_count_formula(p)
        parent = {seed: None}
        frontier = [seed]
        while frontier and len(parent) <= expected:
            nxt = []
            for v in frontier:
                f = PolyOverFp2(field, instantiate(rows, v, p, n))
                roots = poly_roots(f, known_root=parent[v] if ell == 2 else None)
                # the certificate also makes every row sum ell + 1, the degree of f
                if PolyOverFp2.from_roots(field, roots) != f:
                    raise ArithmeticError(
                        f"roots {roots} of Phi_{ell}(X, {v[0]}+{v[1]}*s) do not rebuild it"
                    )
                yield v, roots
                for w in roots:
                    if w not in parent:
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt


def build_graph(p: int, ell: int, modpoly_dir: str | None = None) -> IsogenyGraph:
    """BFS closure of the supersingular locus under ell-isogeny adjacency.

    The vertex count is validated against the closed-form census; a
    mismatch signals an arithmetic bug or a non-supersingular seed.  Every
    error names the stage and (p, ell).
    """
    neighbours = dict(bfs(p, ell, modpoly_dir))
    with _named(p, ell):
        found = set(neighbours).union(*neighbours.values())
        expected = vertex_count_formula(p)
        if len(found) != expected:
            raise ArithmeticError(
                f"vertex census mismatch: closure found {len(found)} vertices, "
                f"formula gives {expected}"
            )
        keys = sorted(found)
        index = {v: i for i, v in enumerate(keys)}
        adjacency: list[dict[int, int]] = [dict() for _ in keys]
        for v, roots in neighbours.items():
            row = adjacency[index[v]]
            for w in roots:
                row[index[w]] = row.get(index[w], 0) + 1
        field = PrimeField(p)
        vertices = [QuadExtElement(field, a, b) for a, b in keys]
        graph = IsogenyGraph(p, ell, field, vertices, adjacency)
        _validate(graph)
        return graph


@contextmanager
def _named(p: int, ell: int):
    """Prefix errors raised inside with `build_graph(p=…, ell=…): `."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        exc.args = (f"build_graph(p={p}, ell={ell}): {exc}",)
        raise


def _validate(graph: IsogenyGraph):
    # at p = 1 mod 12 neither 0 nor 1728 is supersingular, so the graph must
    # avoid both and every multiplicity must be symmetric
    if graph.p % 12 == 1:
        zero = graph.field.zero
        j1728 = graph.field.elem(1728)
        if zero in graph.vertex_index or j1728 in graph.vertex_index:
            raise ArithmeticError("0 or 1728 appeared in a p = 1 mod 12 graph")
        for i, row in enumerate(graph.adjacency):
            for j, m in row.items():
                if graph.adjacency[j].get(i, 0) != m:
                    raise ArithmeticError(
                        f"asymmetric multiplicities between {graph.label(i)} "
                        f"and {graph.label(j)}"
                    )

