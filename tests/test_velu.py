"""A second graph builder, from Vélu's formulas, as an oracle for ell >= 3.

Every supersingular j other than 0 and 1728 (none is a vertex when
p = 1 mod 12) has a model over F_{p^2} with group (Z/(p+1))^2 and a
quadratic twist with (Z/(p-1))^2.  When ell divides m = p+1 or p-1, E[ell]
is rational on the model killed by m, a basis comes from cofactor
multiples of random points, and each of the ell + 1 kernels gives its
codomain by Vélu (Washington, Thm 12.16).  No modular polynomial and no
root finding past square roots is involved, so the cycle counts it yields
check the order side at ell = 5, 7 and 11, where no Phi_ell is shipped.
"""

import random

import pytest

from isocycles.ff import PolyOverFp2, poly_roots
from isocycles.nbwalk import closed_nbw_counts, directed_cycle_counts
from isocycles.ordercount import order_side_cycle_count
from isocycles.ssgraph import build_graph
from oracles import matrix_operator


def _add(P, Q, a):
    """Sum of affine points on y^2 = x^3 + a x + b; None is the identity."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2).key() == (0, 0):
            return None
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


def _mul(k, P, a):
    out = None
    while k:
        if k & 1:
            out = _add(out, P, a)
        P, k = _add(P, P, a), k >> 1
    return out


def _random_point(F, a, b, rng):
    while True:
        x = F.elem(rng.randrange(F.p), rng.randrange(F.p))
        ys = poly_roots(PolyOverFp2(F, [(-(x * x * x + a * x + b)).key(), 0, 1]))
        if ys:
            return x, F.elem(*ys[0])


def _j(a, b):
    return 1728 * 4 * a**3 / (4 * a**3 + 27 * b * b)


def velu_adjacency(p, ell):
    """n x n multiplicity matrix of the ell-isogeny graph, odd ell | p^2 - 1,
    on the vertices of build_graph(p, 2)."""
    g = build_graph(p, 2)
    F, rng = g.field, random.Random(0)
    assert all(v.key() not in ((0, 0), (1728 % p, 0)) for v in g.vertices)
    m = p + 1 if (p + 1) % ell == 0 else p - 1
    twist = next(d for d in (F.elem(k, 1) for k in range(p))
                 if d ** ((p * p - 1) // 2) != F.one)
    index = {v.key(): i for i, v in enumerate(g.vertices)}
    mat = [[0] * len(g.vertices) for _ in g.vertices]
    for i, j in enumerate(g.vertices):
        a, b = 3 * j * (1728 - j), 2 * j * (1728 - j) ** 2
        if _mul(m, _random_point(F, a, b, rng), a) is not None:
            a, b = twist**2 * a, twist**3 * b
        assert _mul(m, _random_point(F, a, b, rng), a) is None
        basis = []
        while len(basis) < 2:
            P = _mul(m // ell, _random_point(F, a, b, rng), a)
            span = [_mul(k, basis[0], a) for k in range(ell)] if basis else [None]
            if P not in span:
                basis.append(P)
        P1, P2 = basis
        for gen in [P1] + [_add(P2, _mul(k, P1, a), a) for k in range(ell)]:
            v = w = 0
            T = gen
            for _ in range((ell - 1) // 2):
                x, y = T
                vT = 2 * (3 * x * x + a)
                v, w = v + vT, w + 4 * y * y + x * vT
                T = _add(T, gen, a)
            mat[i][index[_j(a - 5 * v, b - 7 * w).key()]] += 1
    return g.vertices, mat


@pytest.mark.parametrize("p", [97, 109, 241, 613, 1009])
def test_velu_matches_modular_polynomial_graph_at_ell_3(p):
    vertices, mat = velu_adjacency(p, 3)
    g3 = build_graph(p, 3)
    keys = [v.key() for v in vertices]
    assert sorted(keys) == sorted(v.key() for v in g3.vertices)
    want = {g3.vertices[u].key(): {g3.vertices[v].key(): m for v, m in row.items()}
            for u, row in enumerate(g3.adjacency)}
    got = {keys[u]: {keys[v]: m for v, m in enumerate(row) if m}
           for u, row in enumerate(mat)}
    assert got == want


# c_3, c_4, ... on the Vélu graph; (241, 11) is the paper's example, and its
# order side at r = 6 sweeps |D| up to 4 * 11^6 in about a second.
VELU_COUNTS = {
    (241, 11): [482, 3762, 32574, 293598],
    (109, 11): [472, 3568, 32176],
    (97, 7): [122, 580, 3416, 19781],
    (61, 5): [56, 120, 596, 2650],
    (241, 5): [48, 172, 686, 2596],
}


@pytest.mark.parametrize("p, ell", list(VELU_COUNTS),
                         ids=[f"{p}-{ell}" for p, ell in VELU_COUNTS])
def test_velu_graph_side_equals_order_side(p, ell):
    expected = VELU_COUNTS[(p, ell)]
    r_max = 2 + len(expected)
    _, mat = velu_adjacency(p, ell)
    graph = directed_cycle_counts(closed_nbw_counts(matrix_operator(mat), r_max))
    orders = order_side_cycle_count(r_max, p, ell).cycles
    assert [graph[r] for r in range(3, r_max + 1)] == expected
    assert orders == graph
