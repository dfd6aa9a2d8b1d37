"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The asymptotic-regime criterion is asserted at
its stated tolerance even where the true counts land outside it; see the
per-length lines it prints.
"""

import math

import pytest
from sympy import primerange

from isocycles.ff import PolyOverFp2, kronecker_symbol, poly_roots
from isocycles.hilbert import locate_rim_vertices
from isocycles.nbwalk import (
    build_nb_operator,
    closed_nbw_counts,
    directed_cycle_counts,
    spectral_check,
)
from isocycles.ordercount import (
    bound_b,
    enumerate_orders,
    epsilon,
    order_side_cycle_count,
)
from isocycles.quadform import (
    class_number,
    compose,
    form_order,
    genus_number,
    prime_form,
    principal_form,
    reduce,
    reduced_forms,
)
from isocycles.ssgraph import build_graph, vertex_count_formula
from oracles import (
    dfs_primitive_cycle_counts,
    expand_edges,
    loop_count,
    matrix_operator,
    poly_eval,
    rw_distribution_distance,
)


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_1_vertex_census():
    failures = []
    total = 0
    for p in primerange(5, 5001):
        total += 1
        try:
            g = build_graph(p, 2)
        except Exception as exc:  # build_graph validates the census itself
            failures.append((p, str(exc)))
            continue
        if g.vertex_count != vertex_count_formula(p):
            failures.append((p, g.vertex_count))
    ok = not failures
    assert report(1, ok, f"census for all {total} primes 5 <= p <= 5000, ell=2"
                  + ("" if ok else f"; failures: {failures[:5]}")), failures


def test_criterion_2_golden_counts_at_179():
    q_expected = {1: 0, 2: 4, 3: 6, 4: 12, 5: 10, 6: 94}
    c_expected = {3: 2, 4: 2, 5: 2, 6: 14}
    q_got, c_got = order_side_cycle_count(6, 179, 2)
    ok = q_got == q_expected and c_got == c_expected
    assert report(2, ok,
                  f"p=179 ell=2: Q_1..Q_6 = {[q_got[n] for n in range(1, 7)]}, "
                  f"c_3..c_6 = {[c_got[n] for n in range(3, 7)]}")


def test_criterion_3_order_census_at_179():
    h_expected = {-31: 3, -39: 4, -47: 5, -87: 6, -231: 12, -247: 6, -255: 12, -135: 6}
    h_ok = all(class_number(d) == h for d, h in h_expected.items())
    sets_expected = {3: {-31}, 4: {-39}, 5: {-47}, 6: {-87, -231, -247, -255, -135}}
    sets_got = {
        r: {rec.discriminant.value for rec in enumerate_orders(r, 179, 2)}
        for r in sets_expected
    }
    sets_ok = sets_got == sets_expected
    excl_ok = -31 not in sets_got[6]
    ok = h_ok and sets_ok and excl_ok
    assert report(3, ok, f"class numbers {h_ok}, order sets per length {sets_got}")


@pytest.fixture(scope="module")
def graph_counts(g1009, g3361, g3229):
    out = {}
    for g in (g1009, g3361, g3229):
        op = build_nb_operator(g)
        traces = closed_nbw_counts(op, 14 if g.ell == 2 else 10)
        out[(g.p, g.ell)] = directed_cycle_counts(traces)
    return out


def test_criterion_4_cross_oracle_identity(graph_counts):
    mismatches = []
    order_cycles = {(p, ell): order_side_cycle_count(10, p, ell).cycles
                    for p, ell in ((1009, 2), (3361, 2), (3229, 3))}
    for (p, ell) in ((1009, 2), (3361, 2), (3229, 3)):
        for r in range(3, 11):
            oc = order_cycles[(p, ell)][r]
            if oc != graph_counts[(p, ell)][r]:
                mismatches.append((p, ell, r, graph_counts[(p, ell)][r], oc))
    ok = not mismatches
    assert report(4, ok, "graph-side == order-side for p in {1009, 3361} ell=2 and "
                  "p=3229 ell=3, all 3 <= r <= 10" + ("" if ok else f": {mismatches}"))


def test_criterion_5_ramified_fibre_example():
    # The paper's worked example gives eps = 4/3 and contribution 4; Eichler's
    # factor gives 1 and 3, and only the latter matches the graph: c_4 = 3762
    # at (241, 11), against 3766 with the paper's factor (test_velu.py).
    h = class_number(-964)
    g = genus_number(-964)
    sigma = prime_form(-964, 11)
    r = form_order(-964, sigma)
    eps = epsilon(-964, 241).value
    contribution = eps * h / r
    ok = (h, g, r) == (12, 2, 4) and eps == 1 and contribution == 3
    assert report(5, ok, f"disc -964: h={h}, genera={g}, order of class above 11 = {r}, "
                  f"eps={eps}, contribution={contribution}")


def test_criterion_6_explicit_bounds(graph_counts):
    cases = [(179, 2, range(3, 7)), (1009, 2, range(3, 11)),
             (3361, 2, range(3, 11)), (3229, 3, range(3, 11))]
    violations = []
    for p, ell, rng in cases:
        sums, cycles = order_side_cycle_count(rng[-1], p, ell)
        for n in rng:
            b_n, c_bound = bound_b(n, ell)
            if not sums[n] <= b_n:
                violations.append(("Q", p, ell, n))
            if not cycles[n] <= c_bound:
                violations.append(("c", p, ell, n))
    ok = not violations
    assert report(6, ok, "Q_N <= B_N and c_N <= bound for all computed cases"
                  + ("" if ok else f": {violations}"))


def test_criterion_7_asymptotic_regime(graph_counts):
    cases = [(3361, 2, range(10, 15)), (3229, 3, range(8, 11))]
    lines = []
    ok = True
    for p, ell, rng in cases:
        for r in rng:
            directed = graph_counts[(p, ell)][r]
            assert directed % 2 == 0
            undirected = directed // 2
            ratio = undirected * 2 * r / ell**r
            good = abs(ratio - 1) <= 0.2
            ok = ok and good
            lines.append(f"p={p} ell={ell} r={r}: count={undirected} "
                         f"target={ell**r / (2 * r):.1f} |ratio-1|={abs(ratio - 1):.4f}"
                         f"{' ok' if good else ' OUT OF TOLERANCE'}")
    detail = "counts vs ell^r/2r within 20%:\n    " + "\n    ".join(lines)
    assert report(7, ok, detail)


def test_criterion_8_spectral_and_mixing(g1009, g3361):
    ok = True
    details = []
    for g in (g1009, g3361):
        lam1, lam2, verdict = spectral_check(g)
        ok = ok and verdict and lam1 == g.ell + 1
        details.append(f"p={g.p}: lambda2={lam2:.6f} <= {2 * math.sqrt(g.ell):.6f}")
        for t in (5, 10, 20, 30):
            dev, bound = rw_distribution_distance(g, [0], t)
            if dev > bound:
                ok = False
                details.append(f"p={g.p} t={t}: deviation {dev} > bound {bound}")
    assert report(8, ok, "; ".join(details))


def test_criterion_9_loop_law():
    checked = 0
    failures = []
    for ell in (2, 3):
        expected_1728 = 1 + kronecker_symbol(-4, ell)
        expected_0 = 1 + kronecker_symbol(-3, ell)
        for p in primerange(51, 2001):
            want_1728 = p % 4 == 3 and 4 * ell < p
            want_0 = p % 3 == 2 and 3 * ell < p
            if not (want_1728 or want_0):
                continue
            g = build_graph(p, ell)
            if want_1728:
                checked += 1
                if loop_count(g, 1728) != expected_1728:
                    failures.append((p, ell, 1728, loop_count(g, 1728)))
            if want_0:
                checked += 1
                if loop_count(g, 0) != expected_0:
                    failures.append((p, ell, 0, loop_count(g, 0)))
    ok = not failures
    assert report(9, ok, f"{checked} loop counts over 50 < p <= 2000, ell in {{2, 3}}"
                  + ("" if ok else f"; failures: {failures[:5]}"))


def test_criterion_10_rim_localization(g179):
    F = g179.field
    i = F.elem(*poly_roots(PolyOverFp2(F, [1, 0, 1]))[0])
    j1 = F.elem(5) + F.elem(64) * i
    j2 = F.elem(107) + F.elem(99) * i
    j3 = F.elem(109) + F.elem(5) * i
    e = F.elem
    k1, k2, k3 = (e(j.a, -j.b) for j in (j1, j2, j3))  # the conjugates
    repeated = [e(0), e(121), e(121), e(112), e(112), e(35)]
    expected = {
        -31: [[e(171), j3, k3]],
        -39: [[e(61), j1, e(140), k1]],
        -47: [[e(22), j2, j3, k3, k2]],
        -87: [[e(22), j2, j1, e(140), k1, k2]],
        -231: [[e(140), j1, j2, j3, e(171), e(120)],
               [e(140), k1, k2, k3, e(171), e(120)]],
        -247: [repeated],
        -255: [repeated,
               [e(22), j2, j3, e(171), k3, k2]],
        -135: [[e(61), j1, j2, e(22), k2, k1]],
    }
    failures = []
    for disc, cycles in expected.items():
        got = locate_rim_vertices(disc, 179, 2, modpoly_dir=None)
        want = sorted(tuple(sorted(v.key() for v in c)) for c in cycles)
        have = sorted(tuple(sorted(v.key() for v in c)) for c in got)
        if want != have:
            failures.append((disc, have))
    ok = not failures
    assert report(10, ok, "all reference cycles located as vertex multisets at (179, 2)"
                  + ("" if ok else f"; failures: {failures}"))


def test_criterion_11_property_suites(g1009):
    ok = True
    # quadform group axioms and reduce idempotence on a nontrivial class group
    forms = reduced_forms(-964)
    for a, b, c in forms:
        ok = ok and reduce((a, b, c)) == (a, b, c)
        ok = ok and compose((a, b, c), reduce((a, -b, c))) == principal_form(-964)
    for f in forms[:4]:
        for g in forms[:4]:
            for h in forms[:4]:
                ok = ok and compose(compose(f, g), h) == compose(f, compose(g, h))
    # Mobius exact division and dual involution on the 1009 operator
    op = build_nb_operator(g1009)
    traces = closed_nbw_counts(op, 8)
    counts = directed_cycle_counts(traces)  # raises if division inexact
    ok = ok and counts == dfs_primitive_cycle_counts(g1009.adjacency, 8)
    _, dual, _ = expand_edges(g1009.adjacency)
    ok = ok and all(dual[dual[e2]] == e2 for e2 in range(len(dual)))
    # poly_roots vs exhaustive evaluation over a small field
    import itertools

    from isocycles.ff import PrimeField

    F = PrimeField(41)
    f = PolyOverFp2(F, [(7, 3), (0, 1), (40, 39), (1, 0), (5, 5), (0, 0), (1, 0)])
    brute = sorted(
        (a, b)
        for a, b in itertools.product(range(41), repeat=2)
        if poly_eval(f, F.elem(a, b)).key() == (0, 0)
    )
    ok = ok and sorted(set(poly_roots(f))) == brute
    # C_n trace oracle
    for n in range(3, 9):
        mat = [[0] * n for _ in range(n)]
        for k in range(n):
            mat[k][(k + 1) % n] += 1
            mat[(k + 1) % n][k] += 1
        tr = closed_nbw_counts(matrix_operator(mat), 24)
        ok = ok and tr == [2 * n if r % n == 0 else 0 for r in range(1, 25)]
    assert report(11, ok, "group axioms, reduce idempotence, Mobius exactness, "
                  "root finding vs exhaustive scan, dual involution, C_n traces")
