from fractions import Fraction
from functools import lru_cache

import pytest
from sympy import primerange

from isocycles.ff import kronecker_symbol
from isocycles.nbwalk import count_cycles
from isocycles.ordercount import (
    AMBIGUOUS,
    EXACT,
    RationalRange,
    bound_b,
    enumerate_orders,
    epsilon,
    order_census,
    order_records_csv,
    order_side_cycle_count,
    q_n,
    q_set,
)
from isocycles.quadform import SPLIT, splitting_type
from isocycles.ssgraph import build_graph


class TestQSet:
    def test_wp179_ell2(self):
        assert q_set(1, 179, 2) == []
        assert q_set(2, 179, 2) == [1]
        assert q_set(3, 179, 2) == [1]
        assert q_set(4, 179, 2) == [5, 7]
        assert q_set(5, 179, 2) == [9]
        assert q_set(6, 179, 2) == [1, 3, 5, 11, 13, 15]

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            q_set(3, 2, 2)

    def test_budget_cap(self):
        with pytest.raises(ValueError, match=r"^q_set\(N=30, p=179, ell=2\): .*cap"):
            q_set(30, 179, 2)
        with pytest.raises(ValueError):
            q_set(41, 179, 2)

    def test_membership_conditions(self):
        for x in q_set(8, 1009, 2):
            delta = x * x - 4 * 2**8
            assert x % 2 == 1
            assert kronecker_symbol(delta, 1009) != 1
            assert not (delta % 1009 == 0 and (delta // 1009) % 1009 == 0)


class TestEpsilon:
    def test_inert_gives_2(self):
        eps = epsilon(-31, 2, 3, 179)
        assert eps.kind == EXACT and eps.value == 2

    def test_ramified_example_241(self):
        eps = epsilon(-964, 11, 4, 241)
        assert eps.kind == EXACT and eps.value == Fraction(4, 3)

    def test_ramified_odd_order_gives_1(self):
        # 5 ramifies in disc -15; the class above 2 has order 2, but an odd
        # r pins epsilon at 1 regardless of genus structure
        eps = epsilon(-15, 2, 1, 5)
        assert eps.kind == EXACT and eps.value == 1

    def test_ambiguous_when_many_genera(self):
        # disc -420: 8 genera, Cl^2 trivial; 11 splits; 5 ramifies
        eps = epsilon(-420, 11, 2, 5)
        assert eps.kind == AMBIGUOUS
        assert (eps.lo, eps.hi) == (1, 2)

    def test_split_p_rejected(self):
        with pytest.raises(ValueError, match="splits"):
            epsilon(-31, 2, 3, 5)

    def test_conductor_rejected(self):
        with pytest.raises(ValueError, match="conductor"):
            epsilon(-135, 2, 6, 3)

    def test_small_levels_force_2(self):
        # ell^N < p/4 forces inertness, hence epsilon = 2 on every record
        for n in range(1, 8):
            for rec in enumerate_orders(n, 1009, 2) if n >= 3 else []:
                assert rec.eps.kind == EXACT and rec.eps.value == 2


class TestQn:
    def test_level_sums_at_179(self):
        expected = {1: 0, 2: 4, 3: 6, 4: 12, 5: 10, 6: 94}
        for n, val in expected.items():
            q = q_n(n, 179, 2)
            assert q.exact and q.value == val, n

    def test_cycle_counts_at_179(self):
        expected = {3: 2, 4: 2, 5: 2, 6: 14}
        for n, val in expected.items():
            c = order_side_cycle_count(n, 179, 2)
            assert c.exact and c.value == val, n

    def test_divisor_sum_identity(self):
        # sum over r | N of r*c_r = Q_N, with the internal c_1, c_2 values
        from sympy import divisors

        for p, ell, n_max in ((179, 2, 8), (1009, 2, 9)):
            s = {}
            for n in range(1, n_max + 1):
                from sympy import mobius

                total = Fraction(0)
                for r in divisors(n):
                    total += mobius(r) * q_n(n // r, p, ell).value
                s[n] = total / n
            for n in range(1, n_max + 1):
                assert sum(r * s[r] for r in divisors(n)) == q_n(n, p, ell).value

    def test_n_below_3_rejected_for_cycles(self):
        with pytest.raises(ValueError):
            order_side_cycle_count(2, 179, 2)


class TestEnumerateOrders:
    def test_length_3(self):
        recs = enumerate_orders(3, 179, 2)
        assert [(r.discriminant.value, r.h, r.l_order) for r in recs] == [(-31, 3, 3)]
        assert recs[0].eps.value == 2

    def test_length_4_excludes_order_2_class(self):
        recs = enumerate_orders(4, 179, 2)
        assert sorted(r.discriminant.value for r in recs) == [-39]

    def test_length_6_set(self):
        recs = enumerate_orders(6, 179, 2)
        assert sorted(r.discriminant.value for r in recs) == [-255, -247, -231, -135, -87]
        assert all(r.l_order == 6 for r in recs)

    def test_minus_31_appears_at_x15_but_filtered(self):
        assert 15 in q_set(6, 179, 2)
        assert -31 not in {r.discriminant.value for r in enumerate_orders(6, 179, 2)}

    def test_record_invariants(self):
        for n in (3, 4, 5, 6, 7):
            for rec in enumerate_orders(n, 1009, 2):
                d = rec.discriminant
                assert splitting_type(d, 2) == SPLIT
                assert kronecker_symbol(d.fundamental, 1009) != 1
                assert d.conductor % 1009 != 0
                assert rec.l_order == n

    def test_ex52_record_reached_from_pipeline(self):
        # x = 240 at N = 4 for (p, ell) = (241, 11) hits disc -964
        recs = [r for r in enumerate_orders(4, 241, 11) if r.discriminant.value == -964]
        assert len(recs) == 1
        rec = recs[0]
        assert (rec.x, rec.f, rec.h, rec.g) == (240, 1, 12, 2)
        assert rec.eps.value == Fraction(4, 3)
        assert rec.eps.value * rec.h / 4 == 4

    def test_small_r_rejected(self):
        with pytest.raises(ValueError):
            enumerate_orders(2, 179, 2)


class TestBound:
    def test_positive_and_monotone(self):
        b6, c6 = bound_b(6, 2)
        b5, _ = bound_b(5, 2)
        assert b6 > b5 > 0
        assert c6 > 0

    def test_dominates_known_counts(self):
        for n in range(3, 7):
            b_n, c_bound = bound_b(n, 2)
            assert q_n(n, 179, 2).value <= b_n
            assert order_side_cycle_count(n, 179, 2).value <= c_bound

    def test_requires_3(self):
        with pytest.raises(ValueError):
            bound_b(2, 2)


class TestAmbiguousPropagation:
    def test_interval_reaches_level_sum(self):
        # p = 5 ramifies in Q(sqrt(-255)) which has 4 genera: the epsilon of
        # disc -255 at level 6 is undeterminable and taints the sums
        q = q_n(6, 5, 2)
        assert not q.exact
        assert q.hi - q.lo == 12  # one ambiguous record with h = 12
        c = order_side_cycle_count(6, 5, 2)
        assert not c.exact
        assert c.hi - c.lo == 2

    def test_ambiguous_csv_flag(self):
        recs = [r for r in enumerate_orders(6, 5, 2) if r.eps.kind == AMBIGUOUS]
        assert recs
        text = order_records_csv(recs)
        assert text.strip().split("\n")[1].endswith(",1")


class TestRationalRange:
    def test_exact_arithmetic(self):
        a = RationalRange(3)
        b = RationalRange(Fraction(1, 2))
        assert (a + b).value == Fraction(7, 2)
        assert (a - b).value == Fraction(5, 2)
        assert (a / 2).value == Fraction(3, 2)

    def test_interval_propagation(self):
        a = RationalRange(1, 2)
        b = RationalRange(5)
        s = b - a
        assert (s.lo, s.hi) == (3, 4)
        assert not s.exact
        with pytest.raises(ValueError):
            _ = s.value

    def test_invalid(self):
        with pytest.raises(ValueError):
            RationalRange(2, 1)


class TestReports:
    def test_csv_shape(self):
        text = order_records_csv(enumerate_orders(6, 179, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "r,x,f,discriminant,h,g,eps_num,eps_den,ambiguous_flag"
        assert len(lines) == 6
        assert all(line.endswith(",0") for line in lines[1:])

    def test_census_json(self):
        payload = order_census(6, 179, 2)
        assert payload["Q_N"] == 94
        assert payload["c_N"] == 14
        assert payload["B_N"] > 94
        discs = {rec["discriminant"] for rec in payload["records"]}
        assert discs == {-255, -247, -231, -135, -87, -15, -31}

    def test_cross_oracle_sampled_sweep(self):
        from isocycles.nbwalk import build_nb_operator, closed_nbw_counts, directed_cycle_counts
        from isocycles.ssgraph import build_graph

        for p, ell, r_max in ((433, 2, 8), (601, 2, 8), (373, 3, 6)):
            g = build_graph(p, ell)
            op = build_nb_operator(g)
            counts = directed_cycle_counts(closed_nbw_counts(op, r_max), r_max)
            for r in range(3, r_max + 1):
                oc = order_side_cycle_count(r, p, ell)
                assert oc.exact and oc.value == counts[r], (p, ell, r)


# (p, ell, r) where the sweep below finds the two sides apart: the graph
# side one or two below the order side, and at (13, 3, 7) an order side
# that is not an integer (2180/7).  On these graphs the graph side agrees
# with the DFS oracle (p = 13, 37, 61 up to r = 8) and with exact powers
# of B (p = 37), see test_nbwalk.py.
SWEEP_DISAGREEMENTS = {
    (13, 2, 4): AssertionError, (13, 2, 6): AssertionError,
    (13, 2, 10): AssertionError, (37, 2, 8): AssertionError,
    (61, 2, 8): AssertionError, (61, 2, 10): AssertionError,
    (109, 2, 10): AssertionError, (13, 3, 7): ArithmeticError,
}


@lru_cache(maxsize=None)
def _graph_side(p, ell):
    return count_cycles(build_graph(p, ell), 10).directed


def _sweep_cases():
    for p in primerange(13, 1000):
        if p % 12 != 1:
            continue
        for ell in (2, 3):
            for r in range(3, 11):
                raises = SWEEP_DISAGREEMENTS.get((p, ell, r))
                marks = [pytest.mark.xfail(strict=True, raises=raises,
                                           reason="graph and order side disagree")
                         ] if raises else []
                yield pytest.param(p, ell, r, marks=marks, id=f"{p}-{ell}-{r}")


@pytest.mark.parametrize("p, ell, r", _sweep_cases())
def test_cross_oracle_sweep_below_1000(p, ell, r):
    """Graph side equals the exact order side or lies inside its range."""
    graph = _graph_side(p, ell)[r]
    oc = order_side_cycle_count(r, p, ell)
    assert oc.lo <= graph <= oc.hi
