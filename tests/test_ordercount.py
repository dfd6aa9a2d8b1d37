from functools import lru_cache

import pytest
from sympy import primerange

from isocycles.ff import kronecker_symbol
from isocycles.nbwalk import count_cycles
from isocycles.ordercount import (
    bound_b,
    enumerate_orders,
    epsilon,
    order_census,
    order_records_csv,
    order_side_cycle_count,
    q_n,
    q_set,
)
from isocycles.quadform import SPLIT, Discriminant, splitting_type
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
            assert kronecker_symbol(Discriminant(delta).fundamental, 1009) != 1

    def test_keeps_traces_with_p_squared_in_the_discriminant(self):
        # 83^2 - 4*3^7 = -11*13^2 and 86^2 - 4*3^7 = -8*13^2: 13 is inert in
        # Q(sqrt(-11)) and Q(sqrt(-2)), so both traces stay
        assert {83, 86} <= set(q_set(7, 13, 3))
        records = order_census(7, 13, 3)["records"]
        assert {(rec["x"], rec["discriminant"], rec["eps"]) for rec in records
                if rec["x"] in (83, 86)} == {(83, -11, 2), (86, -8, 2)}


class TestEpsilon:
    def test_inert_gives_2(self):
        assert epsilon(-31, 179).value == 2

    def test_ramified_example_241(self):
        # the paper's worked example; its factor 1 + r*g/(2h) = 4/3 is not
        # what the graph counts (see test_velu.py at (241, 11, 4))
        assert epsilon(-964, 241).value == 1

    def test_ramified_odd_order_gives_1(self):
        # 5 ramifies in disc -15, where the class above 2 has order 2
        assert epsilon(-15, 5).value == 1

    def test_ramified_with_many_genera_gives_1(self):
        # disc -420: 8 genera, Cl^2 trivial; 5 ramifies
        assert epsilon(-420, 5).value == 1

    def test_split_p_rejected(self):
        with pytest.raises(ValueError, match=r"^epsilon\(D=-31, p=5\): .*splits"):
            epsilon(-31, 5)

    def test_conductor_rejected(self):
        with pytest.raises(ValueError, match=r"^epsilon\(D=-135, p=3\): .*conductor"):
            epsilon(-135, 3)

    def test_small_levels_force_2(self):
        # ell^N < p/4 forces inertness, hence epsilon = 2 on every record
        for n in range(1, 8):
            for rec in enumerate_orders(n, 1009, 2) if n >= 3 else []:
                assert rec.eps == 2


class TestQn:
    def test_level_sums_at_179(self):
        expected = {1: 0, 2: 4, 3: 6, 4: 12, 5: 10, 6: 94}
        for n, val in expected.items():
            assert q_n(n, 179, 2) == val, n

    def test_cycle_counts_at_179(self):
        expected = {3: 2, 4: 2, 5: 2, 6: 14}
        for n, val in expected.items():
            assert order_side_cycle_count(n, 179, 2) == val, n

    def test_divisor_sum_identity(self):
        # sum over r | N of r*c_r = Q_N, with the internal c_1, c_2 values
        from fractions import Fraction

        from sympy import divisors, mobius

        for p, ell, n_max in ((179, 2, 8), (1009, 2, 9)):
            s = {}
            for n in range(1, n_max + 1):
                total = sum(mobius(r) * q_n(n // r, p, ell) for r in divisors(n))
                s[n] = Fraction(total, n)
            for n in range(1, n_max + 1):
                assert sum(r * s[r] for r in divisors(n)) == q_n(n, p, ell)

    def test_n_below_3_rejected_for_cycles(self):
        with pytest.raises(ValueError,
                           match=r"^order_side_cycle_count\(N=2, p=179, ell=2\): "):
            order_side_cycle_count(2, 179, 2)


class TestEnumerateOrders:
    def test_length_3(self):
        recs = enumerate_orders(3, 179, 2)
        assert [(r.discriminant.value, r.h, r.l_order) for r in recs] == [(-31, 3, 3)]
        assert recs[0].eps == 2

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
        assert rec.eps == 1
        assert rec.eps * rec.h / 4 == 3

    def test_small_r_rejected(self):
        with pytest.raises(ValueError, match=r"^enumerate_orders\(r=2, p=179, ell=2\): "):
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
            assert q_n(n, 179, 2) <= b_n
            assert order_side_cycle_count(n, 179, 2) <= c_bound

    def test_requires_3(self):
        with pytest.raises(ValueError, match=r"^bound_b\(N=2, ell=2\): "):
            bound_b(2, 2)


class TestRamifiedPrime:
    def test_level_sums_at_p5_are_exact(self):
        # 5 ramifies in the fields of -255 (4 genera) and -135, where the
        # paper's factor left Q_6 in [70, 82] and c_6 in [29/3, 35/3]
        eps = {r.discriminant.value: r.eps for r in enumerate_orders(6, 5, 2)}
        assert eps == {-255: 1, -247: 2, -207: 2, -135: 1, -87: 2}
        assert q_n(6, 5, 2) == 64
        assert order_side_cycle_count(6, 5, 2) == 9


class TestReports:
    def test_csv_shape(self):
        text = order_records_csv(enumerate_orders(6, 179, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "r,x,f,discriminant,h,g,eps_num,eps_den"
        assert len(lines) == 6
        assert all(line.endswith(",2,1") for line in lines[1:])

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
            counts = directed_cycle_counts(closed_nbw_counts(op, r_max))
            for r in range(3, r_max + 1):
                assert order_side_cycle_count(r, p, ell) == counts[r], (p, ell, r)


@lru_cache(maxsize=None)
def _graph_side(p, ell):
    return count_cycles(build_graph(p, ell), 10)


@pytest.mark.parametrize("p, ell, r", [
    pytest.param(p, ell, r, id=f"{p}-{ell}-{r}")
    for p in primerange(13, 1000) if p % 12 == 1
    for ell in (2, 3)
    for r in range(3, 11)
])
def test_cross_oracle_sweep_below_1000(p, ell, r):
    """Graph side equals the order side exactly."""
    assert order_side_cycle_count(r, p, ell) == _graph_side(p, ell)[r]
