from functools import lru_cache

import pytest
from sympy import primerange

from isocycles import ordercount, quadform
from isocycles.ff import kronecker_symbol
from isocycles.nbwalk import build_nb_operator, closed_nbw_counts, directed_cycle_counts
from isocycles.ordercount import (
    bound_b,
    enumerate_orders,
    epsilon,
    order_census,
    order_records_csv,
    order_side_cycle_count,
    q_set,
)
from isocycles.quadform import Discriminant
from isocycles.ssgraph import build_graph


class TestQSet:
    def test_wp179_ell2(self):
        assert [x for x, _, _ in q_set(1, 179, 2)] == []
        assert [x for x, _, _ in q_set(2, 179, 2)] == [1]
        assert [x for x, _, _ in q_set(3, 179, 2)] == [1]
        assert [x for x, _, _ in q_set(4, 179, 2)] == [5, 7]
        assert [x for x, _, _ in q_set(5, 179, 2)] == [9]
        assert [x for x, _, _ in q_set(6, 179, 2)] == [1, 3, 5, 11, 13, 15]

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            q_set(3, 2, 2)

    def test_budget_cap(self):
        with pytest.raises(ValueError, match=r"^q_set\(N=30, p=179, ell=2\): .*cap"):
            q_set(30, 179, 2)
        with pytest.raises(ValueError):
            q_set(41, 179, 2)

    def test_membership_conditions(self):
        for x, _, _ in q_set(8, 1009, 2):
            delta = x * x - 4 * 2**8
            assert x % 2 == 1
            assert kronecker_symbol(Discriminant(delta).fundamental, 1009) != 1

    def test_keeps_traces_with_p_squared_in_the_discriminant(self):
        # 83^2 - 4*3^7 = -11*13^2 and 86^2 - 4*3^7 = -8*13^2: 13 is inert in
        # Q(sqrt(-11)) and Q(sqrt(-2)), so both traces stay
        assert {83, 86} <= {x for x, _, _ in q_set(7, 13, 3)}
        records = order_census(7, 13, 3)["records"]
        assert {(rec["x"], rec["discriminant"], rec["eps"]) for rec in records
                if rec["x"] in (83, 86)} == {(83, -11, 2), (86, -8, 2)}

    LEVELS = [(179, 2, 9), (1009, 2, 8), (13, 3, 7), (13, 2, 14)]

    @pytest.mark.parametrize("p, ell, N", LEVELS)
    def test_discriminant_is_prime_to_p_squared(self, p, ell, N):
        for x, delta, _ in q_set(N, p, ell):
            assert delta % (p * p)
            rest, rem = divmod(x * x - 4 * ell**N, delta)
            assert rem == 0
            while rest % (p * p) == 0:
                rest //= p * p
            assert rest == 1

    @pytest.mark.parametrize("p, ell, N", LEVELS)
    def test_eps_is_eichlers_factor_of_the_field(self, p, ell, N):
        for _, delta, eps in q_set(N, p, ell):
            assert eps == 1 - kronecker_symbol(Discriminant(delta).fundamental, p)

    # x^2 - 4*ell^N is -11*13^2, -8*13^2, -7^3*13^2 and -15*13^2; 13 is
    # inert in each field, which the undivided discriminant would read as ramified
    @pytest.mark.parametrize("p, ell, N, x", [(13, 3, 7, 83), (13, 3, 7, 86),
                                              (13, 2, 14, 87), (13, 2, 14, 251)])
    def test_eps_where_p_squared_divides(self, p, ell, N, x):
        assert (x * x - 4 * ell**N) % (p * p) == 0
        (delta, eps), = [(d, e) for y, d, e in q_set(N, p, ell) if y == x]
        assert eps == 1 - kronecker_symbol(Discriminant(delta).fundamental, p) == 2


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
        assert order_side_cycle_count(6, 179, 2).sums == expected

    def test_cycle_counts_at_179(self):
        expected = {3: 2, 4: 2, 5: 2, 6: 14}
        assert order_side_cycle_count(6, 179, 2).cycles == expected

    def test_divisor_sum_identity(self):
        # sum over r | N of r*c_r = Q_N, with the internal c_1, c_2 values
        from fractions import Fraction

        from sympy import divisors, mobius

        for p, ell, n_max in ((179, 2, 8), (1009, 2, 9)):
            q = order_side_cycle_count(n_max, p, ell).sums
            s = {}
            for n in range(1, n_max + 1):
                total = sum(mobius(r) * q[n // r] for r in divisors(n))
                s[n] = Fraction(total, n)
            for n in range(1, n_max + 1):
                assert sum(r * s[r] for r in divisors(n)) == q[n]

    def test_n_below_3_rejected_for_cycles(self):
        with pytest.raises(ValueError,
                           match=r"^order_side_cycle_count\(N=2, p=179, ell=2\): "):
            order_side_cycle_count(2, 179, 2)

    @pytest.mark.parametrize("p, ell, n_max", [
        (3361, 2, 18), (1019, 3, 10), (613, 2, 12), (13, 3, 8), (97, 7, 5), (241, 11, 4),
        (179, 2, 12),
    ], ids=lambda v: str(v))
    def test_swept_level_sums_equal_the_record_sums(self, p, ell, n_max):
        # Q_N from T(D'_x) of every trace against eps * h summed order by
        # order, with h lifted from the form count of each field
        sums = order_side_cycle_count(n_max, p, ell).sums
        for n in range(1, n_max + 1):
            records, level_sums = ordercount._records(n, p, ell)
            assert sum(rec.eps * rec.h for rec in records) == sums[n] == level_sums[n], n

    @pytest.mark.parametrize("p, ell, n", [(613, 2, 10), (13, 3, 7), (97, 7, 4), (241, 11, 4),
                                           (179, 2, 12)])
    def test_record_class_numbers_equal_the_enumeration(self, p, ell, n):
        for rec in ordercount._records(n, p, ell)[0]:
            assert rec.h == quadform.class_number(rec.discriminant.value), rec


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
        assert 15 in {x for x, _, _ in q_set(6, 179, 2)}
        assert -31 not in {r.discriminant.value for r in enumerate_orders(6, 179, 2)}

    def test_record_invariants(self):
        for n in (3, 4, 5, 6, 7):
            for rec in enumerate_orders(n, 1009, 2):
                d = rec.discriminant
                assert d.conductor % 2 and kronecker_symbol(d.fundamental, 2) == 1
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


class TestRecordDivisibility:
    """_records checks that g and the order of the class above ell divide h."""

    @pytest.mark.parametrize("name", ["form_order", "genus_number"])
    def test_non_divisor_of_h_refused(self, monkeypatch, name):
        monkeypatch.setattr(quadform, name, lambda *args: 10**6)
        with pytest.raises(AssertionError, match=r"^_records\(N=3, p=179, ell=2\): .* "
                           r"does not divide h=3 at D=-31$"):
            enumerate_orders(3, 179, 2)


class TestBound:
    def test_positive_and_monotone(self):
        b6, c6 = bound_b(6, 2)
        b5, _ = bound_b(5, 2)
        assert b6 > b5 > 0
        assert c6 > 0

    def test_dominates_known_counts(self):
        sums, cycles = order_side_cycle_count(6, 179, 2)
        for n in range(3, 7):
            b_n, c_bound = bound_b(n, 2)
            assert sums[n] <= b_n
            assert cycles[n] <= c_bound

    def test_requires_3(self):
        with pytest.raises(ValueError, match=r"^bound_b\(N=2, ell=2\): "):
            bound_b(2, 2)

    @pytest.mark.parametrize("N", [34, 40])
    def test_past_the_float_range_refused(self, N):
        # N = 40 overflows converting ell^N to a float; N = 34 overflows to inf
        with pytest.raises(ValueError, match=rf"^bound_b\(N={N}, ell=1000000007\): the bounds "
                                             r"are past the float range$"):
            bound_b(N, 1000000007)


class TestRamifiedPrime:
    def test_level_sums_at_p5_are_exact(self):
        # 5 ramifies in the fields of -255 (4 genera) and -135, where the
        # paper's factor left Q_6 in [70, 82] and c_6 in [29/3, 35/3]
        eps = {r.discriminant.value: r.eps for r in enumerate_orders(6, 5, 2)}
        assert eps == {-255: 1, -247: 2, -207: 2, -135: 1, -87: 2}
        sums, cycles = order_side_cycle_count(6, 5, 2)
        assert (sums[6], cycles[6]) == (64, 9)


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
        assert list(payload)[-3:] == ["B_N", "c_N_bound", "c_N"]

    def test_census_below_3_refused_by_the_bound(self):
        with pytest.raises(ValueError, match=r"^bound_b\(N=2, ell=2\): bound requires N >= 3$"):
            order_census(2, 179, 2)

    def test_cross_oracle_sampled_sweep(self):
        for p, ell, r_max in ((433, 2, 8), (601, 2, 8), (373, 3, 6)):
            traces = closed_nbw_counts(build_nb_operator(build_graph(p, ell)), r_max)
            sums, cycles = order_side_cycle_count(r_max, p, ell)
            assert cycles == directed_cycle_counts(traces), (p, ell)
            assert [sums[n] for n in range(1, r_max + 1)] == traces, (p, ell)


@lru_cache(maxsize=None)
def _both_sides(p, ell):
    traces = closed_nbw_counts(build_nb_operator(build_graph(p, ell)), 10)
    return traces, directed_cycle_counts(traces), order_side_cycle_count(10, p, ell)


@pytest.mark.parametrize("p, ell, r", [
    pytest.param(p, ell, r, id=f"{p}-{ell}-{r}")
    for p in primerange(13, 1000) if p % 12 == 1
    for ell in (2, 3)
    for r in range(3, 11)
])
def test_cross_oracle_sweep_below_1000(p, ell, r):
    """Graph side equals the order side exactly, level by level as well:
    tr B^r = Q_r (Eichler's trace formula for Brandt matrices)."""
    traces, graph_cycles, (sums, cycles) = _both_sides(p, ell)
    assert cycles[r] == graph_cycles[r]
    assert traces[r - 1] == sums[r]
    if r == 3:
        assert traces[:2] == [sums[1], sums[2]]
