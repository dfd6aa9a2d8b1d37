import itertools
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primefactors

from isocycles import quadform
from isocycles.ff import kronecker_symbol
from isocycles.quadform import (
    Discriminant,
    class_number,
    compose,
    form_counts,
    form_order,
    genus_number,
    prime_form,
    principal_form,
    reduce,
    reduced_forms,
)

DISC_POOL = [-15, -31, -39, -47, -84, -87, -135, -231, -247, -255, -420, -964, -3299, -9240]


def assert_form_of(disc, form):
    """form is a primitive positive definite (a, b, c) of discriminant disc."""
    a, b, c = form
    assert gcd(a, b, c) == 1 and a > 0 and b * b - 4 * a * c == disc, (disc, form)


class TestDiscriminant:
    def test_fundamental_and_conductor(self):
        d = Discriminant(-135)
        assert (d.fundamental, d.conductor) == (-15, 3)
        d = Discriminant(-964)
        assert (d.fundamental, d.conductor) == (-964, 1)
        d = Discriminant(-16)
        assert (d.fundamental, d.conductor) == (-4, 2)

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            Discriminant(5)

    def test_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            Discriminant(-5)

    def test_cap(self):
        with pytest.raises(ValueError, match=r"^Discriminant\(D=-100000004\): "
                                             r"\|discriminant\| 100000004 exceeds cap"):
            class_number(-(10**8 + 4))

    def test_cap_refused_before_factoring(self, monkeypatch):
        # trial division is sized for the cap: past it, a prime factor
        # near 10^20 would take hours to find
        monkeypatch.setattr(quadform, "factor", None)
        with pytest.raises(ValueError, match="exceeds cap"):
            Discriminant(-(10**40 + 3))


class TestReduce:
    def test_already_reduced(self):
        f = (1, 1, 8)
        assert reduce(f) == f

    def test_example(self):
        assert reduce((8, 7, 2)) == (2, 1, 2)

    def test_boundary_b_nonneg(self):
        assert reduce((2, -1, 4)) == (2, -1, 4)
        # a == c forces b >= 0
        assert reduce((2, -2, 3)) == (2, 2, 3)

    @given(st.sampled_from(DISC_POOL), st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_class_preserving(self, disc, data):
        forms = reduced_forms(disc)
        f = data.draw(st.sampled_from(forms))
        # unreduce by a few random SL2 steps, then reduce back
        a, b, c = f
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                a, b, c = c, -b, a
            else:
                t = data.draw(st.integers(-3, 3))
                a, b, c = a, b + 2 * t * a, a * t * t + b * t + c
        r = reduce((a, b, c))
        assert_form_of(disc, r)
        assert r == f
        assert reduce(r) == r


class TestCompose:
    def test_identity_law(self):
        f = (2, 1, 4)
        assert compose(principal_form(-31), f) == reduce(f)

    def test_inverse_law(self):
        f = (2, 1, 4)
        assert compose(f, reduce((2, -1, 4))) == principal_form(-31)

    def test_square_in_cyclic_3(self):
        f = (2, 1, 4)
        assert compose(f, f) == (2, -1, 4)

    def test_discriminant_mismatch(self):
        with pytest.raises(ValueError):
            compose(principal_form(-31), principal_form(-15))

    @given(st.sampled_from(DISC_POOL), st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_axioms(self, disc, data):
        forms = reduced_forms(disc)
        pick = lambda: data.draw(st.sampled_from(forms))
        f, g, h = pick(), pick(), pick()
        fg = compose(f, g)
        assert_form_of(disc, fg)
        assert fg in forms
        assert compose(fg, h) == compose(f, compose(g, h))
        assert fg == compose(g, f)
        assert compose(f, principal_form(disc)) == f
        a, b, c = f
        assert compose(f, reduce((a, -b, c))) == principal_form(disc)

    def test_repeated_composition_cycles_with_the_order(self):
        # the class above 11 has order 4 in Cl(-964), so its k-fold
        # composition is principal exactly when 4 | k
        f = prime_form(-964, 11)
        one = principal_form(-964)
        acc = one
        for k in range(1, 14):
            acc = compose(acc, f)
            assert (acc == one) == (k % 4 == 0), k
        assert compose(compose(f, f), compose(f, f)) == one


def brute_box_class_count(disc, box=None, primitive=True):
    """Enumerate forms with a, |b| <= box (default |disc|) and c >= 1, and count
    their distinct reductions; only primitive forms unless primitive=False.

    Every reduced form has a <= sqrt(|disc|/3) and |b| <= a, so any box from
    there up finds them all.
    """
    bound = -disc if box is None else box
    seen = set()
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            t = b * b - disc
            if t % (4 * a):
                continue
            c = t // (4 * a)
            if primitive and gcd(gcd(a, b), c) != 1:
                continue
            seen.add(reduce((a, b, c)))
    return len(seen)


def all_reduced_form_count(disc):
    """T(disc): every reduced form, primitive or not, by the box oracle."""
    return brute_box_class_count(disc, box=isqrt(-disc), primitive=False)


class TestClassNumber:
    @pytest.mark.parametrize(
        "disc,h",
        [(-31, 3), (-39, 4), (-47, 5), (-87, 6), (-231, 12), (-247, 6),
         (-255, 12), (-135, 6), (-15, 2), (-964, 12), (-3, 1), (-4, 1),
         (-12, 1), (-16, 1), (-27, 1), (-36, 2), (-48, 2), (-63, 4)],
    )
    def test_known_values(self, disc, h):
        assert class_number(disc) == h

    def test_matches_box_enumeration_oracle(self):
        for disc in range(-3, -201, -1):
            if disc % 4 in (0, 1):
                assert class_number(disc) == brute_box_class_count(disc), disc

    def test_lift_matches_the_form_count(self):
        # below the fundamental part, class_number lifts h(D_K) by the
        # conductor; reduced_forms still enumerates every form of D itself
        for disc in range(-3, -20000, -1):
            if disc % 4 in (0, 1) and Discriminant(disc).conductor > 1:
                assert class_number(disc) == len(reduced_forms(disc)), disc

    def test_inexact_lift_is_named(self, monkeypatch):
        # h(-12) = h(-3) * (2 - (-3|2)) / 3 = 3/3; with (-3|2) read as 0 the
        # lifted count is 2, which the unit index 3 does not divide
        monkeypatch.setattr(quadform, "kronecker_symbol", lambda d, q: 0)
        with pytest.raises(ArithmeticError, match=r"^class_number\(D=-12\): "):
            class_number(-12)

    def test_reduced_forms_are_reduced_and_distinct(self):
        for disc in DISC_POOL:
            forms = reduced_forms(disc)
            assert len(set(forms)) == len(forms)
            assert all(-a < b <= a <= c and not (a == c and b < 0) for a, b, c in forms)
            for f in forms:
                assert_form_of(disc, f)
            # the class above each small prime not dividing the conductor
            for q in (2, 3, 5, 7, 11, 13):
                if Discriminant(disc).conductor % q:
                    f = prime_form(disc, q)
                    if f is not None:
                        assert_form_of(disc, f)
                        assert f in forms


class TestFormCounts:
    RANGE = [D for D in range(-3, -3000, -1) if D % 4 in (0, 1)]

    def test_matches_the_box_count_of_all_reduced_forms(self):
        counts = form_counts(self.RANGE)
        for disc in self.RANGE:
            assert counts[disc] == all_reduced_form_count(disc), disc

    def test_sums_the_class_numbers_of_the_orders_above(self):
        counts = form_counts(self.RANGE)
        for disc in self.RANGE:
            orders = [disc // (f * f) for f in range(1, isqrt(-disc) + 1)
                      if disc % (f * f) == 0 and (disc // (f * f)) % 4 in (0, 1)]
            assert counts[disc] == sum(class_number(d) for d in orders), disc

    def test_mixed_batch_equals_single_calls(self):
        batch = [-3, -99995, -4, -20, -3 * 41**2, -4 * 37**2, -1000, -3, -12, -65535, -7,
                 -4 * 3**10, -2, 5]
        counts = form_counts(batch)
        assert set(counts) == set(batch)
        assert all(counts[d] == form_counts([d])[d] for d in batch)
        assert counts[-2] == counts[5] == 0  # not negative discriminants

    @pytest.mark.parametrize("disc,t", [(-3, 1), (-4, 1), (-12, 2), (-16, 2), (-27, 2)])
    def test_edge_discriminants(self, disc, t):
        assert form_counts([disc]) == {disc: t}

    def test_boundaries_three_and_four_a_squared(self):
        # (a, a, a) sits at |D| = 3a^2 and (a, 0, a) at |D| = 4a^2: the ties
        # b = a and c = a, and the first a whose roots pass without a check
        discs = [-k * a * a for a in range(1, 61) for k in (3, 4) if (k * a * a) % 4 in (0, 3)]
        counts = form_counts(discs)
        for disc in discs:
            assert counts[disc] == all_reduced_form_count(disc), disc


class TestGenus:
    def test_examples(self):
        assert genus_number(-964) == 2
        assert genus_number(-15) == 2
        assert genus_number(-4) == 1

    @pytest.mark.parametrize("disc", DISC_POOL)
    def test_power_of_two_dividing_h(self, disc):
        g = genus_number(disc)
        h = class_number(disc)
        assert h % g == 0
        assert g & (g - 1) == 0

    def test_square_subgroup_size(self):
        squares = {compose(f, f) for f in reduced_forms(-964)}
        assert (class_number(-964), genus_number(-964), len(squares)) == (12, 2, 6)


class TestPrimeForm:
    def test_above_2_in_minus_31(self):
        assert prime_form(-31, 2) == (2, 1, 4)

    def test_inert_prime_absent(self):
        # kronecker(-31, 3) = -1
        assert prime_form(-31, 3) is None

    def test_split_at_5_in_minus_31(self):
        # kronecker(-31, 5) = kronecker(4, 5) = +1, so the class exists
        assert prime_form(-31, 5) == reduce((5, 3, 2))

    def test_ramified_above_2_in_gaussian(self):
        assert prime_form(-4, 2) == reduce((2, 2, 1))

    def test_conductor_rejected(self):
        with pytest.raises(ValueError):
            prime_form(-135, 3)


class TestFormOrder:
    def test_order_3_above_2(self):
        assert form_order(-31, prime_form(-31, 2)) == 3

    def test_order_4_above_11(self):
        assert form_order(-964, prime_form(-964, 11)) == 4

    def test_principal_has_order_1(self):
        assert form_order(-255, principal_form(-255)) == 1

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            form_order(-31, principal_form(-15))

    @given(st.sampled_from(DISC_POOL), st.data())
    @settings(max_examples=40, deadline=None)
    def test_order_divides_h(self, disc, data):
        f = data.draw(st.sampled_from(reduced_forms(disc)))
        assert class_number(disc) % form_order(disc, f) == 0


class TestSplitting:
    def test_square_subgroup_membership(self):
        squares = {compose(f, f) for f in reduced_forms(-964)}
        sigma = prime_form(-964, 11)
        assert sigma not in squares
        assert compose(sigma, sigma) in squares


# Discriminants D with 3 <= |D| <= 4000, all D = 0, 1 (mod 4).
SCAN_RANGE = [D for D in range(-3, -4001, -1) if D % 4 in (0, 1)]


def scan_reduced_forms(disc):
    """Reference: every (a, b) with |b| <= a <= sqrt(|disc|/3), in (a, b) order."""
    out = []
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            t = b * b - disc
            if t % (4 * a):
                continue
            c = t // (4 * a)
            if c < a or (b < 0 and a == c) or gcd(a, b, c) != 1:
                continue
            out.append((a, b, c))
        a += 1
    return out


def unit_index(disc):
    """|O^x| / 2 for the order of discriminant disc."""
    return {-3: 3, -4: 2}.get(disc, 1)


def hurwitz_class_number(n):
    """H(n): h(-n/f^2) weighted by 2/|O^x|, summed over f^2 | n; H(0) = -1/12."""
    if n == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    for f in range(1, isqrt(n) + 1):
        if n % (f * f) == 0 and (-n // (f * f)) % 4 in (0, 1):
            disc = -n // (f * f)
            total += Fraction(class_number(disc), unit_index(disc))
    return total


def is_fundamental(disc):
    def squarefree(m):
        return all(m % (q * q) for q in range(2, isqrt(m) + 1))

    if disc % 4 == 1:
        return squarefree(-disc)
    return disc % 4 == 0 and (-disc // 4) % 4 in (1, 2) and squarefree(-disc // 4)


class TestAgainstClassicalResults:
    def test_reduced_forms_match_the_full_scan(self):
        for disc in SCAN_RANGE:
            assert reduced_forms(disc) == scan_reduced_forms(disc), disc

    def test_genus_number_is_h_over_squares(self):
        for disc in SCAN_RANGE:
            forms = reduced_forms(disc)
            squares = {compose(f, f) for f in forms}
            assert genus_number(disc) * len(squares) == len(forms), disc

    def test_kronecker_hurwitz_relation(self):
        for m in range(1, 301):
            t_max = isqrt(4 * m)
            lhs = sum(hurwitz_class_number(4 * m - t * t) for t in range(-t_max, t_max + 1))
            divs = [d for d in range(1, m + 1) if m % d == 0]
            rhs = 2 * sum(divs) - sum(min(d, m // d) for d in divs)
            assert lhs == rhs, m

    def test_class_numbers_of_suborders(self):
        # Cox, Thm 7.24: h(f^2 D_K) from h(D_K) and the conductor f.  The
        # reduced forms of f^2 D_K, imprimitive ones included, number
        # T(f^2 D_K) = sum over e | f of h((f/e)^2 D_K), so Mobius over the
        # conductor counts the primitive ones: h = sum over d | f of
        # mu(d) T(f^2 D_K / d^2).  One form_counts batch serves every case.
        fields = [dk for dk in range(-3, -2001, -1) if is_fundamental(dk)]
        counts = form_counts(f * f * dk for dk in fields for f in range(1, 31))
        for dk in fields:
            hk = class_number(dk)
            for f in range(1, 31):
                expected = Fraction(hk * f, unit_index(dk) if f > 1 else 1)
                qs = primefactors(f)
                for q in qs:
                    expected *= 1 - Fraction(kronecker_symbol(dk, q), q)
                assert class_number(f * f * dk) == expected, (dk, f)
                primitive = sum((-1) ** k * counts[f * f * dk // prod(sq) ** 2]
                                for k in range(len(qs) + 1)
                                for sq in itertools.combinations(qs, k))
                assert primitive == expected, (dk, f)
                # the enumeration hilbert uses, up to |D| = 2 * 10^5
                if f * f * -dk <= 2 * 10**5:
                    assert len(reduced_forms(f * f * dk)) == expected, (dk, f)
