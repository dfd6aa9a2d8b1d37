from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primefactors

from isocycles import quadform
from isocycles.ff import kronecker_symbol
from isocycles.quadform import (
    INERT,
    RAMIFIED,
    SPLIT,
    BinaryQuadraticForm,
    Discriminant,
    class_number,
    compose,
    form_order,
    genus_number,
    prime_form,
    principal_form,
    reduce,
    reduced_forms,
    splitting_type,
)

DISC_POOL = [-15, -31, -39, -47, -84, -87, -135, -231, -247, -255, -420, -964, -3299, -9240]


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
        with pytest.raises(ValueError, match=r"^class_number\(D=-100000004\): "
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
        f = BinaryQuadraticForm(1, 1, 8)
        assert reduce(f) == f

    def test_example(self):
        assert reduce(BinaryQuadraticForm(8, 7, 2)) == BinaryQuadraticForm(2, 1, 2)

    def test_boundary_b_nonneg(self):
        assert reduce(BinaryQuadraticForm(2, -1, 4)) == BinaryQuadraticForm(2, -1, 4)
        # a == c forces b >= 0
        assert reduce(BinaryQuadraticForm(2, -2, 3)).is_reduced()

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            BinaryQuadraticForm(1, 5, 1)

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            BinaryQuadraticForm(2, 2, 2)

    @given(st.sampled_from(DISC_POOL), st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_class_preserving(self, disc, data):
        forms = reduced_forms(disc)
        f = data.draw(st.sampled_from(forms))
        # unreduce by a few random SL2 steps, then reduce back
        a, b, c = f.a, f.b, f.c
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                a, b, c = c, -b, a
            else:
                t = data.draw(st.integers(-3, 3))
                a, b, c = a, b + 2 * t * a, a * t * t + b * t + c
        g = BinaryQuadraticForm(a, b, c) if a > 0 else f
        r = reduce(g) if a > 0 else f
        if a > 0:
            assert r == f or r.discriminant() == f.discriminant()
        assert reduce(reduce(g if a > 0 else f)) == reduce(g if a > 0 else f)


class TestCompose:
    def test_identity_law(self):
        f = BinaryQuadraticForm(2, 1, 4)
        assert compose(principal_form(-31), f) == reduce(f)

    def test_inverse_law(self):
        f = BinaryQuadraticForm(2, 1, 4)
        assert compose(f, f.inverse()) == principal_form(-31)

    def test_square_in_cyclic_3(self):
        f = BinaryQuadraticForm(2, 1, 4)
        assert compose(f, f) == BinaryQuadraticForm(2, -1, 4)

    def test_discriminant_mismatch(self):
        with pytest.raises(ValueError):
            compose(principal_form(-31), principal_form(-15))

    @given(st.sampled_from(DISC_POOL), st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_axioms(self, disc, data):
        forms = reduced_forms(disc)
        pick = lambda: data.draw(st.sampled_from(forms))
        f, g, h = pick(), pick(), pick()
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, g) == compose(g, f)
        assert compose(f, principal_form(disc)) == f
        assert compose(f, f.inverse()) == principal_form(disc)

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


def brute_box_class_count(disc):
    """Enumerate forms with a, |b|, c <= |disc| and count distinct reductions."""
    bound = -disc
    seen = set()
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            t = b * b - disc
            if t % (4 * a):
                continue
            c = t // (4 * a)
            if c < 1 or c > bound:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            seen.add(reduce(BinaryQuadraticForm(a, b, c)))
    return len(seen)


class TestClassNumber:
    @pytest.mark.parametrize(
        "disc,h",
        [(-31, 3), (-39, 4), (-47, 5), (-87, 6), (-231, 12), (-247, 6),
         (-255, 12), (-135, 6), (-15, 2), (-964, 12), (-3, 1), (-4, 1)],
    )
    def test_known_values(self, disc, h):
        assert class_number(disc) == h

    def test_matches_box_enumeration_oracle(self):
        for disc in range(-3, -201, -1):
            if disc % 4 in (-3, 0):
                assert class_number(disc) == brute_box_class_count(disc), disc

    def test_reduced_forms_are_reduced_and_distinct(self):
        for disc in DISC_POOL:
            forms = reduced_forms(disc)
            assert len(set(forms)) == len(forms)
            assert all(f.is_reduced() for f in forms)
            assert all(f.discriminant() == disc for f in forms)


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
        assert prime_form(-31, 2) == BinaryQuadraticForm(2, 1, 4)

    def test_inert_prime_absent(self):
        # kronecker(-31, 3) = -1
        assert prime_form(-31, 3) is None

    def test_split_at_5_in_minus_31(self):
        # kronecker(-31, 5) = kronecker(4, 5) = +1, so the class exists
        assert prime_form(-31, 5) == reduce(BinaryQuadraticForm(5, 3, 2))

    def test_ramified_above_2_in_gaussian(self):
        assert prime_form(-4, 2) == reduce(BinaryQuadraticForm(2, 2, 1))

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
    def test_examples(self):
        assert splitting_type(-31, 2) == SPLIT
        assert splitting_type(-4, 2) == RAMIFIED
        assert splitting_type(-135, 2) == SPLIT  # via fundamental part -15
        assert splitting_type(-31, 3) == INERT

    def test_conductor_rejected(self):
        with pytest.raises(ValueError):
            splitting_type(-135, 3)

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
            got = [tuple(f) for f in reduced_forms(disc)]
            assert got == scan_reduced_forms(disc), disc

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
        # Cox, Thm 7.24: h(f^2 D_K) from h(D_K) and the conductor f
        for dk in range(-3, -2001, -1):
            if not is_fundamental(dk):
                continue
            hk = class_number(dk)
            for f in range(1, 31):
                expected = Fraction(hk * f, unit_index(dk) if f > 1 else 1)
                for q in primefactors(f):
                    expected *= 1 - Fraction(kronecker_symbol(dk, q), q)
                assert class_number(f * f * dk) == expected, (dk, f)
