import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocycles.ff import (
    PolyOverFp2,
    PrimeField,
    QuadExtElement,
    kronecker_symbol,
    poly_roots,
)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 41, 97]


def legendre_brute(a, p):
    a %= p
    if a == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a in squares else -1


class TestKronecker:
    def test_perfect_square(self):
        assert kronecker_symbol(4, 7) == 1

    def test_splitting_behaviour_at_179(self):
        # 179 splits in Q(sqrt(-23)) but not in Q(sqrt(-31))
        assert kronecker_symbol(-31, 179) == -1
        assert kronecker_symbol(-23, 179) == 1

    def test_nonresidue(self):
        assert kronecker_symbol(3, 7) == -1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kronecker_symbol(5, 0)
        with pytest.raises(ValueError):
            kronecker_symbol(5, -3)

    def test_even_modulus_rules(self):
        assert kronecker_symbol(2, 2) == 0
        assert kronecker_symbol(7, 2) == 1
        assert kronecker_symbol(3, 2) == -1
        assert kronecker_symbol(-31, 2) == 1  # -31 = 1 mod 8

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_matches_brute_force_legendre(self, p):
        for a in range(-2 * p, 2 * p + 1):
            assert kronecker_symbol(a, p) == legendre_brute(a, p), (a, p)

    @given(st.integers(-500, 500), st.integers(-500, 500),
           st.sampled_from(SMALL_PRIMES))
    def test_multiplicative(self, a, b, p):
        assert (
            kronecker_symbol(a, p) * kronecker_symbol(b, p)
            == kronecker_symbol(a * b, p)
        )


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(15)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            PrimeField(3)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_non_residue_is_smallest(self, p):
        n = PrimeField(p).non_residue
        assert legendre_brute(n, p) == -1
        assert all(legendre_brute(m, p) == 1 for m in range(2, n))

    def test_non_residue_7_is_3(self):
        assert PrimeField(7).non_residue == 3


class TestQuadExt:
    def test_multiplicative_identity(self):
        F = PrimeField(7)
        x = F.elem(3, 4)
        assert F.one * x == x

    def test_s_squared_is_nonresidue(self):
        F = PrimeField(7)
        s = F.sqrt_of_nonresidue()
        assert s * s == F.elem(F.non_residue)

    def test_difference_of_squares(self):
        F = PrimeField(7)
        assert F.elem(1, 1) * F.elem(1, -1) == F.elem(5)  # 1 - 3 mod 7

    def test_inverse_examples(self):
        F = PrimeField(7)
        assert F.one.inverse() == F.one
        s = F.sqrt_of_nonresidue()
        n_inv = pow(F.non_residue, 7 - 2, 7)
        assert s.inverse() == F.elem(0, n_inv)
        assert F.elem(2).inverse() == F.elem(4)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(7).zero.inverse()

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(7).one * PrimeField(11).one

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    def test_inverse_law(self, p, data):
        F = PrimeField(p)
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        x = F.elem(a, b)
        if x.is_zero():
            return
        assert x * x.inverse() == F.one

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    def test_ring_laws(self, p, data):
        F = PrimeField(p)
        xs = [F.elem(data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1)))
              for _ in range(3)]
        x, y, z = xs
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_pow_matches_repeated_mul(self):
        F = PrimeField(13)
        x = F.elem(5, 7)
        acc = F.one
        for k in range(8):
            assert x**k == acc
            acc = acc * x


class TestPolyRoots:
    def test_x2_plus_1_over_179(self):
        F = PrimeField(179)
        roots = poly_roots(PolyOverFp2(F, [1, 0, 1]))
        assert len(roots) == 2
        assert all(r.b != 0 for r in roots)  # -1 is a non-residue mod 179
        assert roots[0] == -roots[1]
        assert all((r * r) == F.elem(-1) for r in roots)

    def test_x2_minus_2_over_f49(self):
        F = PrimeField(7)
        roots = poly_roots(PolyOverFp2(F, [-2, 0, 1]))
        assert roots == [F.elem(3), F.elem(4)]

    def test_double_root(self):
        F = PrimeField(179)
        c = F.elem(5, 3)
        f = PolyOverFp2(F, [c * c, -(c + c), F.one])
        assert poly_roots(f) == [c, c]

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(PolyOverFp2(PrimeField(7), []))

    def test_degree_cap(self):
        F = PrimeField(7)
        coeffs = [F.one] + [F.zero] * 64 + [F.one]
        with pytest.raises(ValueError):
            poly_roots(PolyOverFp2(F, coeffs))

    def test_constant_poly_has_no_roots(self):
        F = PrimeField(7)
        assert poly_roots(PolyOverFp2(F, [3])) == []

    def test_sorted_output(self):
        F = PrimeField(41)
        f = PolyOverFp2(F, [6, 11, 1])
        roots = poly_roots(f)
        assert roots == sorted(roots)

    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_exhaustive_evaluation(self, p, data):
        F = PrimeField(p)
        deg = data.draw(st.integers(1, 6))
        coeffs = [
            (data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1)))
            for _ in range(deg)
        ] + [(1, 0)]
        f = PolyOverFp2(F, coeffs)
        roots = poly_roots(f)
        brute = set()
        for a, b in itertools.product(range(p), repeat=2):
            x = F.elem(a, b)
            if f(x).is_zero():
                brute.add(x)
        assert set(roots) == brute
        assert len(roots) <= deg

    def test_exhaustive_evaluation_large_prime(self):
        p = 97
        F = PrimeField(p)
        f = PolyOverFp2(F, [(3, 5), (1, 0), (0, 2), (90, 13), (2, 2), (0, 0), (1, 0)])
        roots = poly_roots(f)
        brute = {
            F.elem(a, b)
            for a, b in itertools.product(range(p), repeat=2)
            if f(F.elem(a, b)).is_zero()
        }
        assert set(roots) == brute

    @given(st.sampled_from([5, 7, 11]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_multiset_multiplicativity(self, p, data):
        F = PrimeField(p)

        def rand_poly(deg):
            coeffs = [
                (data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1)))
                for _ in range(deg)
            ] + [(1, 0)]
            return PolyOverFp2(F, coeffs)

        f, g = rand_poly(data.draw(st.integers(1, 3))), rand_poly(data.draw(st.integers(1, 3)))
        combined = poly_roots(f * g)
        separate = sorted(poly_roots(f) + poly_roots(g))
        assert combined == separate
