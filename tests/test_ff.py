import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from isocycles.ff import (
    PRIMALITY_BOUND,
    PolyOverFp2,
    PrimeField,
    QuadExtElement,
    _candidates,
    _cube_root,
    _cubic_roots,
    _inv2,
    _roots_internal,
    _split_linear,
    _sqrt_fp2,
    divisors,
    factor,
    is_prime,
    kronecker_symbol,
    mobius,
    next_prime,
    poly_roots,
)
from isocycles.modpoly import instantiate, reduce_mod_p, resolve_modular_polynomial
from oracles import poly_eval, poly_mul

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


class TestIntegerPrimitives:
    """Checked against sympy, which the program itself no longer imports."""

    def test_is_prime_below_2e5(self):
        assert [n for n in range(-5, 2 * 10**5) if is_prime(n)] == list(
            sympy.primerange(2 * 10**5))

    def test_is_prime_random_below_1e24(self):
        rng = random.Random(24)
        for n in (rng.randrange(10**24) for _ in range(20000)):
            assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [
        3215031751,                 # psi_4: strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,        # psi_11: to every prime base up to 31
        318665857834031151167461,   # psi_12: to every prime base up to 37, so needs 41
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not sympy.isprime(n)
        assert not is_prime(n)

    def test_refuses_at_the_bound(self):
        # psi_13 is composite but a strong pseudoprime to every base used
        assert not sympy.isprime(PRIMALITY_BOUND)
        assert is_prime(PRIMALITY_BOUND - 2) == sympy.isprime(PRIMALITY_BOUND - 2)
        with pytest.raises(ValueError, match="proven only below 3317044064679887385961981"):
            is_prime(PRIMALITY_BOUND)

    def test_next_prime(self):
        for n in list(range(-3, 3000)) + [10**12, 10**18]:
            assert next_prime(n) == sympy.nextprime(n), n

    def test_factor_divisors_mobius_up_to_1e5(self):
        mu = list(sympy.sieve.mobiusrange(1, 10**5 + 1))
        for n in range(1, 10**5 + 1):
            f = factor(n)
            assert f == sympy.factorint(n) and list(f) == sorted(f), n
            assert mobius(n) == mu[n - 1], n
            assert divisors(n) == sympy.divisors(n), n

    def test_factor_divisors_mobius_random_up_to_1e8(self):
        rng = random.Random(8)
        for n in [10**8, 99999989] + [rng.randint(1, 10**8) for _ in range(2000)]:
            assert factor(n) == sympy.factorint(n), n
            assert divisors(n) == sympy.divisors(n), n
            assert mobius(n) == int(sympy.mobius(n)), n

    def test_factor_rejects_non_positive(self):
        with pytest.raises(ValueError, match=r"factor\(n=0\)"):
            factor(0)


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
        s = F.elem(0, 1)
        assert s * s == F.elem(F.non_residue)

    def test_difference_of_squares(self):
        F = PrimeField(7)
        assert F.elem(1, 1) * F.elem(1, -1) == F.elem(5)  # 1 - 3 mod 7

    def test_inverse_examples(self):
        F = PrimeField(7)
        assert F.one.inverse() == F.one
        s = F.elem(0, 1)
        n_inv = pow(F.non_residue, 7 - 2, 7)
        assert s.inverse() == F.elem(0, n_inv)
        assert F.elem(2).inverse() == F.elem(4)

    @pytest.mark.parametrize("p", [5, 13, 179])
    def test_pair_inverse_of_zero_rejected(self, p):
        F = PrimeField(p)
        with pytest.raises(ZeroDivisionError, match=f"inverse of 0 in F_\\(p\\^2\\), p={p}"):
            _inv2(0, 0, p, F.non_residue)
        assert F.elem(*_inv2(3, 1, p, F.non_residue)) == F.elem(3, 1).inverse()

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
        if x.key() == (0, 0):
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
        conj = lambda u: F.elem(u.a, -u.b)
        assert conj(x * y) == conj(x) * conj(y)

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
        assert all(b != 0 for _, b in roots)  # -1 is a non-residue mod 179
        x, y = (F.elem(*r) for r in roots)
        assert x == -y
        assert x * x == y * y == F.elem(-1)

    def test_x2_minus_2_over_f49(self):
        F = PrimeField(7)
        roots = poly_roots(PolyOverFp2(F, [-2, 0, 1]))
        assert roots == [(3, 0), (4, 0)]

    def test_double_root(self):
        F = PrimeField(179)
        c = F.elem(5, 3)
        f = PolyOverFp2(F, [(c * c).key(), (-(c + c)).key(), 1])
        assert poly_roots(f) == [(5, 3), (5, 3)]

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(PolyOverFp2(PrimeField(7), []))

    def test_degree_cap(self):
        F = PrimeField(7)
        coeffs = [1] + [0] * 64 + [1]
        with pytest.raises(ValueError):
            poly_roots(PolyOverFp2(F, coeffs))

    def test_splitting_gives_up_on_irreducible_quadratic(self):
        # x^2 - t with t a non-square in F_{p^2} has no root there; the
        # splitting loop stops after its 2p distinct candidates
        p = 13
        F = PrimeField(p)
        assert len(set(_candidates(p))) == len(list(_candidates(p))) == 2 * p
        t = next(F.elem(a, b) for a, b in itertools.product(range(p), repeat=2)
                 if kronecker_symbol(a * a - F.non_residue * b * b, p) == -1)
        with pytest.raises(ArithmeticError, match=r"poly_roots\(p=13\).*degree-2"):
            _split_linear([(-t.a % p, -t.b % p), (0, 0), (1, 0)], p, F.non_residue)

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
            if poly_eval(f, F.elem(a, b)).key() == (0, 0):
                brute.add((a, b))
        assert set(roots) == brute
        assert len(roots) <= deg

    def test_exhaustive_evaluation_large_prime(self):
        p = 97
        F = PrimeField(p)
        f = PolyOverFp2(F, [(3, 5), (1, 0), (0, 2), (90, 13), (2, 2), (0, 0), (1, 0)])
        roots = poly_roots(f)
        brute = {
            (a, b)
            for a, b in itertools.product(range(p), repeat=2)
            if poly_eval(f, F.elem(a, b)).key() == (0, 0)
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
        combined = poly_roots(poly_mul(f, g))
        separate = sorted(poly_roots(f) + poly_roots(g))
        assert combined == separate


class TestSqrtFp2:
    @pytest.mark.parametrize("p", [13, 17, 19, 23])
    def test_every_element(self, p):
        # p = 13, 17 take Tonelli-Shanks (p - 1 = 12, 16: 2-adic depth 2 and 4),
        # p = 19, 23 the pow branch; b = 0 covers F_p residues and non-residues
        F = PrimeField(p)
        n = F.non_residue
        elements = list(itertools.product(range(p), repeat=2))
        squares = {(F.elem(*x) * F.elem(*x)).key() for x in elements}
        assert len(squares) == (p * p + 1) // 2
        for z in elements:
            if z in squares:
                r = F.elem(*_sqrt_fp2(z, p, n))
                assert (r * r).key() == z
            else:
                with pytest.raises(ArithmeticError, match="not a square"):
                    _sqrt_fp2(z, p, n)


class TestKnownRoot:
    @pytest.mark.parametrize("p", [5, 7])
    def test_every_split_cubic(self, p):
        # every multiset {u, r1, r2} of F_{p^2}: double and triple roots included
        F = PrimeField(p)
        elements = list(itertools.product(range(p), repeat=2))
        for u, r1, r2 in itertools.combinations_with_replacement(elements, 3):
            f = PolyOverFp2.from_roots(F, [u, r1, r2])
            f = poly_mul(f, PolyOverFp2(F, [(2, 1)]))
            assert poly_roots(f, known_root=u) == sorted([u, r1, r2])
            assert poly_roots(f, known_root=r2) == sorted([u, r1, r2])

    def test_quartic_splits_the_cubic_left(self):
        F = PrimeField(179)
        roots = [(3, 4), (3, 4), (100, 0), (7, 170)]
        f = PolyOverFp2.from_roots(F, roots)
        assert poly_roots(f, known_root=roots[2]) == poly_roots(f) == sorted(roots)

    def test_unknown_root_rejected(self):
        F = PrimeField(179)
        f = PolyOverFp2.from_roots(F, [(1, 0), (2, 0), (3, 0)])
        with pytest.raises(ArithmeticError, match="is not a root"):
            poly_roots(f, known_root=(4, 0))
        with pytest.raises(ArithmeticError, match="is not a root"):
            poly_roots(PolyOverFp2(F, [5]), known_root=(4, 0))
        assert poly_roots(PolyOverFp2(F, [3, 1]), known_root=(176, 0)) == [(176, 0)]

    def test_non_square_discriminant_rejected(self):
        # X^2 - s has no root in F_{p^2}: s is not a square there
        F = PrimeField(13)
        f = poly_mul(PolyOverFp2.from_roots(F, [(1, 0)]), PolyOverFp2(F, [(0, -1), 0, 1]))
        with pytest.raises(ArithmeticError, match="not a square"):
            poly_roots(f, known_root=(1, 0))


def _cubic(F, c2, c1, c0):
    """The monic cubic X^3 + c2 X^2 + c1 X + c0, coefficients ints or elements."""
    return [(F.zero + x).key() for x in (c0, c1, c2)] + [(1, 0)]


def _phi2(p, j):
    """Phi_2(X, j) mod p as a coefficient pair list."""
    rows = reduce_mod_p(resolve_modular_polynomial(2, None), p)
    return instantiate(rows, (j % p, 0), p, PrimeField(p).non_residue)


class TestCubeRoot:
    @pytest.mark.parametrize("p,v3", [(109, 3), (163, 4)])
    def test_every_element(self, p, v3):
        # p^2 - 1 = 3^v3 m: the 3-Sylow discrete log takes v3 - 1 digits
        assert (p * p - 1) % 3**v3 == 0 and (p * p - 1) % 3 ** (v3 + 1)
        F = PrimeField(p)
        elements = list(itertools.product(range(p), repeat=2))
        roots = {z: _cube_root(z, p, F.non_residue) for z in elements}
        found = {z for z, r in roots.items() if r is not None}
        assert len(found) == (p * p - 1) // 3 + 1
        assert found == {(F.elem(*x) ** 3).key() for x in elements}
        assert all((F.elem(*roots[z]) ** 3).key() == z for z in found)


class TestCubicRoots:
    def test_double_root_at_1728_over_179(self):
        # Phi_2(X, 1728) = (X - 1728)(X - 287496)^2, the seed cubic at p = 179:
        # 1728 = 117 and 287496 = 22 mod 179
        roots = _cubic_roots(_phi2(179, 1728), 179, PrimeField(179).non_residue)
        assert sorted(roots) == [(22, 0), (22, 0), (117, 0)]

    def test_triple_root_at_0_over_1013(self):
        # Phi_2(X, 0) = (X - 54000)^3, the seed cubic at p = 1013: P = Q = 0
        # makes both signs of u^3 zero; 54000 = 311 mod 1013
        c = _phi2(1013, 0)
        assert c == _cubic(PrimeField(1013), -3 * 54000, 3 * 54000**2, -54000**3)
        assert _cubic_roots(c, 1013, PrimeField(1013).non_residue) == [(311, 0)] * 3

    @pytest.mark.parametrize("p", [13, 179])
    def test_pure_cubics_take_either_sign(self, p):
        # X^3 - a has P = 0: its roots are the cube roots of a, and the
        # first u^3 = a/2 + sqrt(a^2/4) is 0 whenever that root is -a/2
        F = PrimeField(p)
        n = F.non_residue
        first_zero = 0
        for a in itertools.product(range(1, p), range(3)):
            c = _cubic(F, 0, 0, F.elem(0) - F.elem(*a))
            half = F.elem(*a) / 2
            first_zero += (F.elem(*_sqrt_fp2((half * half).key(), p, n)) == -half)
            roots = _cubic_roots(c, p, n)
            if _cube_root(a, p, n) is None:
                assert roots is None
            else:
                assert len(roots) == 3 and all((F.elem(*r) ** 3).key() == a for r in roots)
                assert sorted(roots) == _roots_internal(c, p, n)
        assert 0 < first_zero < 3 * (p - 1)

    def test_one_root_and_no_root_fall_back(self):
        # (X - 2)(X^2 - t) for a non-square t, and X^3 - g for a non-cube g
        # plus cubics with P != 0 and no root: _cubic_roots refuses them and
        # poly_roots finds what brute-force evaluation finds
        p = 13
        F = PrimeField(p)
        n = F.non_residue
        elements = list(itertools.product(range(p), repeat=2))
        t = next(z for z in elements if kronecker_symbol(z[0] ** 2 - n * z[1] ** 2, p) == -1)
        g = next(z for z in elements if z != (0, 0) and _cube_root(z, p, n) is None)
        one_root = poly_mul(PolyOverFp2(F, [(-2, 0), 1]), PolyOverFp2(F, [(-t[0], -t[1]), 0, 1]))
        cases = [one_root, PolyOverFp2(F, [(-g[0], -g[1]), 0, 0, 1])]
        rng = random.Random(13)
        while len(cases) < 6:
            f = PolyOverFp2(F, [(rng.randrange(p), rng.randrange(p)) for _ in range(3)] + [1])
            if not any(poly_eval(f, F.elem(*x)).key() == (0, 0) for x in elements):
                cases.append(f)
        for f in cases:
            assert _cubic_roots(list(f.coeff_pairs()), p, n) is None
            brute = [x for x in elements if poly_eval(f, F.elem(*x)).key() == (0, 0)]
            assert poly_roots(f) == brute
        assert poly_roots(one_root) == [(2, 0)]

    def test_every_monic_cubic_over_f25(self):
        p = 5
        F = PrimeField(p)
        n = F.non_residue
        elements = list(itertools.product(range(p), repeat=2))
        powers = [(x, (F.elem(*x) ** 2).key(), (F.elem(*x) ** 3).key()) for x in elements]
        split = 0
        for c0, c1, c2 in itertools.product(elements, repeat=3):
            # x^3 + c2 x^2 + c1 x + c0 = 0, both coordinates, on (a, b) pairs
            zeros = [x for (x, x2, x3) in powers
                     if (x3[0] + c2[0] * x2[0] + n * c2[1] * x2[1] + c1[0] * x[0]
                         + n * c1[1] * x[1] + c0[0]) % p == 0
                     and (x3[1] + c2[0] * x2[1] + c2[1] * x2[0] + c1[0] * x[1]
                          + c1[1] * x[0] + c0[1]) % p == 0]
            f = PolyOverFp2(F, [c0, c1, c2, 1])
            rebuilt = [r for r in itertools.combinations_with_replacement(zeros, 3)
                       if PolyOverFp2.from_roots(F, r) == f]
            roots = _cubic_roots([c0, c1, c2, (1, 0)], p, n)
            if rebuilt:
                assert sorted(roots) == list(rebuilt[0])
                split += 1
            else:
                assert roots is None
        # one split cubic per multiset of three roots from F_25
        assert split == 25 * 26 * 27 // 6
