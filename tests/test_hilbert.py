import itertools
import time

import mpmath as mp
import pytest

from isocycles import hilbert, quadform, ssgraph
from isocycles.ff import PolyOverFp2, PrimeField, _deflate, kronecker_symbol, poly_roots
from isocycles.hilbert import (
    hilbert_class_poly,
    hilbert_mod_p,
    j_evaluate,
    locate_rim_vertices,
)
from isocycles.ordercount import enumerate_orders
from isocycles.quadform import class_number, reduced_forms
from isocycles.ssgraph import build_graph, vertex_count_formula
from oracles import rims_on_ell_graph

SINGLETON_CLASS_POLYS = {
    -3: (0, 1),
    -4: (-1728, 1),
    -7: (3375, 1),
    -8: (-8000, 1),
    -11: (32768, 1),
    -12: (-54000, 1),
    -16: (-287496, 1),
    -19: (884736, 1),
    -27: (12288000, 1),
    -28: (-16581375, 1),
    -43: (884736000, 1),
}


def e4_and_eta_product(tau, precision):
    """q = exp(2 pi i tau), E4 and prod (1 - q^n) from their q-series."""
    q = mp.expjpi(2 * tau)
    absq = abs(q)
    lam = -mp.ln(absq)
    target = (precision + 16) * mp.ln(2)
    n_terms = 16
    while n_terms * lam < target + mp.ln(240) + 4 * mp.ln(n_terms) - mp.ln(1 - absq):
        n_terms += 8
    e4 = eta = mp.mpc(1)
    qn = q
    for n in range(1, n_terms + 1):
        e4 += 240 * n**3 * qn / (1 - qn)
        eta *= 1 - qn
        qn *= q
    return q, e4, eta


def e4_delta_j(tau, precision):
    """j = E4^3 / Delta from the Eisenstein and discriminant q-series."""
    q, e4, eta = e4_and_eta_product(tau, precision)
    return e4**3 / (q * eta**24)


def e4_eta8(tau, precision):
    """gamma_2 = E4 / eta^8, eta^8 = exp(2 pi i tau / 3) prod (1 - q^n)^8."""
    _, e4, eta = e4_and_eta_product(tau, precision)
    return e4 / (mp.expjpi(2 * tau / 3) * eta**8)


def e4_delta_class_poly(D):
    """H_D expanded over every reduced form in complex arithmetic."""
    forms = reduced_forms(D)
    precision = hilbert._precision_for(forms, 1)
    with mp.workprec(precision + 48):
        coeffs = [mp.mpc(1)]
        for a, b, _ in forms:
            root = e4_delta_j((-b + mp.sqrt(mp.mpc(D))) / (2 * a), precision)
            coeffs = [mp.mpc(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= root * coeffs[i + 1]
        rounded = tuple(int(mp.nint(mp.re(c))) for c in coeffs)
        residual = max(max(abs(mp.re(c) - r), abs(mp.im(c))) for c, r in zip(coeffs, rounded))
    assert residual < 0.25, (D, residual)
    return rounded


# the orders the benchmark's rims-locate workload locates: every order listed
# at its own level at (179, 2, r = 3..9) and (1009, 3, r = 3)
RIMS_LOCATE_DISCS = [
    -2039, -1967, -1879, -1687, -1519, -1319, -1087, -975, -959, -943, -855,
    -823, -799, -735, -679, -663, -583, -527, -511, -503, -487, -367, -295,
    -287, -255, -247, -231, -199, -183, -151, -135, -107, -104, -95, -92, -87,
    -83, -59, -47, -44, -39, -31, -23,
]

# orders listed at their own level in the ell-graph comparison, 117 in all
CORPUS_ORDERS = {(179, 3): 49, (613, 3): 13, (1009, 3): 12, (3361, 2): 11,
                 (13, 2): 5, (37, 3): 27}

# locate_rim_vertices at (179, 2) for the two orders with the largest class
# number, 45, listed at level 9: each cycle as its vertex labels
PINNED_CYCLES_179 = {
    -1319: [
        "5+10*s 61 5+169*s 107+102*s 109+16*s 109+163*s 171 120 140",
        "5+10*s 61 5+169*s 140 120 171 109+16*s 109+163*s 107+77*s",
        "5+10*s 61 121 112 35 112 35 120 140",
        "5+169*s 61 121 112 35 112 35 120 140",
        "22 107+77*s 109+163*s 171 109+16*s 107+102*s 22 117 117",
    ],
    -2039: [
        "0 121 61 5+10*s 140 120 35 112 121",
        "0 121 61 5+169*s 140 120 35 112 121",
        "5+10*s 61 5+169*s 107+102*s 22 117 117 22 107+77*s",
        "5+10*s 107+77*s 109+163*s 171 109+16*s 109+163*s 171 120 140",
        "5+169*s 107+102*s 109+16*s 171 109+163*s 109+16*s 171 120 140",
    ],
}

# (p, ell, levels): locate for every order listed at its own level prints
# 228 cycles here; the rims-locate orders, and p = 409, 613, 1009 at ell = 2
TURN_SWEEP = [(179, 2, range(3, 10)), (1009, 3, range(3, 4)), (409, 2, range(3, 9)),
              (613, 2, range(3, 9)), (37, 3, range(3, 6)), (1009, 2, range(3, 9))]


def j_at(form, precision):
    """j_evaluate at the form with pi and ln 2 for that precision."""
    return j_evaluate(form, precision, hilbert._constants(precision))


def as_mpc(z, precision):
    """A fixed-point j-value from j_evaluate as an mpmath complex."""
    bits = precision + hilbert._GUARD_BITS
    return mp.mpc(mp.ldexp(z[0], -bits), mp.ldexp(z[1], -bits))


def cm_point(form):
    """The root (-b + i sqrt|D|) / 2a of the form in the upper half plane."""
    a, b, c = form
    return mp.mpc(-b, mp.sqrt(4 * a * c - b * b)) / (2 * a)


# reduced and unreduced forms; the unreduced ones put tau off the
# fundamental domain, and their images below bring Im tau down to 0.33
CM_FORMS = [(1, 0, 1), (2, 1, 3), (3, 2, 4), (5, 3, 7), (4, 4, 5), (7, 6, 11),
            (2, 5, 4), (9, 7, 3), (6, -11, 7), (11, 3, 2)]


class TestJEvaluate:
    def test_j_of_i_is_1728(self):
        with mp.workprec(256):
            val = as_mpc(j_at((1, 0, 1), 128), 128)
            assert abs(val - 1728) < mp.mpf(2) ** -100

    def test_j_of_zeta3_is_0(self):
        with mp.workprec(256):
            assert abs(as_mpc(j_at((1, 1, 1), 128), 128)) < mp.mpf(2) ** -40

    def test_j_of_2i(self):
        with mp.workprec(256):
            val = as_mpc(j_at((1, 0, 4), 128), 128)
            assert abs(val - 66**3) < mp.mpf(2) ** -80

    def test_inverse_form_gives_the_conjugate(self):
        # _expand_at evaluates (a, b, c) for (a, -b, c) too
        for a, b, c in CM_FORMS:
            x = j_at((a, b, c), 96)
            y = j_at((a, -b, c), 96)
            with mp.workprec(400):
                x, y = as_mpc(x, 96), as_mpc(y, 96)
                assert abs(x - mp.conj(y)) < mp.mpf(2) ** -80 * max(1, abs(x)), (a, b, c)

    def test_rejects_excessive_precision(self):
        # refused before the constants are read
        with pytest.raises(ValueError):
            j_evaluate((1, 0, 1), 10**5, None)

    def test_periodicity_and_modularity(self):
        # tau -> tau - 1 is the form (a, b + 2a, .) and tau -> -1/tau the
        # form (c, -b, a); both leave j unchanged
        for form in CM_FORMS:
            a, b, c = form
            shifted = (a, b + 2 * a, a + b + c)
            inverted = (c, -b, a)
            with mp.workprec(400):
                j = as_mpc(j_at(form, 96), 96)
                for other in (shifted, inverted):
                    err = abs(as_mpc(j_at(other, 96), 96) - j)
                    assert err < mp.mpf(2) ** -80 * max(1, abs(j)), (form, other)

    def test_matches_mpmath_kleinj(self):
        for form in CM_FORMS:
            with mp.workprec(240):
                expected = 1728 * mp.kleinj(cm_point(form))
                got = as_mpc(j_at(form, 120), 120)
                assert abs(got - expected) < mp.mpf(2) ** -100 * max(1, abs(expected)), form

    def test_relative_error_near_2_to_the_minus_bits_where_w_is_large(self):
        # |w| = |1/q| reaches 2^1433 at the principal forms of D near -10^5,
        # and j's relative error stays within 2^16 units of 2^-bits there
        for form, precision in [((1, 1, 24997), 1500), ((1, 0, 25000), 1500),
                                ((2, 1, 12499), 800)]:
            bits = precision + hilbert._GUARD_BITS
            with mp.workprec(bits + 128):
                expected = 1728 * mp.kleinj(cm_point(form))
                err = abs(as_mpc(j_at(form, precision), precision) - expected)
                assert err < mp.mpf(2) ** (16 - bits) * abs(expected), form

    def test_pentagonal_series_is_bounded_at_the_corner(self):
        # (182, 181, 182) has a = c and the largest a for D = -99735: its
        # root is on the edge of the fundamental domain next to rho, so its
        # |q| is near the largest any reduced form has, exp(-pi sqrt 3).  At
        # the precision cap the series stops after the count fixed up front,
        # the least count whose tail bound holds
        form = (182, 181, 182)
        bits = hilbert.MAX_PRECISION_BITS + hilbert._GUARD_BITS
        n_terms, e_max = hilbert._pentagonal_length(form, bits)
        with mp.workprec(bits + 64):
            absq = mp.exp(-mp.pi * mp.sqrt(99735) / 182)
            assert absq ** e_max / (1 - absq) <= mp.mpf(2) ** -bits
        assert n_terms * (3 * n_terms - 1) / 2 < e_max <= (n_terms + 1) * (3 * n_terms + 2) / 2
        assert n_terms == 26
        start = time.monotonic()
        z = j_at(form, hilbert.MAX_PRECISION_BITS)
        assert time.monotonic() - start < 30
        with mp.workprec(bits + 64):
            expected = 1728 * mp.kleinj(cm_point(form))
            assert abs(as_mpc(z, hilbert.MAX_PRECISION_BITS) - expected) < mp.mpf(2) ** -8000


class TestClassPoly:
    @pytest.mark.parametrize("disc,coeffs", sorted(SINGLETON_CLASS_POLYS.items()))
    def test_small_discriminants(self, disc, coeffs):
        assert hilbert_class_poly(disc).coefficients == coeffs

    def test_minus_15_classical_value(self):
        assert hilbert_class_poly(-15).coefficients == (-121287375, 191025, 1)

    def test_minus_23_classical_value(self):
        assert hilbert_class_poly(-23).coefficients == (
            12771880859375, -5151296875, 3491750, 1)

    def test_matches_e4_delta_expansion_up_to_500(self):
        # the eta quotient with conjugate pairing against E4^3 / Delta over
        # every form, at the same working precision
        for n in range(3, 501):
            if -n % 4 in (0, 1):
                assert hilbert_class_poly(-n).coefficients == e4_delta_class_poly(-n), -n

    def test_matches_e4_delta_expansion_on_rims_locate_discriminants(self):
        for D in RIMS_LOCATE_DISCS:
            assert hilbert_class_poly(D).coefficients == e4_delta_class_poly(D), D

    @pytest.mark.parametrize("disc", [-19999, -99987])
    def test_matches_e4_delta_expansion_at_large_discriminant(self, disc):
        assert hilbert_class_poly(disc).coefficients == e4_delta_class_poly(disc)

    def test_residual_is_honest_at_half_precision(self):
        # at half the bits the height asks for, the coefficients are wrong
        # and the residual must say so: on the gamma_2 route at -2039 and on
        # the j route at -975, where 3 divides D
        for disc, root in [(-2039, 3), (-975, 1)]:
            forms = reduced_forms(disc)
            precision = hilbert._precision_for(forms, root) // 2
            _, residual = hilbert._expand_at(forms, precision, root)
            assert residual >= 0.25, disc

    def test_residual_counts_im_j_at_the_real_forms(self, monkeypatch):
        # the forms with b = 0, b = a or a = c have real j; an imaginary part
        # there is an error even when every coefficient rounds cleanly
        j_exact = hilbert.j_evaluate

        def tilted(form, precision, constants):
            re, im = j_exact(form, precision, constants)
            if form[0] == 1:  # the principal form (1, 1, 18)
                im += 1 << (precision + hilbert._GUARD_BITS - 1)  # + i / 2
            return re, im

        monkeypatch.setattr(hilbert, "j_evaluate", tilted)
        forms = reduced_forms(-71)
        coeffs, residual = hilbert._expand_at(forms, hilbert._precision_for(forms, 1), 1)
        assert tuple(coeffs) == e4_delta_class_poly(-71)
        assert 0.5 <= residual < 0.5001

    @pytest.mark.parametrize("disc", [-31, -47, -231, -255, -964, -1003, -2999])
    def test_degree_equals_class_number(self, disc):
        poly = hilbert_class_poly(disc)
        assert poly.degree == class_number(disc)
        assert poly.coefficients[-1] == 1

    def test_cap(self):
        with pytest.raises(ValueError, match=r"^hilbert_class_poly\(D=-100003\): "
                           r"\|D\| = 100003 exceeds cap 100000$"):
            hilbert_class_poly(-(10**5 + 3))
        # over Discriminant's own 10^8 cap too, but this cap is checked first
        with pytest.raises(ValueError, match=r"^hilbert_class_poly\(D=-100000004\): "
                           r"\|D\| = 100000004 exceeds cap 100000$"):
            hilbert_class_poly(-100000004)

    def test_over_precision_cap_refused_before_any_j_evaluation(self, monkeypatch):
        # |D| = 99999 is within the discriminant cap, but 3 divides it, so its
        # class polynomial is computed from j, and its 224 reduced forms need
        # 10275 bits, over the 8192-bit precision cap
        def forbidden(*args):
            raise AssertionError("evaluated before the refusal")

        monkeypatch.setattr(hilbert, "j_evaluate", forbidden)
        monkeypatch.setattr(hilbert, "_gamma2_evaluate", forbidden)
        with pytest.raises(ValueError, match=r"hilbert_class_poly\(D=-99999\): "
                           r"needs 10275 bits, over the cap 8192"):
            hilbert_class_poly(-99999)

    def test_gamma2_admits_minus_99991_and_deuring_certifies_it(self):
        # by j, -99991 would need 10115 bits, over the cap; by gamma_2 it
        # needs 3415.  At p = 613, inert in Q(sqrt(-99991)), every root of
        # H mod p is supersingular, so H mod p deflates to 1 over the
        # vertices of the ell = 2 graph
        assert hilbert._precision_for(reduced_forms(-99991), 1) == 10115
        assert hilbert._precision_for(reduced_forms(-99991), 3) == 3415
        p = 613
        assert kronecker_symbol(-99991, p) == -1
        poly = hilbert_class_poly(-99991)
        assert poly.degree == class_number(-99991) == 205
        graph = build_graph(p, 2)
        c = list(hilbert_mod_p(-99991, graph.field).coeff_pairs())
        roots = 0
        for v in graph.vertices:
            m, c = _deflate(c, v.key(), p, graph.field.non_residue)
            roots += m
        assert c == [(1, 0)] and roots == 205

    @pytest.mark.parametrize("start,tried", [(500, [500, 1000, 2000, 4000]),
                                             (3000, [3000, 6000])])
    def test_residual_retries_end_with_named_error(self, monkeypatch, start, tried):
        # doublings stop after three retries or at the precision cap
        used = []

        def noisy(forms, precision, root):
            used.append(precision)
            return [0] * (len(forms) + 1), 0.5

        monkeypatch.setattr(hilbert, "_precision_for", lambda forms, root: start)
        monkeypatch.setattr(hilbert, "_expand_at", noisy)
        with pytest.raises(ArithmeticError, match=rf"^hilbert_class_poly\(D=-71\): "
                           rf"rounding residual 0.5 at {tried[-1]} bits"):
            hilbert_class_poly(-71)
        assert used == tried


def form_with_3_coprime_a_and_3_dividing_b(form):
    """An equivalent form (A, B, C) with 3 not dividing A and 3 dividing B.

    Found by search over the unimodular substitutions x -> p x + q y,
    y -> r x + s y with entries in [-2, 2], independently of _gamma2_twist.
    """
    a, b, c = form
    for p, q, r, s in itertools.product(range(-2, 3), repeat=4):
        A = a * p * p + b * p * r + c * r * r
        B = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
        if p * s - q * r == 1 and A % 3 and B % 3 == 0:
            return A, B, a * q * q + b * q * s + c * s * s
    raise AssertionError(form)


def poly_from_roots(roots):
    """The monic integer polynomial with the given roots, lowest degree first."""
    poly = [1]
    for x in roots:
        poly = [0] + poly
        for i in range(len(poly) - 1):
            poly[i] -= x * poly[i + 1]
    return poly


# below 2100, 3 does not divide 700 of the 1049 discriminants
GAMMA2_DISCS = [-n for n in range(3, 2100) if -n % 4 in (0, 1) and n % 3]


class TestGamma2:
    def test_matches_e4_over_eta8_at_an_equivalent_form(self):
        # the value for a form is gamma_2 = E4 / eta^8 at the root of an
        # equivalent form with 3 not dividing A and 3 dividing B; the
        # search covers every case of the twist: 3 dividing a alone, a and c
        # both (3, 1, 3), (9, 7, 3), and neither
        for form in CM_FORMS + [(3, 1, 3), (3, 2, 5), (3, -1, 8), (6, 5, 6)]:
            other = form_with_3_coprime_a_and_3_dividing_b(form)
            with mp.workprec(400):
                expected = e4_eta8(cm_point(other), 200)
                got = as_mpc(hilbert._gamma2_evaluate(form, 120, hilbert._constants(120)), 120)
                assert abs(got - expected) < mp.mpf(2) ** -100 * abs(expected), (form, other)

    def test_cubed_roots(self):
        # gamma_2(i) = 12 and gamma_2((1 + sqrt(-7)) / 2) = -15
        assert hilbert._cubed_roots([-12, 1]) == [-1728, 1]
        assert hilbert._cubed_roots([15, 1]) == [3375, 1]
        for roots in [(2,), (2, -3), (2, -3, 5), (1, 2, -3, 5, 7), (0, -1, 4, 4, 6, -2, 9)]:
            assert (hilbert._cubed_roots(poly_from_roots(roots))
                    == poly_from_roots([x ** 3 for x in roots])), roots

    def test_route_agrees_with_j_below_2100(self):
        # every D with 3 <= |D| < 2100 that 3 does not divide, both routes
        # through _expand_at, each at the bits its height asks for
        assert len(GAMMA2_DISCS) == 700
        for disc in GAMMA2_DISCS:
            forms = reduced_forms(disc)
            by_j, res_j = hilbert._expand_at(forms, hilbert._precision_for(forms, 1), 1)
            by_g, res_g = hilbert._expand_at(forms, hilbert._precision_for(forms, 3), 3)
            assert by_g == by_j and res_j < 0.25 and res_g < 0.25, disc
            assert hilbert_class_poly(disc).coefficients == tuple(by_g), disc

    @pytest.mark.parametrize("disc", [-19999, -20011, -40003, -99995])
    def test_route_agrees_with_j_at_large_discriminant(self, disc):
        forms = reduced_forms(disc)
        by_j, res_j = hilbert._expand_at(forms, hilbert._precision_for(forms, 1), 1)
        assert res_j < 0.25
        assert hilbert_class_poly(disc).coefficients == tuple(by_j)

    @pytest.mark.parametrize("disc", [-35, -56, -95])
    def test_wrong_cube_root_of_unity_fails(self, monkeypatch, disc):
        # one conjugate off by a cube root of unity, at a real form (b = 0,
        # b = a or a = c) or at a conjugate pair: the residual stays at or
        # above 0.25 through every retry, and the named error says so
        twist = hilbert._gamma2_twist
        for wrong in reduced_forms(disc):
            if wrong[1] < 0:
                continue
            for off in (1, 2):
                monkeypatch.setattr(hilbert, "_gamma2_twist", lambda form, w=wrong, o=off:
                                    (twist(form) + o * (form == w)) % 3)
                with pytest.raises(ArithmeticError, match=rf"^hilbert_class_poly\(D={disc}\): "
                                   r"rounding residual \S+ at \d+ bits is not below 0.25$"):
                    hilbert_class_poly(disc)
        monkeypatch.setattr(hilbert, "_gamma2_twist", twist)
        assert hilbert_class_poly(disc).coefficients == e4_delta_class_poly(disc)


class TestModP:
    def test_minus_4_mod_179(self):
        F = PrimeField(179)
        f = hilbert_mod_p(-4, F)
        assert f == PolyOverFp2(F, [-1728, 1])
        assert F.elem(-1728) == F.elem(62)  # -117 mod 179

    def test_minus_31_roots_are_the_3_cycle(self, g179):
        F = g179.field
        roots = poly_roots(hilbert_mod_p(-31, F))
        i = F.elem(*poly_roots(PolyOverFp2(F, [1, 0, 1]))[0])
        j3 = F.elem(109) + F.elem(5) * i
        expected = {(171, 0), j3.key(), (j3.a, -j3.b % 179)}
        assert set(roots) == expected

    def test_minus_39_contains_61_and_140(self):
        F = PrimeField(179)
        from isocycles.ff import poly_roots

        roots = set(poly_roots(hilbert_mod_p(-39, F)))
        assert (61, 0) in roots and (140, 0) in roots


class TestLocate:
    def test_3_cycle_of_minus_31(self):
        cycles = locate_rim_vertices(-31, 179, 2, modpoly_dir=None)
        assert len(cycles) == 1
        labels = {str(v) for v in cycles[0]}
        assert labels == {"171", "109+16*s", "109+163*s"}

    def test_5_cycle_of_minus_47(self):
        (cycle,) = locate_rim_vertices(-47, 179, 2, modpoly_dir=None)
        assert len(cycle) == 5
        assert {str(v) for v in cycle} == {
            "22", "107+77*s", "107+102*s", "109+16*s", "109+163*s"
        }

    def test_conjugate_pair_of_minus_231(self):
        cycles = locate_rim_vertices(-231, 179, 2, modpoly_dir=None)
        assert len(cycles) == 2
        sets = [frozenset(str(v) for v in c) for c in cycles]
        assert sets[0] != sets[1]
        conj = {frozenset(s.replace("16*s", "X").replace("163*s", "16*s").replace("X", "163*s")
                          .replace("77*s", "Y").replace("102*s", "77*s").replace("Y", "102*s")
                          .replace("10*s", "Z").replace("169*s", "10*s").replace("Z", "169*s")
                          for s in sets[0])}
        assert sets[1] in conj

    def test_repeated_vertex_cycle_of_minus_247(self):
        (cycle,) = locate_rim_vertices(-247, 179, 2, modpoly_dir=None)
        multiset = sorted(str(v) for v in cycle)
        assert multiset == ["0", "112", "112", "121", "121", "35"]

    def test_split_prime_rejected(self):
        # 179 splits in Q(sqrt(-23)): the class polynomial roots are ordinary
        with pytest.raises(ValueError, match="splits in the field"):
            locate_rim_vertices(-23, 179, 2, modpoly_dir=None)

    def test_nonsplit_ell_rejected(self):
        # 2 is inert in Q(sqrt(-3)) and ramified in Q(sqrt(-5))
        with pytest.raises(ValueError, match="does not split"):
            locate_rim_vertices(-3, 179, 2, modpoly_dir=None)
        with pytest.raises(ValueError, match="does not split"):
            locate_rim_vertices(-20, 179, 2, modpoly_dir=None)

    def test_over_degree_cap_refused_before_class_poly(self, monkeypatch):
        # h(-7831) = 66 is over the root-finding cap of 64
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the refusal")

        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        monkeypatch.setattr(hilbert, "hilbert_class_poly", forbidden)
        with pytest.raises(ValueError, match=r"^locate_rim_vertices\(D=-7831, p=3361, ell=2\): "
                           r"class number h\(-7831\) = 66 exceeds the root-finding degree cap 64$"):
            locate_rim_vertices(-7831, 3361, 2, modpoly_dir=None)

    @pytest.mark.parametrize("p,ell,disc,message", [
        (10009, 3, -20, "p=10009 splits in the field of discriminant -20"),
        (179, 2, -3, "2 does not split in discriminant -3"),
        (13, 2, -1183, "p=13 divides the conductor of -1183"),
        (179, 5, -31, "level 5 is not embedded and no modular polynomial directory given"),
        # h(-100787) = 51, 3 splits, 150001 is inert: only the cap refuses it
        (150001, 3, -100787, "|D| = 100787 exceeds cap 100000"),
        # h(-99999999) = 6976 is over the root-finding cap too
        (179, 2, -99999999, "|D| = 99999999 exceeds cap 100000"),
        # and over Discriminant's 10^8 cap: the same refusal, before factoring
        (179, 2, -100000004, "|D| = 100000004 exceeds cap 100000"),
    ])
    def test_input_refusals_before_any_work(self, monkeypatch, p, ell, disc, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the refusal")

        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        monkeypatch.setattr(hilbert, "hilbert_class_poly", forbidden)
        if message.startswith("|D|"):  # the |D| cap comes before the class number
            monkeypatch.setattr(quadform, "class_number", forbidden)
        with pytest.raises(ValueError) as exc:
            locate_rim_vertices(disc, p, ell, modpoly_dir=None)
        assert str(exc.value).startswith(
            f"locate_rim_vertices(D={disc}, p={p}, ell={ell}): {message}")

    def test_threading_of_every_order_at_179(self, g179):
        F = g179.field
        seen = 0
        for r in range(3, 10):
            for rec in enumerate_orders(r, 179, 2):
                D = rec.discriminant.value
                cycles = locate_rim_vertices(D, 179, 2, modpoly_dir=None)
                assert len(cycles) == rec.h // r and all(len(c) == r for c in cycles), D
                for cyc in cycles:
                    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                        i, j = g179.vertex_index[u], g179.vertex_index[v]
                        assert g179.adjacency[i].get(j, 0) > 0, (D, u, v)
                vertices = sorted(v.key() for cyc in cycles for v in cyc)
                assert vertices == poly_roots(hilbert_mod_p(D, F)), D
                if D in PINNED_CYCLES_179:
                    seen += 1
                    assert [" ".join(map(str, c)) for c in cycles] == PINNED_CYCLES_179[D]
        assert seen == len(PINNED_CYCLES_179)

    def test_printed_cycles_do_not_backtrack(self):
        # a turn u -> v -> u (a loop taken twice when u = v) needs two edges
        # from v to u in the ell-graph; the rule is not checked where v is
        # j = 0 or 1728
        printed = 0
        for p, ell, levels in TURN_SWEEP:
            g = build_graph(p, ell)
            exempt = {g.vertex_index.get(g.field.elem(j)) for j in (0, 1728)}
            for r in levels:
                for rec in enumerate_orders(r, p, ell):
                    if rec.l_order != r:
                        continue
                    D = rec.discriminant.value
                    cycles = locate_rim_vertices(D, p, ell, modpoly_dir=None)
                    for cyc in cycles:
                        c = [g.vertex_index[v] for v in cyc]
                        for t in range(r):
                            u, v, w = c[t - 2], c[t - 1], c[t]
                            assert g.adjacency[v].get(w, 0) > 0, (p, ell, D, cyc)
                            assert w != u or v in exempt or g.adjacency[v][u] >= 2, \
                                (p, ell, D, cyc)
                    printed += len(cycles)
        assert printed == 228

    @pytest.mark.parametrize("D,p,expected", [
        # the closing turn 121 -> 361 -> 121 of the walk
        # (121, 161+159*s, 207+292*s, 207+117*s, 161+250*s, 121, 361) crosses
        # the single edge 121-361, so it is not printed
        (-503, 409, ["0+52*s 59+228*s 207+292*s 161+159*s 121 361 216+54*s",
                     "0+357*s 59+181*s 207+117*s 161+250*s 121 361 216+355*s",
                     "80+190*s 80+219*s 201+186*s 380+134*s 340 380+275*s 201+223*s"]),
        # nor (109+16*s, 109+163*s, 171, 120, 140, 120, 171), whose turn
        # 120 -> 140 -> 120 crosses the single edge 120-140
        (-511, 179, ["5+10*s 107+77*s 109+163*s 109+16*s 171 120 140",
                     "5+169*s 107+102*s 109+16*s 109+163*s 171 120 140"]),
    ])
    def test_backtracking_walks_replaced(self, D, p, expected):
        cycles = locate_rim_vertices(D, p, 2, modpoly_dir=None)
        assert [" ".join(map(str, c)) for c in cycles] == expected

    def test_errors_name_stage_and_inputs(self):
        with pytest.raises(ValueError, match=r"^locate_rim_vertices\(D=-23, p=179, ell=2\): "
                           r".*splits in the field"):
            locate_rim_vertices(-23, 179, 2, modpoly_dir=None)

    @pytest.mark.parametrize("p,ell,levels", [
        (179, 3, range(3, 7)), (613, 3, range(3, 5)), (1009, 3, range(3, 5)),
        (3361, 2, range(3, 7)), (13, 2, range(3, 6)), (37, 3, range(3, 6)),
    ])
    def test_matches_ell_graph_route(self, p, ell, levels):
        # roots by deflation over the ell = 2 vertex set and adjacency from
        # Phi_ell(u, v) = 0 give the cycles of the general splitting on the
        # ell-graph, for every order listed at its own level
        ell_graph = build_graph(p, ell)
        seen = 0
        for r in levels:
            for rec in enumerate_orders(r, p, ell):
                if rec.l_order != r:
                    continue
                D = rec.discriminant.value
                assert (locate_rim_vertices(D, p, ell, modpoly_dir=None)
                        == rims_on_ell_graph(D, ell_graph)), D
                seen += 1
        assert seen == CORPUS_ORDERS[(p, ell)]

    def test_changed_coefficient_fails_the_split_certificate(self, monkeypatch):
        # H_{-47} mod 179 deflates to 1 over the 16 supersingular j; moving
        # any one coefficient by 1 leaves a factor without supersingular roots
        true_poly = hilbert_class_poly(-47)
        for k in range(true_poly.degree):
            coeffs = list(true_poly.coefficients)
            coeffs[k] += 1
            mutant = hilbert.ClassPolynomial(tuple(coeffs))
            monkeypatch.setattr(hilbert, "hilbert_class_poly", lambda D: mutant)
            with pytest.raises(ValueError, match=r"^locate_rim_vertices\(D=-47, p=179, ell=2\): "
                               r"H_-47 mod 179 keeps a factor of degree \d+ .*"
                               r"fails the nonsplit condition$"):
                locate_rim_vertices(-47, 179, 2, modpoly_dir=None)

    @staticmethod
    def _recorded_searches(monkeypatch):
        # the vertices each ell = 2 search expands, one list per search
        searches = []
        bfs = ssgraph.bfs

        def recording(p, ell, modpoly_dir):
            search, expanded = bfs(p, ell, modpoly_dir), []
            searches.append(expanded)
            for v, roots in search:
                expanded.append(v)
                yield v, roots

        monkeypatch.setattr(ssgraph, "bfs", recording)
        return searches

    def test_search_stops_once_the_class_polynomial_is_used_up(self, monkeypatch):
        # h(-107) = 3 against the 84 supersingular j at 1009
        searches = self._recorded_searches(monkeypatch)
        (cycle,) = locate_rim_vertices(-107, 1009, 3, modpoly_dir=None)
        assert [str(v) for v in cycle] == ["56+452*s", "56+557*s", "890"]
        (expanded,) = searches
        assert 0 < len(expanded) < vertex_count_formula(1009) == 84

    def test_class_polynomial_not_used_up_walks_the_whole_graph(self, monkeypatch):
        # a changed coefficient leaves H_-47 mod 179 a factor with no
        # supersingular root: the search expands all 16 vertices, build_graph
        # checks the whole graph in a second search, and the order is refused
        searches = self._recorded_searches(monkeypatch)
        coeffs = list(hilbert_class_poly(-47).coefficients)
        coeffs[0] += 1
        mutant = hilbert.ClassPolynomial(tuple(coeffs))
        monkeypatch.setattr(hilbert, "hilbert_class_poly", lambda D: mutant)
        with pytest.raises(ValueError, match=r"^locate_rim_vertices\(D=-47, p=179, ell=2\): "
                           r"H_-47 mod 179 keeps a factor of degree \d+ .*"
                           r"fails the nonsplit condition$"):
            locate_rim_vertices(-47, 179, 2, modpoly_dir=None)
        assert [len(set(s)) for s in searches] == [len(s) for s in searches] == [16, 16]

    def test_graph_refusals_come_before_the_class_polynomial(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the refusal")

        monkeypatch.setattr(hilbert, "hilbert_class_poly", forbidden)
        with pytest.raises(ValueError, match=r"^build_graph\(p=200003, ell=2\): p=200003 "
                           r"exceeds the desk-scale cap 200000$"):
            locate_rim_vertices(-31, 200003, 2, modpoly_dir=None)

    def test_threading_stops_at_its_budget(self, monkeypatch):
        # -1967 needs 924 extension steps at (179, 2); -1319 needs the most
        # in the corpus, 2093
        locate_rim_vertices(-1967, 179, 2, modpoly_dir=None)
        monkeypatch.setattr(hilbert, "THREADING_BUDGET", 900)
        with pytest.raises(ArithmeticError, match=r"^locate_rim_vertices\(D=-1967, p=179, "
                           r"ell=2\): threading 36 roots into cycles of length 9 exceeded "
                           r"the search budget of 900 steps$"):
            locate_rim_vertices(-1967, 179, 2, modpoly_dir=None)
