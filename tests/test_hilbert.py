from types import SimpleNamespace

import mpmath as mp
import pytest

from isocycles import hilbert
from isocycles.ff import PrimeField
from isocycles.hilbert import (
    hilbert_class_poly,
    hilbert_mod_p,
    j_evaluate,
    locate_rim_vertices,
)
from isocycles.quadform import class_number

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


class TestJEvaluate:
    def test_j_of_i_is_1728(self):
        val = j_evaluate(mp.mpc(0, 1), 128)
        assert abs(val - 1728) < mp.mpf(2) ** -100

    def test_j_of_zeta3_is_0(self):
        tau = mp.mpc(0.5, mp.sqrt(3) / 2)
        assert abs(j_evaluate(tau, 128)) < mp.mpf(2) ** -40

    def test_j_of_2i(self):
        assert abs(j_evaluate(mp.mpc(0, 2), 128) - 66**3) < mp.mpf(2) ** -80

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            j_evaluate(mp.mpc(0.3, -1), 64)

    def test_rejects_excessive_precision(self):
        with pytest.raises(ValueError):
            j_evaluate(mp.mpc(0, 1), 10**5)

    def test_periodicity_and_modularity(self):
        # tau -> tau+1 and tau -> -1/tau leave j unchanged; the translated
        # points themselves must be formed at high precision
        with mp.workprec(240):
            for k in range(10):
                tau = mp.mpc(0.1 * k - 0.4, 0.9 + 0.17 * k)
                a = j_evaluate(tau, 96)
                assert abs(a - j_evaluate(tau + 1, 96)) < mp.mpf(2) ** -60
                assert abs(a - j_evaluate(-1 / tau, 96)) < mp.mpf(2) ** -60

    def test_matches_mpmath_kleinj(self):
        for k in range(5):
            tau = mp.mpc(0.13 * k - 0.2, 1.05 + 0.31 * k)
            with mp.workprec(160):
                expected = 1728 * mp.kleinj(tau)
            assert abs(j_evaluate(tau, 120) - expected) < mp.mpf(2) ** -90


class TestClassPoly:
    @pytest.mark.parametrize("disc,coeffs", sorted(SINGLETON_CLASS_POLYS.items()))
    def test_small_discriminants(self, disc, coeffs):
        assert hilbert_class_poly(disc).coefficients == coeffs

    def test_minus_15_classical_value(self):
        assert hilbert_class_poly(-15).coefficients == (-121287375, 191025, 1)

    @pytest.mark.parametrize("disc", [-31, -47, -231, -255, -964, -1003, -2999])
    def test_degree_equals_class_number(self, disc):
        poly = hilbert_class_poly(disc)
        assert poly.degree == class_number(disc)
        assert poly.coefficients[-1] == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            hilbert_class_poly(-(10**5 + 3))

    def test_over_precision_cap_refused_before_any_j_evaluation(self, monkeypatch):
        # |D| = 99991 is within the discriminant cap, but its 205 reduced
        # forms need 10115 bits, over the 8192-bit precision cap
        def forbidden(tau, precision=128):
            raise AssertionError("j evaluated before the refusal")

        monkeypatch.setattr(hilbert, "j_evaluate", forbidden)
        with pytest.raises(ValueError, match=r"hilbert_class_poly\(D=-99991\): "
                           r"needs 10115 bits, over the cap 8192"):
            hilbert_class_poly(-99991)

    def test_export_text(self):
        assert hilbert_class_poly(-4).to_text() == "-4: -1728 1"


class TestModP:
    def test_minus_4_mod_179(self):
        F = PrimeField(179)
        f = hilbert_mod_p(-4, 179)
        assert f.coeffs() == [F.elem(-1728), F.one]
        assert F.elem(-1728) == F.elem(62)  # -117 mod 179

    def test_minus_31_roots_are_the_3_cycle(self, g179):
        F = g179.field
        from isocycles.ff import PolyOverFp2, poly_roots

        roots = poly_roots(hilbert_mod_p(-31, 179, F))
        i = poly_roots(PolyOverFp2(F, [1, 0, 1]))[0]
        j3 = F.elem(109) + F.elem(5) * i
        expected = {F.elem(171), j3, j3.conjugate()}
        assert set(roots) == expected

    def test_minus_39_contains_61_and_140(self):
        F = PrimeField(179)
        from isocycles.ff import poly_roots

        roots = set(poly_roots(hilbert_mod_p(-39, 179, F)))
        assert F.elem(61) in roots and F.elem(140) in roots

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            hilbert_mod_p(-4, 179, PrimeField(7))


class TestLocate:
    def test_3_cycle_of_minus_31(self, g179):
        cycles = locate_rim_vertices(-31, 179, 2, g179)
        assert len(cycles) == 1
        labels = {str(v) for v in cycles[0]}
        assert labels == {"171", "109+16*s", "109+163*s"}

    def test_5_cycle_of_minus_47(self, g179):
        (cycle,) = locate_rim_vertices(-47, 179, 2, g179)
        assert len(cycle) == 5
        assert {str(v) for v in cycle} == {
            "22", "107+77*s", "107+102*s", "109+16*s", "109+163*s"
        }

    def test_conjugate_pair_of_minus_231(self, g179):
        cycles = locate_rim_vertices(-231, 179, 2, g179)
        assert len(cycles) == 2
        sets = [frozenset(str(v) for v in c) for c in cycles]
        assert sets[0] != sets[1]
        conj = {frozenset(s.replace("16*s", "X").replace("163*s", "16*s").replace("X", "163*s")
                          .replace("77*s", "Y").replace("102*s", "77*s").replace("Y", "102*s")
                          .replace("10*s", "Z").replace("169*s", "10*s").replace("Z", "169*s")
                          for s in sets[0])}
        assert sets[1] in conj

    def test_repeated_vertex_cycle_of_minus_247(self, g179):
        (cycle,) = locate_rim_vertices(-247, 179, 2, g179)
        multiset = sorted(str(v) for v in cycle)
        assert multiset == ["0", "112", "112", "121", "121", "35"]

    def test_split_prime_rejected(self, g179):
        # 179 splits in Q(sqrt(-23)): the class polynomial roots are ordinary
        with pytest.raises(ValueError, match="splits in the field"):
            locate_rim_vertices(-23, 179, 2, g179)

    def test_nonsplit_ell_rejected(self, g179):
        # 2 is inert in Q(sqrt(-3)) and ramified in Q(sqrt(-5))
        with pytest.raises(ValueError, match="does not split"):
            locate_rim_vertices(-3, 179, 2, g179)
        with pytest.raises(ValueError, match="does not split"):
            locate_rim_vertices(-20, 179, 2, g179)

    def test_over_degree_cap_refused_before_class_poly(self, monkeypatch):
        # h(-7831) = 66 is over the root-finding cap of 64
        def forbidden(D):
            raise AssertionError("class polynomial built before the refusal")

        monkeypatch.setattr(hilbert, "_class_poly_cached", forbidden)
        graph = SimpleNamespace(p=3361, ell=2)
        with pytest.raises(ValueError, match="degree cap 64"):
            locate_rim_vertices(-7831, 3361, 2, graph)
