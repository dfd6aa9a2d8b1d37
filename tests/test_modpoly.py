import os

import mpmath as mp
import pytest

from isocycles.ff import PrimeField, poly_roots
from isocycles.modpoly import (
    MODPOLY_ENV_VAR,
    ModularPolynomial,
    instantiate,
    load_modular_polynomial,
    resolve_modular_polynomial,
)
from oracles import modpoly_text, poly_eval


def diagonal_degree(phi):
    """Degree of Phi_ell(X, X), from the stored pairs i >= j."""
    diagonal = {}
    for (i, j), c in phi.coefficients.items():
        diagonal[i + j] = diagonal.get(i + j, 0) + (c if i == j else 2 * c)
    return max(k for k, c in diagonal.items() if c)


class TestEmbedded:
    def test_phi2_landmark_coefficients(self):
        phi2 = load_modular_polynomial(2)
        assert phi2.coefficients[(2, 2)] == -1
        assert phi2.coefficients[(0, 0)] == -157464000000000
        assert phi2.coefficients[(3, 0)] == 1
        assert (0, 3) not in phi2.coefficients  # stored once, with i >= j
        assert (3, 3) not in phi2.coefficients

    def test_phi2_diagonal_degree_4(self):
        assert diagonal_degree(load_modular_polynomial(2)) == 4

    def test_phi3_diagonal_degree_6(self):
        assert diagonal_degree(load_modular_polynomial(3)) == 6

    def test_unknown_embedded_level(self):
        with pytest.raises(ValueError, match="no embedded"):
            load_modular_polynomial(5)

    @pytest.mark.parametrize("level,tau", [(2, mp.mpc(0, 1.1)), (2, mp.mpc(0.3, 1.7)),
                                           (3, mp.mpc(0, 1.1)), (3, mp.mpc(0.3, 1.7))])
    def test_vanishes_on_modular_curve(self, level, tau):
        # Phi_ell(j(tau), j(ell*tau)) = 0 certifies the embedded coefficients;
        # j is mpmath's, so the check shares nothing with the program
        phi = load_modular_polynomial(level)
        prec = 320
        with mp.workprec(prec + 64):
            x = 1728 * mp.kleinj(tau)
            y = 1728 * mp.kleinj(level * tau)
            total = mp.mpc(0)
            scale = mp.mpf(1)
            for (i, j), c in phi.coefficients.items():
                term = c * x**i * y**j
                if i != j:
                    term += c * x**j * y**i
                total += term
                scale = max(scale, abs(term))
            assert abs(total) / scale < mp.mpf(2) ** -200


class TestValidation:
    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            ModularPolynomial(7, {(3, 0): 1, (2, 2): -1, (0, 0): 5})

    def test_top_corner_must_vanish(self):
        coeffs = dict(load_modular_polynomial(2).coefficients)
        coeffs[(3, 3)] = 2
        with pytest.raises(ValueError, match="must vanish"):
            ModularPolynomial(2, coeffs)

    def test_monicity(self):
        coeffs = dict(load_modular_polynomial(2).coefficients)
        coeffs[(3, 0)] = 4
        with pytest.raises(ValueError, match="monic"):
            ModularPolynomial(2, coeffs)

    def test_mixed_top_degree_term(self):
        coeffs = dict(load_modular_polynomial(2).coefficients)
        coeffs[(3, 1)] = 1
        with pytest.raises(ValueError, match="monicity"):
            ModularPolynomial(2, coeffs)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        phi2 = load_modular_polynomial(2)
        path = tmp_path / "phi2.txt"
        path.write_text(modpoly_text(phi2), encoding="utf-8")
        back = load_modular_polynomial(2, str(path))
        assert back.coefficients == phi2.coefficients

    def test_text_shape(self):
        text = modpoly_text(load_modular_polynomial(2))
        lines = text.splitlines()
        assert lines[0] == "ell=2"
        assert lines[1] == "3 0 1"
        assert all(line == line.rstrip() for line in lines)
        pairs = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
        assert pairs == sorted(pairs, reverse=True)

    def test_wrong_degree_file(self, tmp_path):
        path = tmp_path / "phi7.txt"
        path.write_text("ell=7\n3 0 1\n0 0 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="degree mismatch"):
            load_modular_polynomial(7, str(path))

    def test_level_mismatch(self, tmp_path):
        path = tmp_path / "phi5.txt"
        path.write_text(modpoly_text(load_modular_polynomial(2)), encoding="utf-8")
        with pytest.raises(ValueError, match="declares level"):
            load_modular_polynomial(5, str(path))

    @pytest.mark.parametrize("body", [
        "3 0 1\n",                      # missing header
        "ell=x\n3 0 1\n",               # unreadable level
        "ell=2\n3 0 1 9\n",             # wrong token count
        "ell=2\n3 0 q\n",               # non-integer
        "ell=2\n3 0 1\n3 0 2\n",        # duplicate
        "ell=2\n2 2 -1\n3 0 1\n",       # unsorted
        "ell=2\n3 0 1 \n",              # trailing whitespace
    ])
    def test_malformed_files(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError):
            load_modular_polynomial(2, str(path))

    def test_level_cap(self, tmp_path):
        with pytest.raises(ValueError, match="out of scope"):
            load_modular_polynomial(17, str(tmp_path / "phi17.txt"))

    def test_resolve_via_directory_and_env(self, tmp_path, monkeypatch):
        # a structurally valid stand-in file exercises directory resolution
        fake5 = ModularPolynomial(5, {(6, 0): 1, (5, 5): -1, (0, 0): 7})
        (tmp_path / "phi5.txt").write_text(modpoly_text(fake5), encoding="utf-8")
        got = resolve_modular_polynomial(5, str(tmp_path))
        assert got.coefficients == fake5.coefficients
        monkeypatch.setenv(MODPOLY_ENV_VAR, str(tmp_path))
        got = resolve_modular_polynomial(5)
        assert got.coefficients == fake5.coefficients
        monkeypatch.delenv(MODPOLY_ENV_VAR)
        with pytest.raises(ValueError, match="no modular polynomial directory"):
            resolve_modular_polynomial(5)


class TestInstantiate:
    def test_triple_edge_from_0_to_121_mod_179(self):
        F = PrimeField(179)
        phi2 = load_modular_polynomial(2)
        f = instantiate(phi2, F.zero, F)
        assert f.degree == 3
        assert poly_roots(f) == [(121, 0)] * 3

    def test_single_edge_back_from_121(self):
        F = PrimeField(179)
        phi2 = load_modular_polynomial(2)
        roots = poly_roots(instantiate(phi2, F.elem(121), F))
        assert roots.count((0, 0)) == 1

    @pytest.mark.parametrize("p", [179, 1009, 3361])
    @pytest.mark.parametrize("level", [2, 3])
    def test_degree_always_level_plus_one(self, p, level):
        F = PrimeField(p)
        phi = load_modular_polynomial(level)
        for j in [F.zero, F.one, F.elem(1728), F.elem(17, 5), F.elem(p - 1, p - 2)]:
            assert instantiate(phi, j, F).degree == level + 1

    @pytest.mark.parametrize("level", [2, 3])
    def test_matches_symmetric_evaluation(self, level):
        # f(x) = sum of c_ij (x^i j^j + x^j j^i) over stored i > j, plus the diagonal
        F = PrimeField(1009)
        phi = load_modular_polynomial(level)
        for j in [F.zero, F.elem(1728), F.elem(17, 5), F.elem(1008, 1007)]:
            f = instantiate(phi, j, F)
            for x in [F.one, F.elem(3, 11), F.elem(500, 2)]:
                want = F.zero
                for (i, k), c in phi.coefficients.items():
                    want = want + F.elem(c) * x**i * j**k
                    if i != k:
                        want = want + F.elem(c) * x**k * j**i
                assert poly_eval(f, x) == want

    def test_level_must_be_below_p(self):
        fake7 = ModularPolynomial(7, {(8, 0): 1, (7, 7): -1, (0, 0): 3})
        F = PrimeField(5)
        with pytest.raises(ValueError, match="smaller than p"):
            instantiate(fake7, F.one, F)


def test_global_edge_balance(g179, g1009):
    # total out-multiplicity equals total in-multiplicity on the full graph
    for g in (g179, g1009):
        n = g.vertex_count
        out_total = sum(g.out_degree(i) for i in range(n))
        in_total = sum(m for row in g.adjacency for m in row.values())
        assert out_total == in_total == n * (g.ell + 1)
