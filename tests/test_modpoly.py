import re

import mpmath as mp
import pytest

from isocycles.ff import PolyOverFp2, PrimeField, poly_roots
from isocycles.modpoly import (
    ModularPolynomial,
    instantiate,
    reduce_mod_p,
    resolve_modular_polynomial,
)
from oracles import modpoly_text, poly_eval

# A structurally valid stand-in for Phi_5, for the file-reading cases.
FAKE5 = ModularPolynomial(5, {(6, 0): 1, (5, 5): -1, (0, 0): 7})


def embedded(level):
    return resolve_modular_polynomial(level, None)


def instantiate_at(phi, j, F):
    """Phi_ell(X, j) as a polynomial over F_{p^2}, for an element j of F_{p^2}."""
    return PolyOverFp2(F, instantiate(reduce_mod_p(phi, F.p), j.key(), F.p, F.non_residue))


def diagonal_degree(phi):
    """Degree of Phi_ell(X, X), from the stored pairs i >= j."""
    diagonal = {}
    for (i, j), c in phi.coefficients.items():
        diagonal[i + j] = diagonal.get(i + j, 0) + (c if i == j else 2 * c)
    return max(k for k, c in diagonal.items() if c)


class TestEmbedded:
    def test_phi2_landmark_coefficients(self):
        phi2 = embedded(2)
        assert phi2.coefficients[(2, 2)] == -1
        assert phi2.coefficients[(0, 0)] == -157464000000000
        assert phi2.coefficients[(3, 0)] == 1
        assert (0, 3) not in phi2.coefficients  # stored once, with i >= j
        assert (3, 3) not in phi2.coefficients

    def test_phi2_diagonal_degree_4(self):
        assert diagonal_degree(embedded(2)) == 4

    def test_phi3_diagonal_degree_6(self):
        assert diagonal_degree(embedded(3)) == 6

    def test_unknown_embedded_level(self):
        with pytest.raises(ValueError, match="level 5 is not embedded"):
            embedded(5)

    @pytest.mark.parametrize("level,tau", [(2, mp.mpc(0, 1.1)), (2, mp.mpc(0.3, 1.7)),
                                           (3, mp.mpc(0, 1.1)), (3, mp.mpc(0.3, 1.7))])
    def test_vanishes_on_modular_curve(self, level, tau):
        # Phi_ell(j(tau), j(ell*tau)) = 0 certifies the embedded coefficients;
        # j is mpmath's, so the check shares nothing with the program
        phi = embedded(level)
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
        coeffs = dict(embedded(2).coefficients)
        coeffs[(3, 3)] = 2
        with pytest.raises(ValueError, match="must vanish"):
            ModularPolynomial(2, coeffs)

    def test_monicity(self):
        coeffs = dict(embedded(2).coefficients)
        coeffs[(3, 0)] = 4
        with pytest.raises(ValueError, match="monic"):
            ModularPolynomial(2, coeffs)

    def test_mixed_top_degree_term(self):
        coeffs = dict(embedded(2).coefficients)
        coeffs[(3, 1)] = 1
        with pytest.raises(ValueError, match="monicity"):
            ModularPolynomial(2, coeffs)


# Each malformed body, with the message it is refused with.  The test writes
# each as phi5.txt with its header raised to ell=5, so that it fails on its
# own defect and not on the level check.
MALFORMED = {
    "3 0 1\n": "first line must be 'ell=<level>'",
    "ell=x\n3 0 1\n": "unreadable level",
    "ell=2\n3 0 1 9\n": "line 2 is not '<i> <j> <c>'",
    "ell=2\n3 0 q\n": "non-integer on line 2",
    "ell=2\n3 0 1\n3 0 2\n": r"duplicate exponent pair \(3, 0\)",
    "ell=2\n2 2 -1\n3 0 1\n": "lines not sorted descending",
    "ell=2\n3 0 1 \n": "line 2 is not '<i> <j> <c>'",
}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        (tmp_path / "phi5.txt").write_text(modpoly_text(FAKE5), encoding="utf-8")
        back = resolve_modular_polynomial(5, str(tmp_path))
        assert back.level == 5
        assert back.coefficients == FAKE5.coefficients

    def test_text_shape(self):
        text = modpoly_text(embedded(2))
        lines = text.splitlines()
        assert lines[0] == "ell=2"
        assert lines[1] == "3 0 1"
        assert all(line == line.rstrip() for line in lines)
        pairs = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
        assert pairs == sorted(pairs, reverse=True)

    def test_wrong_degree_file(self, tmp_path):
        (tmp_path / "phi7.txt").write_text("ell=7\n3 0 1\n0 0 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="degree mismatch"):
            resolve_modular_polynomial(7, str(tmp_path))

    def test_level_mismatch(self, tmp_path):
        (tmp_path / "phi5.txt").write_text(modpoly_text(embedded(2)), encoding="utf-8")
        with pytest.raises(ValueError, match="declares level"):
            resolve_modular_polynomial(5, str(tmp_path))

    @pytest.mark.parametrize("body", list(MALFORMED))
    def test_malformed_files(self, tmp_path, body):
        text = body.replace("ell=2", "ell=5")
        (tmp_path / "phi5.txt").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^malformed file: {MALFORMED[body]}"):
            resolve_modular_polynomial(5, str(tmp_path))

    def test_level_cap(self, tmp_path):
        (tmp_path / "phi17.txt").write_text("ell=17\n", encoding="utf-8")
        with pytest.raises(ValueError, match="out of scope"):
            resolve_modular_polynomial(17, str(tmp_path))
        # with no directory, that refusal comes first
        with pytest.raises(ValueError, match="no modular polynomial directory"):
            resolve_modular_polynomial(17, None)

    def test_resolve_via_directory(self, tmp_path):
        (tmp_path / "phi5.txt").write_text(modpoly_text(FAKE5), encoding="utf-8")
        got = resolve_modular_polynomial(5, str(tmp_path))
        assert got.coefficients == FAKE5.coefficients
        with pytest.raises(ValueError, match="no modular polynomial directory"):
            resolve_modular_polynomial(5, None)

    @pytest.mark.parametrize("make,reason", [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"ell=5\n\xff 0 1\n"), "not UTF-8 at byte 6"),
    ], ids=["missing", "directory", "non-utf8"])
    def test_unreadable_file_named(self, tmp_path, make, reason):
        path = tmp_path / "phi5.txt"
        make(path)
        with pytest.raises(ValueError, match=f"^{re.escape(f'cannot read {path}: {reason}')}$"):
            resolve_modular_polynomial(5, str(tmp_path))


class TestInstantiate:
    def test_triple_edge_from_0_to_121_mod_179(self):
        F = PrimeField(179)
        phi2 = embedded(2)
        f = instantiate_at(phi2, F.zero, F)
        assert f.degree == 3
        assert poly_roots(f) == [(121, 0)] * 3

    def test_single_edge_back_from_121(self):
        F = PrimeField(179)
        phi2 = embedded(2)
        roots = poly_roots(instantiate_at(phi2, F.elem(121), F))
        assert roots.count((0, 0)) == 1

    @pytest.mark.parametrize("p", [179, 1009, 3361])
    @pytest.mark.parametrize("level", [2, 3])
    def test_degree_always_level_plus_one(self, p, level):
        F = PrimeField(p)
        phi = embedded(level)
        for j in [F.zero, F.one, F.elem(1728), F.elem(17, 5), F.elem(p - 1, p - 2)]:
            assert instantiate_at(phi, j, F).degree == level + 1

    @pytest.mark.parametrize("level", [2, 3])
    def test_matches_symmetric_evaluation(self, level):
        # f(x) = sum of c_ij (x^i j^j + x^j j^i) over stored i > j, plus the diagonal
        F = PrimeField(1009)
        phi = embedded(level)
        for j in [F.zero, F.elem(1728), F.elem(17, 5), F.elem(1008, 1007)]:
            f = instantiate_at(phi, j, F)
            for x in [F.one, F.elem(3, 11), F.elem(500, 2)]:
                want = F.zero
                for (i, k), c in phi.coefficients.items():
                    want = want + F.elem(c) * x**i * j**k
                    if i != k:
                        want = want + F.elem(c) * x**k * j**i
                assert poly_eval(f, x) == want

    def test_level_must_be_below_p(self):
        fake7 = ModularPolynomial(7, {(8, 0): 1, (7, 7): -1, (0, 0): 3})
        with pytest.raises(ValueError, match="smaller than p"):
            reduce_mod_p(fake7, 5)


def test_global_edge_balance(g179, g1009):
    # In-degree (column sums of the adjacency) is ell + 1 at every vertex
    # when p = 1 mod 12.  At p = 179, j = 0 sends 3 edges to 121 and gets 1
    # back, and j = 1728 = 117 sends 2 to 22 and gets 1 back, so exactly
    # those four vertices differ.
    off = {(0, 0): 1, (22, 0): 4, (117, 0): 2, (121, 0): 5}
    for g, expected in ((g1009, {}), (g179, off)):
        in_degree = [0] * g.vertex_count
        for row in g.adjacency:
            for j, m in row.items():
                in_degree[j] += m
        assert {g.vertices[j].key(): d for j, d in enumerate(in_degree)
                if d != g.ell + 1} == expected
