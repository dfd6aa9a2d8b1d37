import json

import pytest

from isocycles import ff, ssgraph
from isocycles.ff import PolyOverFp2, _sqrt_fp2, poly_roots
from isocycles.modpoly import instantiate, load_modular_polynomial
from isocycles.ssgraph import build_graph, initial_supersingular_j, vertex_count_formula
from oracles import loop_count


class TestVertexCountFormula:
    @pytest.mark.parametrize("p,n", [(179, 16), (13, 1), (11, 2), (3361, 280),
                                     (1009, 84), (3229, 269), (5, 1), (7, 1)])
    def test_values(self, p, n):
        assert vertex_count_formula(p) == n

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            vertex_count_formula(3)


class TestSeed:
    def test_179_gives_1728(self):
        assert initial_supersingular_j(179) == (1728 % 179, 0)

    def test_23_prefers_1728_branch(self):
        # 23 = 3 mod 4 is checked before 23 = 2 mod 3
        assert initial_supersingular_j(23) == (1728 % 23, 0)

    def test_5_gives_0(self):
        assert initial_supersingular_j(5) == (0, 0)

    def test_cm_seed_for_1_mod_12(self):
        # p = 13: neither congruence branch applies; closure must still censor
        g = build_graph(13, 2)
        assert g.vertex_count == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match=r"^initial_supersingular_j\(p=15\): "):
            initial_supersingular_j(15)

    def test_no_cm_seed_is_an_arithmetic_error(self, monkeypatch):
        # at p = 13 the first inert q = 3 mod 4 is 7, over a limit of 5
        monkeypatch.setattr(ssgraph, "_SEED_SEARCH_LIMIT", 5)
        with pytest.raises(ArithmeticError,
                           match=r"^initial_supersingular_j\(p=13\): no CM seed"):
            initial_supersingular_j(13)


class TestBuild179(object):
    def test_vertex_set_at_179(self, g179):
        F = g179.field
        i = F.elem(*poly_roots(PolyOverFp2(F, [1, 0, 1]))[0])
        rational = [0, 1728, 22, 35, 61, 112, 120, 121, 140, 171]
        expected = {F.elem(v) for v in rational}
        for a, b in [(5, 64), (107, 99), (109, 5)]:  # j1, j2, j3
            e = F.elem(a) + F.elem(b) * i
            expected.add(e)
            expected.add(F.elem(e.a, -e.b))
        assert set(g179.vertices) == expected

    def test_double_edge_between_112_and_35(self, g179):
        F = g179.field
        i112 = g179.vertex_index[F.elem(112)]
        i35 = g179.vertex_index[F.elem(35)]
        assert g179.adjacency[i112].get(i35, 0) == 2
        assert g179.adjacency[i35].get(i112, 0) == 2

    def test_out_degree_everywhere(self, g179):
        assert all(g179.out_degree(i) == 3 for i in range(g179.vertex_count))

    def test_loops(self, g179):
        assert loop_count(g179, 1728) == 1
        assert loop_count(g179, 0) == 0

    def test_connected(self, g179):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g179.adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert len(seen) == g179.vertex_count


class TestBuildRegular:
    def test_3361_shape(self, g3361):
        assert g3361.vertex_count == 280
        assert g3361.regular_flag
        F = g3361.field
        assert F.zero not in g3361.vertex_index
        assert F.elem(1728) not in g3361.vertex_index
        assert all(g3361.out_degree(i) == 3 for i in range(280))

    def test_1009_symmetric(self, g1009):
        for i, row in enumerate(g1009.adjacency):
            for j, m in row.items():
                assert g1009.adjacency[j].get(i, 0) == m

    def test_3229_loops_are_dual_pairs(self, g3229):
        loops = {i: row[i] for i, row in enumerate(g3229.adjacency) if row.get(i, 0)}
        assert sum(loops.values()) == 4
        assert all(m == 2 for m in loops.values())
        F = g3229.field
        assert set(loops) == {g3229.vertex_index[F.elem(-32768)],
                              g3229.vertex_index[F.elem(8000)]}


class TestBuildErrors:
    def test_ell_must_be_smaller(self):
        with pytest.raises(ValueError):
            build_graph(5, 5)

    def test_ell_must_be_prime(self):
        with pytest.raises(ValueError):
            build_graph(179, 4)

    def test_prime_cap(self):
        with pytest.raises(ValueError):
            build_graph(2 * 10**5 + 3, 2)

    def test_missing_modular_polynomial(self, monkeypatch):
        monkeypatch.delenv("ISOCYCLES_MODPOLY_DIR", raising=False)
        with pytest.raises(ValueError, match="not embedded"):
            build_graph(179, 5)

    def test_errors_name_stage_and_inputs(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^build_graph\(p=5, ell=5\): need ell < p"):
            build_graph(5, 5)
        monkeypatch.setattr(ssgraph, "vertex_count_formula", lambda p: 17)
        with pytest.raises(ArithmeticError,
                           match=r"^build_graph\(p=179, ell=2\): vertex census mismatch"):
            build_graph(179, 2)

    def test_wrong_square_root_fails_certification(self, monkeypatch):
        def off_by_one(z, p, n):
            a, b = _sqrt_fp2(z, p, n)
            return ((a + 1) % p, b)

        monkeypatch.setattr(ff, "_sqrt_fp2", off_by_one)
        with pytest.raises(ArithmeticError,
                           match=r"^build_graph\(p=179, ell=2\): .* do not rebuild it"):
            build_graph(179, 2)


class TestAgainstGeneralRootFinder:
    @pytest.mark.parametrize("p", [179, 613, 1009, 1013, 1031, 1039, 3361])
    def test_adjacency_at_ell_2(self, p):
        # the parent-deflation builder against poly_roots at every vertex;
        # 613 = 1 mod 12 has a half-loop, 1013, 1031, 1039 cover 5, 11, 7 mod 12
        g = build_graph(p, 2)
        phi = load_modular_polynomial(2)
        expected = []
        for v in g.vertices:
            row = {}
            for w in poly_roots(instantiate(phi, v, g.field)):
                k = g.vertex_index[g.field.elem(*w)]
                row[k] = row.get(k, 0) + 1
            expected.append(row)
        assert g.adjacency == expected


class TestPairsThroughTheBuild:
    @pytest.mark.parametrize("p,ell", [(20029, 2), (3229, 3), (179, 2)])
    def test_elements_built_only_for_the_vertex_list(self, monkeypatch, p, ell):
        # the seed, poly_roots and the BFS run on (a, b) pairs: an element is
        # built once per vertex for IsogenyGraph.vertices, plus the lookups
        # of 0 and 1728 in _validate when p = 1 mod 12
        built = []
        init = ff.QuadExtElement.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ff.QuadExtElement, "__init__", counting)
        g = build_graph(p, ell)
        assert len(built) == g.vertex_count + (2 if p % 12 == 1 else 0)


class TestExport:
    def test_json_round_trip(self, g179):
        payload = json.loads(g179.to_json())
        assert payload["schema"] == 1
        assert payload["p"] == 179 and payload["ell"] == 2
        assert len(payload["vertices"]) == 16
        assert payload["vertices"] == sorted(payload["vertices"], key=_label_key)
        total = sum(m for row in payload["adjacency"] for _, m in row)
        assert total == 16 * 3

    def test_dot_output(self, g179):
        dot = g179.to_dot()
        assert dot.startswith("graph isogeny_179_2 {")
        assert dot.count("[label=") >= 16
        assert "v0 -- " in dot or "-- v0" in dot

    def test_deterministic_rebuild(self, g179):
        again = build_graph(179, 2)
        assert again.to_json() == g179.to_json()
        assert again.to_dot() == g179.to_dot()


def _label_key(label):
    a, _, b = label.partition("+")
    return (int(a), int(b.rstrip("*s") or 0))
