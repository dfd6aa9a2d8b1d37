import numpy as np
import pytest

from isocycles.nbwalk import (
    build_nb_operator,
    closed_nbw_counts,
    count_cycles,
    directed_cycle_counts,
    spectral_check,
    undirected_cycle_counts,
)
from isocycles.ssgraph import build_graph
from oracles import dfs_primitive_cycle_counts, mixing_steps_bound, rw_distribution_distance


def cycle_matrix(n):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][(i + 1) % n] += 1
        mat[(i + 1) % n][i] += 1
    return mat


class TestOperator:
    def test_triangle(self):
        op = build_nb_operator(cycle_matrix(3))
        assert op.dimension == 6
        assert {len(succ) for succ in op.successors} == {1}

    def test_dual_involution(self, g1009):
        for thing in (cycle_matrix(5), g1009):
            op = build_nb_operator(thing)
            assert all(op.dual[op.dual[e]] == e for e in range(op.dimension))
            assert all(op.dual[e] != e for e in range(op.dimension))

    def test_dimension_on_regular_graphs(self, g1009, g3361, g3229):
        assert build_nb_operator(g1009).dimension == 84 * 3
        assert build_nb_operator(g3361).dimension == 280 * 3
        # loops of even multiplicity expand without extra half-edges
        assert build_nb_operator(g3229).dimension == 269 * 4

    def test_duals_reverse_edges(self, g1009):
        op = build_nb_operator(g1009)
        for e in range(op.dimension):
            s, t, k = op.directed_edges[e]
            ds, dt, dk = op.directed_edges[op.dual[e]]
            assert (ds, dt, dk) == (t, s, k)

    def test_directed_imbalance_rejected(self):
        with pytest.raises(ValueError, match=r"^build_nb_operator\(n=2\): directed imbalance "
                                             r"between vertices 0 and 1: 2 vs 1$"):
            build_nb_operator([[0, 2], [1, 0]])

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError, match="not regular"):
            build_nb_operator([[0, 1, 1], [1, 0, 0], [1, 0, 2]])

    def test_non_regular_flag_graph_rejected(self, g179):
        with pytest.raises(ValueError, match=r"^build_nb_operator\(p=179, ell=2\): .*1 mod 12"):
            build_nb_operator(g179)

    def test_loop_halfedge_expansion(self):
        # single vertex, odd loop multiplicity: 3 loops -> one dual pair and
        # one self-dual half-loop, so every edge has ell = 2 successors
        op = build_nb_operator(build_graph(13, 2))
        assert op.dimension == 3
        assert sum(op.dual[e] == e for e in range(3)) == 1
        assert all(op.dual[op.dual[e]] == e for e in range(3))
        assert [len(succ) for succ in op.successors] == [2, 2, 2]


class TestTraces:
    def test_triangle_values(self):
        op = build_nb_operator(cycle_matrix(3))
        assert closed_nbw_counts(op, 4) == [0, 0, 6, 0]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_graph_oracle(self, n):
        op = build_nb_operator(cycle_matrix(n))
        traces = closed_nbw_counts(op, 24)
        assert traces == [2 * n if r % n == 0 else 0 for r in range(1, 25)]

    def test_r_max_validation(self):
        op = build_nb_operator(cycle_matrix(3))
        with pytest.raises(ValueError):
            closed_nbw_counts(op, 0)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_exact_across_int64_bound(self, ell):
        # r = 40 takes the recursion past its int64 bound for both ell; at
        # ell = 3 the traces themselves exceed 2^63.  p = 37 has a half-loop
        # for ell = 2.  B is built here from the successor lists alone.
        op = build_nb_operator(build_graph(37, ell))
        b = np.zeros((op.dimension, op.dimension), dtype=object)
        for e, succ in enumerate(op.successors):
            b[e, list(succ)] = 1
        exact, power = [], b
        for _ in range(40):
            exact.append(int(np.trace(power)))
            power = power.dot(b)
        assert closed_nbw_counts(op, 40) == exact
        assert (max(exact) > 2**63) == (ell == 3)


class TestDirectedCounts:
    def test_triangle(self):
        op = build_nb_operator(cycle_matrix(3))
        traces = closed_nbw_counts(op, 6)
        assert directed_cycle_counts(traces) == {3: 2, 4: 0, 5: 0, 6: 0}

    def test_against_dfs_oracle_samples(self):
        cases = [(13, 2, 8), (37, 2, 8), (61, 2, 8), (73, 3, 6), (97, 2, 8),
                 (109, 3, 6), (157, 2, 8), (193, 3, 5), (241, 2, 7), (337, 2, 7),
                 (433, 2, 6), (601, 3, 4)]
        for p, ell, r_max in cases:
            op = build_nb_operator(build_graph(p, ell))
            got = directed_cycle_counts(closed_nbw_counts(op, r_max), r_max)
            oracle = dfs_primitive_cycle_counts(op, r_max)
            assert got == oracle, (p, ell)

    def test_against_dfs_oracle_acceptance_graphs(self, g1009, g3361):
        for g, r_max in ((g1009, 8), (g3361, 7)):
            op = build_nb_operator(g)
            got = directed_cycle_counts(closed_nbw_counts(op, r_max), r_max)
            assert got == dfs_primitive_cycle_counts(op, r_max)

    def test_traces_shorter_than_r_max(self):
        with pytest.raises(ValueError, match=r"^directed_cycle_counts\(r_max=5\): only 3 traces"):
            directed_cycle_counts([0, 0, 6], 5)

    def test_r_max_below_1_names_the_stage(self):
        with pytest.raises(ValueError, match=r"^closed_nbw_counts\(n=3, ell=1, r_max=0\): "):
            closed_nbw_counts(build_nb_operator(cycle_matrix(3)), 0)


class TestUndirected:
    def test_halving_on_loop_free(self, g1009, g3361):
        for g in (g1009, g3361):
            table = count_cycles(g, 8)
            assert table.undirected == {r: c // 2 for r, c in table.directed.items()}

    def test_triangle(self):
        op = build_nb_operator(cycle_matrix(3))
        directed = directed_cycle_counts(closed_nbw_counts(op, 3))

        class FakeGraph:
            def total_loops(self):
                return 0

        assert undirected_cycle_counts(directed, FakeGraph()) == {3: 1}

    def test_gate_refuses_loops(self, g3229):
        directed = {3: 4}
        with pytest.raises(ValueError, match="barbell"):
            undirected_cycle_counts(directed, g3229)


class TestRandomWalk:
    def test_uniform_start_has_zero_deviation(self, g1009):
        dev, bound = rw_distribution_distance(g1009, range(84), 0)
        assert dev == 0.0
        assert bound == 1.0 / 84

    @pytest.mark.parametrize("t", [5, 10, 20, 30])
    def test_single_vertex_bound(self, g1009, t):
        dev, bound = rw_distribution_distance(g1009, [0], t)
        assert dev <= bound

    def test_empty_subset_rejected(self, g1009):
        with pytest.raises(ValueError):
            rw_distribution_distance(g1009, [], 3)

    def test_irregular_graph_rejected(self, g179):
        with pytest.raises(ValueError):
            rw_distribution_distance(g179, [0], 3)

    def test_mixing_steps_reach_everything(self, g1009):
        t = mixing_steps_bound(g1009, 1)
        adj = np.array(g1009.multiplicity_matrix(), dtype=object)
        u = np.zeros(84, dtype=object)
        u[17] = 1
        for _ in range(t):
            u = adj @ u
        assert all(x > 0 for x in u)


class TestSpectral:
    def test_lambda1_and_ramanujan(self, g1009):
        lam1, lam2, verdict = spectral_check(g1009)
        assert lam1 == 3.0
        assert verdict
        eigs = np.linalg.eigvalsh(np.array(g1009.multiplicity_matrix(), dtype=float))
        true_lam2 = max(abs(e) for e in eigs[:-1])
        assert abs(lam2 - true_lam2) < 1e-6

    def test_non_regular_rejected(self, g179):
        with pytest.raises(ValueError):
            spectral_check(g179)

    def test_ramanujan_with_loops(self, g3229):
        lam1, lam2, verdict = spectral_check(g3229)
        assert lam1 == 4.0
        assert verdict
        assert lam2 <= 2 * np.sqrt(3) + 1e-6

