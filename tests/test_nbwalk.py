import time
import tracemalloc

import numpy as np
import pytest

from isocycles import nbwalk
from isocycles.nbwalk import (
    build_nb_operator,
    closed_nbw_counts,
    directed_cycle_counts,
    spectral_check,
)
from isocycles.ssgraph import build_graph
from oracles import (
    adjacency_rows,
    dense_second_eigenvalue,
    dfs_primitive_cycle_counts,
    expand_edges,
    matrix_operator,
    mixing_steps_bound,
    multiplicity_matrix,
    rw_distribution_distance,
)


def exact_traces(adjacency, r_max):
    """tr B^r for r = 1..r_max from powers of B on Python ints, B built from
    the oracle's successor lists."""
    _, _, successors = expand_edges(adjacency)
    b = np.zeros((len(successors), len(successors)), dtype=object)
    for e, succ in enumerate(successors):
        b[e, succ] = 1
    traces, power = [], b
    for _ in range(r_max):
        traces.append(int(np.trace(power)))
        power = power.dot(b)
    return traces


def cycle_matrix(n):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][(i + 1) % n] += 1
        mat[(i + 1) % n][i] += 1
    return mat


class TestOperator:
    """The directed-edge expansion is the oracle's; the program keeps only
    its dimension, which perfbench reads."""

    def test_triangle(self):
        assert matrix_operator(cycle_matrix(3)).dimension == 6
        _, _, successors = expand_edges(adjacency_rows(cycle_matrix(3)))
        assert {len(succ) for succ in successors} == {1}

    def test_dual_involution(self, g1009):
        for rows in (adjacency_rows(cycle_matrix(5)), g1009.adjacency):
            _, dual, _ = expand_edges(rows)
            assert all(dual[dual[e]] == e for e in range(len(dual)))
            assert all(dual[e] != e for e in range(len(dual)))

    def test_dimension_on_regular_graphs(self, g1009, g3361, g3229):
        for g, dim in ((g1009, 84 * 3), (g3361, 280 * 3),
                       # loops of even multiplicity expand without extra half-edges
                       (g3229, 269 * 4)):
            edges, _, _ = expand_edges(g.adjacency)
            assert len(edges) == build_nb_operator(g).dimension == dim

    def test_duals_reverse_edges(self, g1009):
        edges, dual, _ = expand_edges(g1009.adjacency)
        for e, (s, t, k) in enumerate(edges):
            assert edges[dual[e]] == (t, s, k)

    def test_directed_imbalance_rejected(self):
        # the oracle's matrix input, which the Velu and C_n tests use
        with pytest.raises(ValueError, match=r"^directed imbalance between vertices 0 and 1: "
                                             r"2 vs 1$"):
            matrix_operator([[0, 2], [1, 0]])

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError, match="not regular"):
            matrix_operator([[0, 1, 1], [1, 0, 0], [1, 0, 2]])

    def test_non_regular_flag_graph_rejected(self, g179):
        with pytest.raises(ValueError, match=r"^build_nb_operator\(p=179, ell=2\) needs "
                                             r"p = 1 mod 12 \(extra-automorphism gate\); "
                                             r"p=179 is 11 mod 12$"):
            build_nb_operator(g179)

    def test_loop_halfedge_expansion(self):
        # single vertex, odd loop multiplicity: 3 loops -> one dual pair and
        # one self-dual half-loop, so every edge has ell = 2 successors
        g = build_graph(13, 2)
        edges, dual, successors = expand_edges(g.adjacency)
        assert len(edges) == build_nb_operator(g).dimension == 3
        assert sum(dual[e] == e for e in range(3)) == 1
        assert all(dual[dual[e]] == e for e in range(3))
        assert [len(succ) for succ in successors] == [2, 2, 2]


class TestTraces:
    def test_triangle_values(self):
        assert closed_nbw_counts(matrix_operator(cycle_matrix(3)), 4) == [0, 0, 6, 0]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_graph_oracle(self, n):
        traces = closed_nbw_counts(matrix_operator(cycle_matrix(n)), 24)
        assert traces == [2 * n if r % n == 0 else 0 for r in range(1, 25)]

    def test_r_max_validation(self):
        with pytest.raises(ValueError):
            closed_nbw_counts(matrix_operator(cycle_matrix(3)), 0)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_exact_across_int64_bound(self, ell, monkeypatch):
        # at r = 40 and ell = 3 the traces themselves exceed 2^63.  p = 37
        # has a half-loop for ell = 2.  The spectral bound leaves the 2^64
        # pass alone at ell = 2 and asks for one prime pass after it at ell = 3.
        g = build_graph(37, ell)
        exact = exact_traces(g.adjacency, 40)
        moduli, pairings = [], nbwalk._pairings

        def counted(nbr, ell, r_max, modulus):
            moduli.append(modulus)
            return pairings(nbr, ell, r_max, modulus)

        monkeypatch.setattr(nbwalk, "_pairings", counted)
        assert closed_nbw_counts(build_nb_operator(g), 40) == exact
        assert (max(exact) > 2**63) == (ell == 3)
        assert moduli[0] == 2**64 and len(moduli) == ell - 1

    def test_prime_bound_counts_the_block_width(self, monkeypatch):
        # np.vdot sums n * block products of residues; primes bounded by n
        # alone let those sums leave int64, and the traces come out wrong
        g = build_graph(37, 3)
        moduli = nbwalk._moduli
        monkeypatch.setattr(nbwalk, "_moduli",
                            lambda terms, need: moduli(terms // nbwalk._BLOCK, need))
        assert closed_nbw_counts(build_nb_operator(g), 40) != exact_traces(g.adjacency, 40)


class TestDirectedCounts:
    def test_triangle(self):
        traces = closed_nbw_counts(matrix_operator(cycle_matrix(3)), 6)
        assert directed_cycle_counts(traces) == {3: 2, 4: 0, 5: 0, 6: 0}

    def test_against_dfs_oracle_samples(self):
        cases = [(13, 2, 8), (37, 2, 8), (61, 2, 8), (73, 3, 6), (97, 2, 8),
                 (109, 3, 6), (157, 2, 8), (193, 3, 5), (241, 2, 7), (337, 2, 7),
                 (433, 2, 6), (601, 3, 4)]
        for p, ell, r_max in cases:
            g = build_graph(p, ell)
            got = directed_cycle_counts(closed_nbw_counts(build_nb_operator(g), r_max))
            assert got == dfs_primitive_cycle_counts(g.adjacency, r_max), (p, ell)

    def test_against_dfs_oracle_acceptance_graphs(self, g1009, g3361):
        for g, r_max in ((g1009, 8), (g3361, 7)):
            got = directed_cycle_counts(closed_nbw_counts(build_nb_operator(g), r_max))
            assert got == dfs_primitive_cycle_counts(g.adjacency, r_max)

    def test_r_max_below_1_names_the_stage(self):
        with pytest.raises(ValueError, match=r"^closed_nbw_counts\(n=3, ell=1, r_max=0\): "):
            closed_nbw_counts(matrix_operator(cycle_matrix(3)), 0)


class TestUndirected:
    def test_halving_on_loop_free(self, g1009, g3361):
        # each cycle of a loop-free graph and its reverse are distinct, so
        # the directed counts halve exactly (criterion 7 halves them)
        for g in (g1009, g3361):
            counts = directed_cycle_counts(closed_nbw_counts(build_nb_operator(g), 8))
            assert all(c % 2 == 0 for c in counts.values())


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
        adj = np.array(multiplicity_matrix(g1009), dtype=object)
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
        eigs = np.linalg.eigvalsh(np.array(multiplicity_matrix(g1009), dtype=float))
        true_lam2 = max(abs(e) for e in eigs[:-1])
        assert abs(lam2 - true_lam2) < 1e-6

    def test_non_regular_rejected(self, g179):
        with pytest.raises(ValueError, match=r"^spectral_check\(p=179, ell=2\) needs p = 1 mod 12"):
            spectral_check(g179)

    def test_ramanujan_with_loops(self, g3229):
        lam1, lam2, verdict = spectral_check(g3229)
        assert lam1 == 4.0
        assert verdict
        assert lam2 <= 2 * np.sqrt(3) + 1e-6

    def test_matches_dense_power_iteration(self, g1009, g3361, g3229):
        # the neighbour array sums each row in another order than the
        # matrix product, so the two may differ in the last bits
        for g in (g1009, g3361, g3229):
            assert abs(spectral_check(g)[1] - dense_second_eigenvalue(g)) < 1e-12

    @pytest.mark.parametrize("ell", [2, 3])
    def test_one_vertex_has_no_second_eigenvalue(self, ell):
        assert spectral_check(build_graph(13, ell)) == (ell + 1.0, 0.0, True)

    def test_no_dense_matrix(self):
        # a dense n x n float matrix at p = 20029 (n = 1669) takes 22 MB, and
        # the power iteration on it about 1.3 s on a 2-vCPU VM
        g = build_graph(20029, 2)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            _, _, verdict = spectral_check(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict
        assert peak < 4 * 10**6
        assert elapsed < 1.3
