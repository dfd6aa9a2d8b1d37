"""Tests of the benchmark's own checks, tracing and workload lists.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import spans
import workloads
from isocycles import cli, ff, hilbert, ssgraph

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(tmp_path, *argv):
    out = tmp_path / "out.json"
    rc = cli.main(list(argv) + ["--out", str(out)])
    return rc, json.loads(out.read_text())


# --- class numbers ---------------------------------------------------------

@pytest.mark.parametrize("D, h", [(-3, 1), (-4, 1), (-7, 1), (-15, 2), (-20, 2),
                                  (-23, 3), (-47, 5), (-56, 4), (-71, 7), (-84, 4),
                                  (-99, 2), (-100, 2), (-163, 1), (-3299, 27)])
def test_class_number_known_values(D, h):
    assert checks.class_number(D) == h


def hurwitz(n):
    """Hurwitz class number H(n) from the benchmark's class numbers."""
    if n == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    f = 1
    while f * f <= n:
        if n % (f * f) == 0 and (-n // (f * f)) % 4 in (0, 1):
            D = -n // (f * f)
            total += Fraction(checks.class_number(D), {-3: 3, -4: 2}.get(D, 1))
        f += 1
    return total


@pytest.mark.parametrize("m", range(1, 80))
def test_class_number_satisfies_kronecker_hurwitz(m):
    lhs = sum(hurwitz(4 * m - t * t) for t in range(-2 * m, 2 * m + 1) if t * t <= 4 * m)
    sigma = sum(checks.divisors(m))
    rhs = 2 * sigma - sum(min(d, m // d) for d in checks.divisors(m))
    assert lhs == rhs


def test_fp_rational_count_on_small_primes():
    # F_p-rational supersingular j-invariants, counted on built graphs
    for p in (101, 103, 107, 109, 179, 181, 191, 227):
        g = ssgraph.build_graph(p, 2)
        assert sum(1 for v in g.vertices if v.b == 0) == checks.fp_rational_count(p)


# --- graphs ----------------------------------------------------------------

def test_check_graph_accepts_program_graphs(tmp_path):
    for p, ell in [(179, 2), (181, 2), (1009, 3), (1039, 2)]:
        rc, payload = export(tmp_path, "graph", "--p", str(p), "--ell", str(ell))
        assert rc == 0
        assert checks.check_graph(payload, p, ell) == []


def test_check_graph_flags_tampering(tmp_path):
    _, payload = export(tmp_path, "graph", "--p", "181", "--ell", "2")
    bad = dict(payload, vertices=payload["vertices"][:-1])
    assert any("census" in e for e in checks.check_graph(bad, 181, 2))
    a, b = checks.parse_vertex(payload["vertices"][-1], 181)
    bad = dict(payload, vertices=payload["vertices"][:-1] + [f"{a}+{(b + 1) % 181}*s"])
    assert any("Frobenius" in e for e in checks.check_graph(bad, 181, 2))
    rows = [list(r) for r in payload["adjacency"]]
    rows[0] = rows[0][1:]
    assert any("out-degree" in e for e in checks.check_graph(dict(payload, adjacency=rows), 181, 2))


# --- cycle counts ----------------------------------------------------------

def test_ihara_bass_matches_program_without_half_loops(tmp_path):
    _, graph = export(tmp_path, "graph", "--p", "1009", "--ell", "2")
    rc, count = export(tmp_path, "count", "--p", "1009", "--ell", "2", "--r-max", "10",
                       "--method", "both")
    assert rc == 0
    cycles = checks.primitive_counts(checks.ihara_bass_traces(graph, 10))
    assert checks.check_count(count, 1009, 2, 10, "both", cycles) == []


def test_ihara_bass_agrees_with_order_side_at_613(tmp_path):
    # 613 has a half-loop; the true counts are the order side's
    _, graph = export(tmp_path, "graph", "--p", "613", "--ell", "2")
    _, orders = export(tmp_path, "count", "--p", "613", "--ell", "2", "--r-max", "12",
                       "--method", "orders")
    cycles = checks.primitive_counts(checks.ihara_bass_traces(graph, 12))
    assert checks.check_count(orders, 613, 2, 12, "orders", cycles) == []
    assert [cycles[r] for r in (8, 9, 10)] == [26, 58, 92]


def test_check_count_flags_half_loop_mismatch_at_613(tmp_path):
    _, graph = export(tmp_path, "graph", "--p", "613", "--ell", "2")
    rc, count = export(tmp_path, "count", "--p", "613", "--ell", "2", "--r-max", "10",
                       "--method", "both")
    cycles = checks.primitive_counts(checks.ihara_bass_traces(graph, 10))
    errors = checks.check_count(count, 613, 2, 10, "both", cycles)
    assert rc == 1
    assert errors and all(e.startswith(checks.GRAPH_SIDE_MISMATCH) for e in errors)
    assert any("c_8=30" in e for e in errors)


def test_check_count_flags_wrong_order_side():
    payload = {"p": 181, "ell": 2, "r_max": 3,
               "rows": [{"r": 3, "orders": 7, "c_bound": 5.0}]}
    errors = checks.check_count(payload, 181, 2, 3, "orders", {3: 6})
    assert any("c_bound" in e for e in errors)
    assert any("Ihara-Bass gives 6" in e for e in errors)


# --- orders and rims -------------------------------------------------------

def test_check_orders_accepts_and_flags(tmp_path):
    rc, payload = export(tmp_path, "orders", "--p", "179", "--ell", "2", "--r", "8",
                         "--format", "json")
    assert rc == 0
    assert checks.check_orders(payload, 179, 2, 8, {}) == []
    payload["records"][0]["h"] += 1
    assert any("reduced forms give" in e for e in checks.check_orders(payload, 179, 2, 8, {}))


def test_check_locate_accepts_and_flags(tmp_path):
    _, graph = export(tmp_path, "graph", "--p", "179", "--ell", "2")
    rc, payload = export(tmp_path, "locate", "--p", "179", "--ell", "2", "--disc", "-255")
    assert rc == 0
    poly = list(hilbert.hilbert_class_poly(-255).coefficients)
    assert checks.check_locate(payload, 179, 2, -255, 6, 12, graph, poly) == []
    on_rims = {checks.parse_vertex(v, 179) for cyc in payload["cycles"] for v in cyc}
    other = next(v for v in graph["vertices"] if checks.parse_vertex(v, 179) not in on_rims)
    payload["cycles"][0] = payload["cycles"][0][1:] + [other]
    errors = checks.check_locate(payload, 179, 2, -255, 6, 12, graph, poly)
    assert any("not a root" in e for e in errors)


def test_fp2_eval_matches_program_arithmetic():
    field = ff.PrimeField(179)
    x = field.elem(17, 5)
    coeffs = [3, 0, 7, 1]
    expected = x * x * x + field.elem(7) * x * x + field.elem(3)
    assert checks.fp2_eval(coeffs, (17, 5), 179, field.non_residue) == expected.key()


# --- tracing and workloads -------------------------------------------------

def test_tracer_wraps_imported_names_and_restores():
    original = ff.poly_roots
    tracer = spans.Tracer()
    with tracer:
        assert ssgraph.poly_roots is ff.poly_roots is hilbert.poly_roots
        assert ff.poly_roots is not original
        with tracer.op():
            ssgraph.build_graph(179, 2)
    assert ff.poly_roots is original and ssgraph.poly_roots is original
    assert tracer.counts["ssgraph.graphs"] == 1
    assert tracer.counts["ssgraph.vertices"] == 16
    assert tracer.counts["ff.poly_roots_calls"] == 16
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "ssgraph.build_graph", "ff.poly_roots"} <= names
    build = next(i for i, s in enumerate(tracer.spans) if s[0] == "ssgraph.build_graph")
    assert all(s[3] == build for s in tracer.spans if s[0] == "ff.poly_roots")


def test_self_times_subtract_children():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    got = spans.self_times(recorded)
    assert got == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_workload_ops_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.ops(name, 7) == workloads.ops(name, 7)
        assert sorted(map(repr, workloads.ops(name, 7))) == sorted(map(repr, workloads.ops(name, 8)))
    known = [op for op in workloads.ops("cycles-both", 1) if op.known_fault]
    assert [(op.p, op.ell, op.arg) for op in known] == [(613, 2, 10)]


def test_runner_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graph-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    reported = {f"{n}_s" for n in spans.span_names()} | set(spans.COUNTS) | {"trace.overhead_s"}
    assert per_layer == reported
    assert [w["name"] for w in bench["workloads"]] == workloads.WORKLOADS
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "cpu_s", "peak_rss_mb", "setup_s"}
