import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from isocycles import hilbert, ordercount, ssgraph
from isocycles.cli import main
from oracles import rims_on_ell_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphCommand:
    def test_no_cm_seed_exits_2_with_stage(self, capsys, monkeypatch):
        monkeypatch.setattr(ssgraph, "_SEED_SEARCH_LIMIT", 5)
        code, _, err = run(capsys, "graph", "--p", "13", "--ell", "2")
        assert code == 2
        assert err.startswith(
            "error: build_graph(p=13, ell=2): initial_supersingular_j(p=13): no CM seed")

    def test_json_output(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, stdout, err = run(capsys, "graph", "--p", "179", "--ell", "2",
                                "--format", "json", "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert "vertices: 16" in err and "census: ok" in err
        payload = json.loads(out.read_text())
        assert len(payload["vertices"]) == 16

    def test_dot_output(self, capsys, tmp_path):
        out = tmp_path / "g.dot"
        code, _, _ = run(capsys, "graph", "--p", "1009", "--ell", "2",
                         "--format", "dot", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("graph isogeny_1009_2")
        assert text.count("label=") >= 84

    def test_dot_output_3361_has_280_nodes(self, capsys, tmp_path):
        import re

        out = tmp_path / "g.dot"
        code, _, _ = run(capsys, "graph", "--p", "3361", "--ell", "2",
                         "--format", "dot", "--out", str(out))
        assert code == 0
        nodes = re.findall(r"^  v\d+ \[label=", out.read_text(), flags=re.M)
        assert len(nodes) == 280

    def test_rejects_composite_p(self, capsys):
        code, _, err = run(capsys, "graph", "--p", "4", "--ell", "2")
        assert code == 2
        assert "prime" in err

    def test_rejects_ell_not_below_p(self, capsys):
        code, _, err = run(capsys, "graph", "--p", "5", "--ell", "5")
        assert code == 2


class TestCountCommand:
    def test_orders_method_179(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        code, stdout, _ = run(capsys, "count", "--p", "179", "--ell", "2",
                              "--r-max", "6", "--method", "orders", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row["orders"] for row in payload["rows"]] == [2, 2, 2, 14]

    def test_both_methods_match(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        code, _, err = run(capsys, "count", "--p", "1009", "--ell", "2",
                           "--r-max", "6", "--method", "both", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(row["match"] for row in payload["rows"])
        assert "match=True" in err

    def test_graph_method_gate(self, capsys):
        code, _, err = run(capsys, "count", "--p", "179", "--ell", "2",
                           "--r-max", "4", "--method", "graph")
        assert code == 2
        assert "1 mod 12" in err

    def test_r_max_cap(self, capsys):
        code, _, err = run(capsys, "count", "--p", "179", "--ell", "2",
                           "--r-max", "99", "--method", "orders")
        assert code == 2


class TestOrdersCommand:
    def test_p_past_the_primality_bound_refused_before_any_work(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the primality-range refusal")

        monkeypatch.setattr(ordercount, "enumerate_orders", forbidden)
        code, _, err = run(capsys, "orders", "--p", "3317044064679887385961981",
                           "--ell", "2", "--r", "3")
        assert code == 2
        assert err == ("error: --p 3317044064679887385961981 is past the proven "
                       "primality range: it must be below 3317044064679887385961981\n")

    @pytest.mark.parametrize("argv", [
        ["orders", "--p", "179", "--ell", "2", "--r", "2"],
        ["orders", "--p", "179", "--ell", "2", "--r", "41"],
        ["bound", "--ell", "2", "--N", "2"],
        ["bound", "--ell", "2", "--N", "41"],
    ], ids=lambda argv: f"{argv[-2]}={argv[-1]}")
    def test_level_out_of_range_refused_before_any_work(self, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the level refusal")

        monkeypatch.setattr(ordercount, "enumerate_orders", forbidden)
        monkeypatch.setattr(ordercount, "bound_b", forbidden)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {argv[-2]} must be within 3..40\n"

    def test_csv(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "orders", "--r", "6", "--p", "179",
                           "--ell", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        for d in ("-87", "-231", "-247", "-255", "-135"):
            assert d in err

    def test_json(self, capsys, tmp_path):
        out = tmp_path / "o.json"
        code, _, _ = run(capsys, "orders", "--r", "3", "--p", "179",
                         "--ell", "2", "--format", "json", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["c_N"] == 2


class TestBoundCommand:
    def test_values(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        code, stdout, _ = run(capsys, "bound", "--N", "6", "--ell", "2",
                              "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["B_N"] >= 94
        assert payload["c_N_bound"] >= 14


class TestSpectralCommand:
    def test_1009(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, stdout, _ = run(capsys, "spectral", "--p", "1009", "--ell", "2",
                              "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ramanujan"] is True
        assert payload["lambda2"] <= payload["ramanujan_bound"] + 1e-6

    @pytest.mark.parametrize("ell", ["2", "3"])
    def test_one_vertex_graph(self, capsys, ell):
        # p = 13 has one vertex and no eigenvalue on 1-perp
        code, stdout, _ = run(capsys, "spectral", "--p", "13", "--ell", ell)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["lambda2"] == 0.0
        assert payload["ramanujan"] is True

    @pytest.mark.parametrize("argv,message", [
        (["spectral"], "the spectral check needs p = 1 mod 12 (extra-automorphism gate); "
                       "p=179 is 11 mod 12"),
        (["count", "--r-max", "4", "--method", "graph"],
         "graph-side counting needs p = 1 mod 12 (extra-automorphism gate); p=179 is 11 mod 12"),
    ], ids=["spectral", "count"])
    def test_p_not_1_mod_12_refused_before_any_work(self, capsys, monkeypatch, argv, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("built the graph before the refusal")

        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        code, stdout, err = run(capsys, argv[0], "--p", "179", "--ell", "2", *argv[1:])
        assert code == 2
        assert stdout == ""
        assert err == f"error: {message}\n"


class TestLocateCommand:
    def test_minus_31(self, capsys, tmp_path):
        out = tmp_path / "l.json"
        code, stdout, _ = run(capsys, "locate", "--disc", "-31", "--p", "179",
                              "--ell", "2", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["cycles"]) == 1
        assert set(payload["cycles"][0]) == {"171", "109+16*s", "109+163*s"}

    def test_split_disc_fails(self, capsys):
        code, _, err = run(capsys, "locate", "--disc", "-23", "--p", "179",
                           "--ell", "2")
        assert code == 2

    def test_over_degree_cap_refused_before_any_work(self, capsys, monkeypatch):
        # h(-7831) = 66 is over the root-finding cap of 64
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the class-number refusal")

        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        monkeypatch.setattr(hilbert, "_class_poly_cached", forbidden)
        code, _, err = run(capsys, "locate", "--disc", "-7831", "--p", "3361",
                           "--ell", "2")
        assert code == 2
        assert "h(-7831) = 66 exceeds the root-finding degree cap 64" in err
        assert err.startswith("error: locate_rim_vertices(D=-7831, p=3361, ell=2): ")

    @pytest.mark.parametrize("p,ell,disc,message", [
        (10009, 3, -20, "p=10009 splits in the field of discriminant -20"),
        (179, 2, -3, "2 does not split in discriminant -3"),
        (13, 2, -1183, "p=13 divides the conductor of -1183"),
        (179, 5, -31, "level 5 is not embedded and no modular polynomial directory given"),
    ])
    def test_input_refusals_before_any_work(self, capsys, monkeypatch, p, ell, disc, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the refusal")

        monkeypatch.delenv("ISOCYCLES_MODPOLY_DIR", raising=False)

        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        monkeypatch.setattr(hilbert, "_class_poly_cached", forbidden)
        code, _, err = run(capsys, "locate", "--disc", str(disc), "--p", str(p),
                           "--ell", str(ell))
        assert code == 2
        assert err.startswith(f"error: locate_rim_vertices(D={disc}, p={p}, ell={ell}): "
                              f"{message}")

    def test_ell_3_needs_neither_the_ell_graph_nor_root_splitting(self, capsys, monkeypatch,
                                                                   tmp_path):
        # the ell = 2 graph supplies the vertices, deflation the roots and
        # Phi_3(u, v) = 0 the adjacency
        (rec, *_) = ordercount.enumerate_orders(4, 179, 3)
        D = rec.discriminant.value
        expected = [[str(v) for v in cyc]
                    for cyc in rims_on_ell_graph(D, ssgraph.build_graph(179, 3))]
        build = ssgraph.build_graph

        def ell_2_only(p, ell, **kwargs):
            if ell != 2:
                raise AssertionError(f"built the ell = {ell} graph")
            return build(p, ell, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("general root splitting called")

        monkeypatch.setattr(ssgraph, "build_graph", ell_2_only)
        monkeypatch.setattr(hilbert, "poly_roots", forbidden)
        out = tmp_path / "l.json"
        code, _, _ = run(capsys, "locate", "--disc", str(D), "--p", "179", "--ell", "3",
                         "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["cycles"] == expected

    def test_threading_search_is_bounded(self, capsys):
        # h(-8648) = 56 roots at (179, 3), 15 distinct with multiplicities
        # 2..6, into cycles of length 7: the search used to run forever
        start = time.monotonic()
        code, _, err = run(capsys, "locate", "--disc", "-8648", "--p", "179", "--ell", "3")
        assert code == 2
        assert err == ("error: locate_rim_vertices(D=-8648, p=179, ell=3): threading 56 "
                       "roots into cycles of length 7 exceeded the search budget of "
                       f"{hilbert.THREADING_BUDGET} steps\n")
        assert time.monotonic() - start < 60


class TestStdout:
    @pytest.mark.parametrize("argv", [
        ["graph", "--p", "179", "--ell", "2"],
        ["count", "--p", "179", "--ell", "2", "--r-max", "4", "--method", "orders"],
        ["orders", "--p", "179", "--ell", "2", "--r", "3", "--format", "json"],
        ["bound", "--N", "6", "--ell", "2"],
        ["spectral", "--p", "37", "--ell", "2"],
        ["locate", "--disc", "-31", "--p", "179", "--ell", "2"],
    ], ids=lambda argv: argv[0])
    def test_stdout_is_the_json_payload(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert code == 0
        assert json.loads(stdout)["schema"] == 1
        assert err

    def test_orders_csv_on_stdout_starts_with_its_header(self, capsys):
        code, stdout, err = run(capsys, "orders", "--p", "179", "--ell", "2", "--r", "6")
        assert code == 0
        assert stdout.startswith("r,x,f,discriminant,h,g,eps_num,eps_den\n")
        assert "-255" in err


class TestModpolyDir:
    @pytest.mark.parametrize("argv,flag", [
        (["bound", "--N", "6", "--ell", "2"], ["--modpoly-dir", "/nonexistent"]),
        (["orders", "--p", "179", "--ell", "2", "--r", "3"], ["--modpoly-dir", "/nonexistent"]),
        # the class polynomial precision follows from the reduced forms alone
        (["locate", "--disc", "-31", "--p", "179", "--ell", "2"], ["--precision-bits", "4096"]),
    ], ids=["bound", "orders", "locate"])
    def test_refused_where_no_graph_is_built(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "count", "--p", "179", "--ell", "2",
                             "--r-max", "6", "--method", "orders",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestColdStart:
    def test_commands_run_without_importing_sympy(self, tmp_path):
        # sympy costs about 0.35 s and 30 MB at import, mpmath about 0.02 s;
        # the program needs neither
        run_fresh(f"""
            import sys
            from isocycles import cli
            commands = [
                ["graph", "--p", "1009", "--ell", "2"],
                ["count", "--p", "613", "--ell", "2", "--r-max", "6", "--method", "both"],
                ["orders", "--p", "179", "--ell", "2", "--r", "5"],
                ["bound", "--N", "6", "--ell", "2"],
                ["locate", "--disc", "-31", "--p", "179", "--ell", "2"],
            ]
            for k, argv in enumerate(commands):
                assert cli.main(argv + ["--out", {str(tmp_path)!r} + f"/{{k}}"]) == 0, argv
            assert "sympy" not in sys.modules, "sympy was imported"
            assert "mpmath" not in sys.modules, "mpmath was imported"
        """)

    def test_numpy_loads_only_for_graph_side_counts(self, tmp_path):
        # numpy is imported inside the graph-side counts and the spectral
        # check, so importing the CLI and running graph, orders, bound and
        # locate never load it
        run_fresh(f"""
            import sys
            from isocycles import cli
            assert "numpy" not in sys.modules, "numpy was imported with the CLI"
            commands = [
                ["graph", "--p", "1009", "--ell", "2"],
                ["orders", "--p", "179", "--ell", "2", "--r", "5"],
                ["bound", "--N", "6", "--ell", "2"],
                ["locate", "--disc", "-31", "--p", "179", "--ell", "2"],
            ]
            for k, argv in enumerate(commands):
                assert cli.main(argv + ["--out", {str(tmp_path)!r} + f"/{{k}}"]) == 0, argv
            assert "numpy" not in sys.modules, "numpy was imported"
        """)


def run_fresh(script):
    """Run a script in a new interpreter that imports the program from src."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hilbert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
