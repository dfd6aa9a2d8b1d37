import json
import os
import subprocess
import sys
import textwrap

import pytest

from isocycles import hilbert, ordercount, ssgraph
from isocycles.cli import main


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

    def test_precision_bits_leave_later_calls_at_default(self, capsys, monkeypatch):
        # the flag reaches the one locate call it was given and nothing after
        used = []
        expand = hilbert._expand_at

        def recording(forms, D, precision):
            used.append(precision)
            return expand(forms, D, precision)

        monkeypatch.setattr(hilbert, "_expand_at", recording)
        hilbert._class_poly_cached.cache_clear()
        argv = ["locate", "--disc", "-31", "--p", "179", "--ell", "2"]
        code, high, _ = run(capsys, *argv, "--precision-bits", "4096")
        assert code == 0 and used == [4096]
        code, default, _ = run(capsys, *argv)
        assert code == 0 and high == default
        assert len(used) == 2 and used[1] < 4096
        # a direct call at default precision reuses the default expansion
        hilbert.hilbert_class_poly(-31)
        assert len(used) == 2

    def test_precision_bits_over_cap_refused(self, capsys):
        code, _, err = run(capsys, "locate", "--disc", "-31", "--p", "179",
                           "--ell", "2", "--precision-bits", "8193")
        assert code == 2 and "--precision-bits must be within 0..8192" in err


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
    @pytest.mark.parametrize("argv", [
        ["bound", "--N", "6", "--ell", "2"],
        ["orders", "--p", "179", "--ell", "2", "--r", "3"],
    ], ids=lambda argv: argv[0])
    def test_refused_where_no_graph_is_built(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--modpoly-dir", "/nonexistent"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --modpoly-dir" in capsys.readouterr().err


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
        # sympy costs about 0.35 s and 30 MB at import; the program needs none of it
        script = textwrap.dedent(f"""
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
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(hilbert.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
