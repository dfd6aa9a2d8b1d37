import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from isocycles import cli, ff, hilbert, nbwalk, ordercount, quadform, ssgraph
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

    def test_zero_inverse_exits_2_with_stage(self, capsys, monkeypatch):
        # a cube root of 0 makes Cardano invert 3u = 0 in the seed cubic
        monkeypatch.setattr(ff, "_cube_root", lambda x, p, n: (0, 0))
        code, out, err = run(capsys, "graph", "--p", "179", "--ell", "2")
        assert code == 2 and out == ""
        assert err == "error: build_graph(p=179, ell=2): inverse of 0 in F_(p^2), p=179\n"

    def test_json_output(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, stdout, err = run(capsys, "graph", "--p", "179", "--ell", "2",
                                "--format", "json", "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert "vertices: 16" in err and "census: ok" in err
        payload = json.loads(out.read_text())
        assert len(payload["vertices"]) == 16

    @pytest.mark.parametrize("to_out", [True, False], ids=["out", "stdout"])
    def test_json_is_written_in_pieces(self, capsys, monkeypatch, tmp_path, g3361, to_out):
        # the encoder's bytes, with a peak near twice the text, where joining
        # its chunks first peaks near eight times
        import tracemalloc

        text = "".join(g3361.json_chunks())
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        monkeypatch.setattr(ssgraph, "build_graph", lambda p, ell, modpoly_dir: g3361)
        out = tmp_path / "g.json"
        argv = ["graph", "--p", "3361", "--ell", "2"] + (["--out", str(out)] if to_out else [])
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stdout = capsys.readouterr().out
        assert code == 0
        assert (out.read_text() if to_out else stdout) == text
        if to_out:
            assert peak < 4 * len(text)

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

    def test_shifted_even_traces_fail_the_level_check(self, capsys, monkeypatch, tmp_path):
        # adding h (the half-loops) to every even trace leaves every c_r with
        # r >= 3 unchanged, since sum over m | k of mu(k/m) is 0 for k > 1;
        # only the level check tr B^N = Q_N sees it
        g = ssgraph.build_graph(613, 2)
        h = sum(row.get(v, 0) % 2 for v, row in enumerate(g.adjacency))
        assert h > 0
        traces = nbwalk.closed_nbw_counts

        def shifted(op, r_max):
            return [t + h * (n % 2 == 0) for n, t in enumerate(traces(op, r_max), 1)]

        monkeypatch.setattr(nbwalk, "closed_nbw_counts", shifted)
        out = tmp_path / "c.json"
        code, _, err = run(capsys, "count", "--p", "613", "--ell", "2",
                           "--r-max", "10", "--method", "both", "--out", str(out))
        assert code == 1
        rows = json.loads(out.read_text())["rows"]
        assert all(row["graph"] == row["orders"] for row in rows)
        assert not any(row["match"] for row in rows)
        assert err.endswith(f"level mismatch at N=2: closed_nbw_counts gives tr B^N = "
                            f"{traces(nbwalk.build_nb_operator(g), 2)[1] + h}, "
                            f"order_side_cycle_count gives Q_N = "
                            f"{ordercount.order_side_cycle_count(3, 613, 2).sums[2]}\n")

    def test_graph_method_gate(self, capsys):
        code, _, err = run(capsys, "count", "--p", "179", "--ell", "2",
                           "--r-max", "4", "--method", "graph")
        assert code == 2
        assert "1 mod 12" in err

    def test_r_max_cap(self, capsys):
        code, _, err = run(capsys, "count", "--p", "179", "--ell", "2",
                           "--r-max", "99", "--method", "orders")
        assert code == 2

    @pytest.mark.parametrize("r_max", ["1", "2", "41"])
    def test_r_max_out_of_range_refused_before_any_work(self, capsys, monkeypatch, r_max):
        # rows start at r = 3, so r-max 1 and 2 used to print no rows and exit 0
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the --r-max refusal")

        monkeypatch.setattr(ordercount, "_records", forbidden)
        monkeypatch.setattr(quadform, "form_counts", forbidden)
        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        code, stdout, err = run(capsys, "count", "--p", "3361", "--ell", "2",
                                "--r-max", r_max, "--method", "both")
        assert code == 2
        assert stdout == ""
        assert err == "error: --r-max must be within 3..40\n"

    @pytest.mark.parametrize("ell,r_max,method,message", [
        ("2", "25", "orders", "q_set(N=25, p=13, ell=2): 4*ell^N = 134217728 exceeds the "
                              "discriminant cap 100000000"),
        ("3", "16", "orders", "q_set(N=16, p=13, ell=3): 4*ell^N = 172186884 exceeds the "
                              "discriminant cap 100000000"),
        ("2", "25", "both", "q_set(N=25, p=13, ell=2): 4*ell^N = 134217728 exceeds the "
                            "discriminant cap 100000000"),
    ], ids=["orders-ell2", "orders-ell3", "both-ell2"])
    def test_r_max_over_the_level_cap_refused_before_any_work(self, capsys, monkeypatch, ell,
                                                              r_max, method, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the level-cap refusal")

        monkeypatch.setattr(ordercount, "_records", forbidden)
        monkeypatch.setattr(quadform, "form_counts", forbidden)
        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        code, stdout, err = run(capsys, "count", "--p", "13", "--ell", ell,
                                "--r-max", r_max, "--method", method)
        assert code == 2
        assert stdout == ""
        assert err == f"error: {message}\n"

    def test_graph_method_takes_r_max_40(self, capsys):
        code, stdout, _ = run(capsys, "count", "--p", "13", "--ell", "2",
                              "--r-max", "40", "--method", "graph")
        assert code == 0
        assert [row["r"] for row in json.loads(stdout)["rows"]] == list(range(3, 41))


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

    def test_json_census_refuses_a_lift_that_disagrees_with_the_sweep(self, capsys,
                                                                      monkeypatch):
        # one exponent too many in the lift of -135 = 3^2 * -15 (h = 6, not
        # 18) keeps g and the order of the class above 2 dividing h; only the
        # swept level sum Q_6 = 94 catches it
        lift = quadform.lift_class_number

        def wrong_exponent(D, field_h):
            h = lift(D, field_h)
            return h * min(ff.factor(D.conductor)) if D.conductor > 1 else h

        monkeypatch.setattr(quadform, "lift_class_number", wrong_exponent)
        code, stdout, err = run(capsys, "orders", "--r", "6", "--p", "179",
                                "--ell", "2", "--format", "json")
        assert code == 2
        assert stdout == ""
        assert err == ("error: order_census(N=6, p=179, ell=2): the records sum to 118, "
                       "the swept form count to Q_N = 94\n")


class TestBoundCommand:
    def test_values(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        code, stdout, _ = run(capsys, "bound", "--N", "6", "--ell", "2",
                              "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["B_N"] >= 94
        assert payload["c_N_bound"] >= 14

    def test_past_the_float_range_names_its_stage(self, capsys):
        code, stdout, err = run(capsys, "bound", "--ell", "1000000007", "--N", "40")
        assert code == 2
        assert stdout == ""
        assert err == ("error: bound_b(N=40, ell=1000000007): the bounds are past the "
                       "float range\n")


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
        monkeypatch.setattr(hilbert, "hilbert_class_poly", forbidden)
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
        # h(-99999999) = 6976 is over the root-finding cap too
        (179, 2, -99999999, "|D| = 99999999 exceeds cap 100000"),
    ])
    def test_input_refusals_before_any_work(self, capsys, monkeypatch, p, ell, disc, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the refusal")

        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        monkeypatch.setattr(hilbert, "hilbert_class_poly", forbidden)
        if message.startswith("|D|"):  # the |D| cap comes before the class number
            monkeypatch.setattr(quadform, "class_number", forbidden)
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

    @pytest.mark.parametrize("make,reason", [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"ell=5\n\xff 0 1\n"), "not UTF-8 at byte 6"),
    ], ids=["missing", "directory", "non-utf8"])
    @pytest.mark.parametrize("argv,where", [
        (["graph", "--p", "101", "--ell", "5"], "build_graph(p=101, ell=5)"),
        (["locate", "--disc", "-31", "--p", "101", "--ell", "5"],
         "locate_rim_vertices(D=-31, p=101, ell=5)"),
    ], ids=["graph", "locate"])
    def test_unreadable_file_is_refused(self, capsys, tmp_path, argv, where, make, reason):
        path = tmp_path / "phi5.txt"
        make(path)
        code, stdout, err = run(capsys, *argv, "--modpoly-dir", str(tmp_path))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {where}: cannot read {path}: {reason}\n"


class TestOut:
    @pytest.mark.parametrize("name,reason", [
        ("missing/g.json", "no directory {tmp}/missing"),
        (".", "is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path, name, reason):
        def forbidden(*args, **kwargs):
            raise AssertionError("built a graph before the --out refusal")

        monkeypatch.setattr(ssgraph, "build_graph", forbidden)
        out = f"{tmp_path}/{name}"
        code, stdout, err = run(capsys, "graph", "--p", "179", "--ell", "2", "--out", out)
        assert code == 2
        assert stdout == ""
        assert err == f"error: --out {out}: {reason.format(tmp=tmp_path)}\n"

    def test_failed_write_is_refused_with_its_reason(self, capsys, monkeypatch, tmp_path):
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.tempfile, "mkstemp", denied)
        out = tmp_path / "b.json"
        code, stdout, err = run(capsys, "bound", "--N", "5", "--ell", "2", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.endswith(f"error: --out {out}: Permission denied\n")
        assert not out.exists()


class TestSharedParser:
    def test_main_never_rebuilds_the_parser(self, capsys, monkeypatch):
        def forbidden():
            raise AssertionError("rebuilt the parser")

        monkeypatch.setattr(cli, "_build_parser", forbidden)
        code, stdout, _ = run(capsys, "bound", "--N", "6", "--ell", "2")
        assert code == 0
        assert json.loads(stdout)["N"] == 6

    def test_no_attribute_passes_between_calls(self, capsys, monkeypatch):
        seen = []

        def record(args):
            seen.append(args)
            return "", True

        for command in ("orders", "graph"):
            monkeypatch.setitem(cli._HANDLERS, command, record)
        assert run(capsys, "orders", "--p", "179", "--ell", "2", "--r", "5")[0] == 0
        assert run(capsys, "graph", "--p", "179", "--ell", "2")[0] == 0
        first, second = seen
        assert first.r == 5 and first.format == "csv"
        assert not hasattr(second, "r")
        assert second.format == "json"

    @pytest.mark.parametrize("argv", [
        ["count", "--p", "179", "--ell", "2", "--method", "orders"],
        ["count", "--p", "179", "--ell", "2", "--r-max", "4", "--method", "bogus"],
    ], ids=["missing-r-max", "bad-method"])
    def test_usage_errors_match_a_fresh_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as fresh:
            cli._build_parser().parse_args(argv)
        want = capsys.readouterr().err
        run(capsys, "orders", "--p", "179", "--ell", "2", "--r", "5")
        run(capsys, "bound", "--N", "6", "--ell", "2")
        with pytest.raises(SystemExit) as shared:
            main(argv)
        assert shared.value.code == fresh.value.code == 2
        assert capsys.readouterr().err == want
        assert want.startswith("usage: isocycles count ")


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
            assert "dataclasses" not in sys.modules, "dataclasses was imported"
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
            assert "dataclasses" not in sys.modules, "dataclasses was imported"
        """)


def run_fresh(script):
    """Run a script in a new interpreter that imports the program from src."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hilbert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
