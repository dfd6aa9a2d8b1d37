"""Regenerate tests/golden_cli.json, the CLI behaviour contract.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_cli.py

It takes no arguments: given any, it prints this text to stderr, exits 2
and writes nothing.  Each command runs in-process through
`isocycles.cli.main`.  The file holds per command its argv, exit code and
the sha256 digests of stdout and stderr; outputs of at most SMALL
characters are kept as text too, so that a failing test can show the
diff.  The script prints each argv whose entry changed.  A change to an
entry is a change to test data: say which and why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from isocycles import cli
from isocycles.ff import is_prime
from isocycles.ordercount import enumerate_orders

GOLDEN = Path(__file__).with_name("golden_cli.json")
SMALL = 600


def corpus() -> list[list[str]]:
    """Every subcommand and format, and one refusal or more per stage prefix."""
    cmds = []
    for ell in (2, 3):
        cmds += [["graph", "--p", str(p), "--ell", str(ell)]
                 for p in range(5, 400) if is_prime(p)]
    cmds.append(["graph", "--p", "179", "--ell", "2", "--format", "json"])
    cmds += [["graph", "--p", str(p), "--ell", "3", "--format", "dot"] for p in (1009, 3229)]
    # the ell = 3 graphs of perfbench's graph-sweep, one per residue class mod 12
    cmds += [["graph", "--p", str(p), "--ell", "3", "--format", "json"]
             for p in (1033, 1049, 1063, 2003)]
    for ell, below, r_max in ((2, 1000, 9), (3, 400, 6)):
        cmds += [["count", "--p", str(p), "--ell", str(ell), "--r-max", str(r_max),
                  "--method", "both"] for p in range(13, below, 12) if is_prime(p)]
    cmds.append(["count", "--p", "1009", "--ell", "2", "--r-max", "10", "--method", "graph"])
    cmds.append(["count", "--p", "3361", "--ell", "2", "--r-max", "16", "--method", "orders"])
    for p in (179, 1019, 409):
        cmds += [["orders", "--p", str(p), "--ell", "2", "--r", str(r)] for r in range(3, 10)]
    cmds += [["orders", "--p", "179", "--ell", "2", "--r", str(r), "--format", "json"]
             for r in range(3, 10)]
    for ell in (2, 3, 5):
        cmds += [["bound", "--N", str(n), "--ell", str(ell)] for n in range(3, 25)]
    cmds += [["spectral", "--p", str(p), "--ell", "2"] for p in (13, 1009, 3361)]
    discs = {rec.discriminant.value: None
             for r in range(3, 10) for rec in enumerate_orders(r, 179, 2)}
    cmds += [["locate", "--disc", str(d), "--p", "179", "--ell", "2"] for d in discs]
    cmds += [["locate", "--disc", d, "--p", "613", "--ell", "2"] for d in ("-975", "-855")]
    cmds.append(["locate", "--disc", "-107", "--p", "179", "--ell", "3"])
    # refusals, one or more per stage prefix
    cmds += [
        ["graph", "--p", "101", "--ell", "5"],                                # build_graph(
        # locate_rim_vertices(
        ["locate", "--disc", "-23", "--p", "179", "--ell", "2"],
        ["locate", "--disc", "-3", "--p", "179", "--ell", "2"],
        ["locate", "--disc", "-1183", "--p", "13", "--ell", "2"],
        ["locate", "--disc", "-7831", "--p", "3361", "--ell", "2"],
        ["locate", "--disc", "-31", "--p", "179", "--ell", "5"],
        ["locate", "--disc", "-100787", "--p", "150001", "--ell", "3"],
        ["locate", "--disc", "-99999999", "--p", "179", "--ell", "2"],
        ["locate", "--disc", "-100000004", "--p", "179", "--ell", "2"],
        ["count", "--p", "13", "--ell", "2", "--r-max", "25", "--method", "orders"],  # q_set(
        ["count", "--p", "13", "--ell", "3", "--r-max", "16", "--method", "both"],
        ["bound", "--ell", "1000000007", "--N", "40"],                       # bound_b(
        ["spectral", "--p", "179", "--ell", "2"],                             # p = 1 mod 12 gate
        ["count", "--p", "179", "--ell", "2", "--r-max", "4", "--method", "graph"],
        ["graph", "--p", "4", "--ell", "2"],                                  # flag checks
        ["graph", "--p", "5", "--ell", "5"],
        ["count", "--p", "179", "--ell", "2", "--r-max", "99", "--method", "orders"],
        ["count", "--p", "3361", "--ell", "2", "--r-max", "2", "--method", "both"],
        ["orders", "--p", "179", "--ell", "2", "--r", "2"],
        ["bound", "--N", "5", "--ell", "2", "--out", "/nonexistent/b.json"],  # --out
    ]
    return cmds


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    """The corpus entry of one command: argv, exit code, digests, small outputs."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    entry = {"argv": list(argv), "rc": rc}
    for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        entry[f"{name}_sha256"] = _digest(text)
        if len(text) <= SMALL:
            entry[name] = text
    return entry


def load() -> list[dict]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def dump(entries: list[dict]) -> str:
    """One entry per line, so that a diff of the file names the changed commands."""
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    old = {tuple(e["argv"]): e for e in load()}
    entries = [run(argv) for argv in corpus()]
    for e in entries:
        if old.pop(tuple(e["argv"]), None) != e:
            print(" ".join(e["argv"]))
    for argv in old:
        print(" ".join(argv), "(removed)")
    GOLDEN.write_text(dump(entries))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
