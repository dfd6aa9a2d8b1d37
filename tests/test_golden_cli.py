"""The behaviour contract: byte-identical CLI output on a fixed corpus.

tests/golden_cli.json is regenerated by tests/make_golden_cli.py; a change
to an entry is a change to test data and is recorded in CHANGES.md.
"""

import difflib

import pytest

import make_golden_cli
from make_golden_cli import load, run


def _describe(want: dict, got: dict) -> str:
    lines = [" ".join(want["argv"])]
    if want["rc"] != got["rc"]:
        lines.append(f"  exit code {want['rc']} -> {got['rc']}")
    for name in ("stdout", "stderr"):
        key = f"{name}_sha256"
        if want[key] == got[key]:
            continue
        if name in want and name in got:
            lines += difflib.unified_diff(want[name].splitlines(), got[name].splitlines(),
                                          f"golden {name}", name, lineterm="")
        else:
            lines.append(f"  {name} changed; it is too long to show")
    return "\n".join(lines)


def test_cli_output_matches_the_golden_corpus():
    corpus = load()
    assert len(corpus) > 300
    changed = []
    for want in corpus:
        got = run(want["argv"])
        if got != want:
            changed.append(_describe(want, got))
    assert not changed, f"{len(changed)} of {len(corpus)} commands changed:\n" + \
        "\n".join(changed)


def test_regeneration_refuses_arguments_and_writes_nothing(monkeypatch, capsys):
    before = make_golden_cli.GOLDEN.read_bytes()
    monkeypatch.setattr(make_golden_cli, "run", lambda argv: pytest.fail("ran the corpus"))
    for argv in (["--help"], ["-h"], ["golden.json"]):
        assert make_golden_cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "takes no arguments" in captured.err
    assert make_golden_cli.GOLDEN.read_bytes() == before
