"""Command-line front end: build graphs, count cycles both ways, emit reports.

Every command is deterministic; identical inputs produce byte-identical
outputs.  The payload goes to --out or to stdout; summary lines go to
stderr.  Exit status 0 iff all requested verdicts pass, 2 on refused input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import hilbert, nbwalk, ordercount, ssgraph
from .ff import PRIMALITY_BOUND, is_prime
from .modpoly import MODPOLY_ENV_VAR
from .ordercount import MAX_N


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocycles",
        description="supersingular isogeny graphs and isogeny-cycle counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p=False, ell=False, graph=False):
        if p:
            sp.add_argument("--p", type=int, required=True, help="characteristic prime")
        if ell:
            sp.add_argument("--ell", type=int, required=True, help="isogeny degree prime")
        sp.add_argument("--out", help="output path (written atomically)")
        if graph:
            sp.add_argument("--modpoly-dir",
                            help=f"directory with phi<ell>.txt files (or ${MODPOLY_ENV_VAR})")

    sp = sub.add_parser("graph", help="build the isogeny graph and export it")
    common(sp, p=True, ell=True, graph=True)
    sp.add_argument("--format", choices=["json", "dot"], default="json")

    sp = sub.add_parser("count", help="count isogeny cycles per length")
    common(sp, p=True, ell=True, graph=True)
    sp.add_argument("--r-max", type=int, required=True)
    sp.add_argument("--method", choices=["graph", "orders", "both"], default="both")

    sp = sub.add_parser("orders", help="enumerate contributing quadratic orders")
    common(sp, p=True, ell=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("bound", help="explicit upper bounds at level N")
    common(sp, ell=True)
    sp.add_argument("--N", type=int, required=True)

    sp = sub.add_parser("spectral", help="spectral gap and Ramanujan verdict")
    common(sp, p=True, ell=True, graph=True)

    sp = sub.add_parser("locate", help="locate an order's cycles in the graph")
    common(sp, p=True, ell=True, graph=True)
    sp.add_argument("--disc", type=int, required=True)

    return parser


def _validate(args):
    p = getattr(args, "p", None)
    ell = getattr(args, "ell", None)
    for flag, value in (("--p", p), ("--ell", ell)):
        if value is None:
            continue
        if value >= PRIMALITY_BOUND:
            raise ValueError(f"{flag} {value} is past the proven primality range: "
                             f"it must be below {PRIMALITY_BOUND}")
        if not is_prime(value):
            raise ValueError(f"{flag} must be prime, got {value}")
    if p is not None and ell is not None and ell >= p:
        raise ValueError(f"need ell < p, got ell={ell}, p={p}")
    r_max = getattr(args, "r_max", None)
    if r_max is not None and not (1 <= r_max <= MAX_N):
        raise ValueError(f"--r-max must be within 1..{MAX_N}")
    for flag, value in (("--r", getattr(args, "r", None)), ("--N", getattr(args, "N", None))):
        if value is not None and not (3 <= value <= MAX_N):
            raise ValueError(f"{flag} must be within 3..{MAX_N}")


def _write(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".isocycles-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _summary(line: str):
    print(line, file=sys.stderr)


def _graph(args):
    g = ssgraph.build_graph(args.p, args.ell, modpoly_dir=args.modpoly_dir)
    expected = ssgraph.vertex_count_formula(args.p)
    text = g.to_dot() if args.format == "dot" else g.to_json()
    _summary(f"vertices: {g.vertex_count}  formula: {expected}  "
             f"census: {'ok' if g.vertex_count == expected else 'MISMATCH'}")
    return text, g.vertex_count == expected


def _require_graph_side(what: str, p: int):
    """Refuse, before the graph is built, a p the graph side does not cover."""
    if p % 12 != 1:
        raise ValueError(f"{what} needs p = 1 mod 12 (extra-automorphism gate); "
                         f"p={p} is {p % 12} mod 12")


def _count(args):
    p, ell, r_max = args.p, args.ell, args.r_max
    directed = None
    if args.method in ("graph", "both"):
        _require_graph_side("graph-side counting", p)
        g = ssgraph.build_graph(p, ell, modpoly_dir=args.modpoly_dir)
        directed = nbwalk.count_cycles(g, r_max)
    rows = []
    ok = True
    for r in range(3, r_max + 1):
        row = {"r": r}
        if directed is not None:
            row["graph"] = directed[r]
        if args.method in ("orders", "both"):
            oc = ordercount.order_side_cycle_count(r, p, ell)
            row["orders"] = oc
            _, c_bound = ordercount.bound_b(r, ell)
            row["c_bound"] = c_bound
            ok = ok and oc <= c_bound
            if args.method == "both":
                row["match"] = oc == row["graph"]
                ok = ok and row["match"]
        rows.append(row)
    payload = {"schema": 1, "p": p, "ell": ell, "r_max": r_max,
               "method": args.method, "rows": rows}
    for row in rows:
        bits = [f"r={row['r']}"]
        if "graph" in row:
            bits.append(f"graph={row['graph']}")
        if "orders" in row:
            bits.append(f"orders={row['orders']}")
        if "match" in row:
            bits.append(f"match={row['match']}")
        _summary("  ".join(bits))
    return json.dumps(payload, indent=2) + "\n", ok


def _orders(args):
    records = ordercount.enumerate_orders(args.r, args.p, args.ell)
    _summary(f"orders with class above ell of order {args.r}: "
             + ", ".join(str(rec.discriminant.value) for rec in records))
    if args.format == "csv":
        text = ordercount.order_records_csv(records)
    else:
        text = json.dumps(ordercount.order_census(args.r, args.p, args.ell), indent=2) + "\n"
    return text, True


def _bound(args):
    b_n, c_bound = ordercount.bound_b(args.N, args.ell)
    payload = {"schema": 1, "ell": args.ell, "N": args.N,
               "B_N": b_n, "c_N_bound": c_bound}
    _summary(f"B_{args.N} = {b_n}  c_bound = {c_bound}")
    return json.dumps(payload, indent=2) + "\n", True


def _spectral(args):
    _require_graph_side("the spectral check", args.p)
    g = ssgraph.build_graph(args.p, args.ell, modpoly_dir=args.modpoly_dir)
    lam1, lam2, verdict = nbwalk.spectral_check(g)
    payload = {"schema": 1, "p": args.p, "ell": args.ell,
               "lambda1": lam1, "lambda2": lam2,
               "ramanujan_bound": 2 * (args.ell ** 0.5),
               "ramanujan": verdict}
    _summary(f"lambda1={lam1}  lambda2={lam2:.8f}  ramanujan={verdict}")
    return json.dumps(payload, indent=2) + "\n", verdict


def _locate(args):
    cycles = hilbert.locate_rim_vertices(args.disc, args.p, args.ell,
                                         modpoly_dir=args.modpoly_dir)
    rendered = [[str(v) for v in cyc] for cyc in cycles]
    for cyc in rendered:
        _summary("cycle: (" + ", ".join(cyc) + ")")
    payload = {"schema": 1, "p": args.p, "ell": args.ell, "disc": args.disc,
               "cycles": rendered}
    return json.dumps(payload, indent=2) + "\n", True


_HANDLERS = {
    "graph": _graph,
    "count": _count,
    "orders": _orders,
    "bound": _bound,
    "spectral": _spectral,
    "locate": _locate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _validate(args)
        text, ok = _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(text, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
