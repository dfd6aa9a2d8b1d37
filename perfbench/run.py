"""Benchmark of the `isocycles` command on four fixed workloads.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        MALLOC_MMAP_THRESHOLD_=131072 \
        python3 perfbench/run.py --workload graph-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  The operations of a workload run through
`isocycles.cli.main` in this process, one after the other, in whole rounds
until `--seconds` have passed; the program's caches are cleared between
rounds so that every round does the same work.  Every answer is checked
with `checks.py`.  The last line of stdout is one JSON object: with
`--trace 0` the end-to-end metrics, with `--trace 1` the per-layer metrics
of traced rounds, which alternate with untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set by the command in BENCHMARK.json: one BLAS thread, and glibc's mmap
# threshold fixed at its initial default.  Left dynamic, the threshold rises
# after large frees, so whether a dense operator lands on the heap depends on
# the ops before it, and peak RSS jumps between two values with the seed.
REQUIRED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
SETUP_REPEATS = 5


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports the CLI and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import isocycles.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def clear_caches():
    """Forget everything a previous round left in the program's caches."""
    from sympy.core.cache import clear_cache

    for name, module in list(sys.modules.items()):
        if name.startswith("isocycles"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    clear_cache()


@dataclass
class Result:
    op: workloads.Op
    path: Path
    rc: int
    stderr: str
    text: str | None = None  # the --out file, read after the round


def run_op(cli, op, path: Path, sink, tracer) -> Result:
    err = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(op.argv(str(path)))
            else:
                with tracer.op():
                    rc = cli.main(op.argv(str(path)))
        except Exception:  # an escaped error fails the op; the run goes on
            rc = -1
            err.write(traceback.format_exc())
    return Result(op, path, rc, err.getvalue())


def run_round(cli, workload: str, seed: int, out_dir: Path, sink, tracer=None):
    """One round of the workload: (wall s, cpu s, results)."""
    clear_caches()
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops = workloads.ops(workload, seed)
    results = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for op in ops:
        results.append(run_op(cli, op, out_dir / f"{len(results):03d}.json", sink, tracer))
    if workload == "rims-locate":
        listed = [json.loads(r.path.read_text()) for r in results if r.rc == 0]
        for op in workloads.locate_ops(listed, seed):
            results.append(run_op(cli, op, out_dir / f"{len(results):03d}.json", sink, tracer))
    wall = time.perf_counter() - start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    for r in results:
        r.text = r.path.read_text() if r.path.exists() else None
    return wall, cpu, results


class CheckError(Exception):
    """A graph needed to check an answer could not be exported correctly."""


class Checker:
    """Checks the outputs of one round; graphs it needs are exported once."""

    def __init__(self, cli, out_dir: Path, sink):
        self.cli = cli
        self.out_dir = out_dir
        self.sink = sink
        self.graphs: dict[tuple[int, int], dict] = {}
        self.class_numbers: dict[int, int] = {}
        self.levels: dict[tuple[int, int, int], int] = {}  # (p, ell, D) -> r

    def graph(self, p: int, ell: int) -> dict:
        if (p, ell) not in self.graphs:
            path = self.out_dir / f"graph-{p}-{ell}.json"
            res = run_op(self.cli, workloads.Op("graph", p, ell), path, self.sink, None)
            if res.rc != 0:
                raise CheckError(f"graph export for ({p}, {ell}) failed: {res.stderr}")
            payload = json.loads(path.read_text())
            errors = checks.check_graph(payload, p, ell)
            if errors:
                raise CheckError(f"graph ({p}, {ell}) used for checking is wrong: {errors}")
            self.graphs[(p, ell)] = payload
        return self.graphs[(p, ell)]

    def h(self, D: int) -> int:
        if D not in self.class_numbers:
            self.class_numbers[D] = checks.class_number(D)
        return self.class_numbers[D]

    def errors(self, res: Result) -> list[str]:
        op = res.op
        if res.text is None:
            return [f"no output (exit {res.rc}): {res.stderr.strip()}"]
        payload = json.loads(res.text)
        if op.command == "graph":
            return checks.check_graph(payload, op.p, op.ell)
        if op.command == "count":
            cycles = None
            if op.p % 12 == 1:
                traces = checks.ihara_bass_traces(self.graph(op.p, op.ell), op.arg)
                cycles = checks.primitive_counts(traces)
            return checks.check_count(payload, op.p, op.ell, op.arg, op.method, cycles)
        if op.command == "orders":
            for rec in payload["records"]:
                if rec["l_order"] == op.arg:
                    self.levels[(op.p, op.ell, rec["discriminant"])] = op.arg
            return checks.check_orders(payload, op.p, op.ell, op.arg, self.class_numbers)
        if op.command == "locate":
            from isocycles import hilbert

            r = self.levels[(op.p, op.ell, op.arg)]
            poly = list(hilbert.hilbert_class_poly(op.arg).coefficients)
            return checks.check_locate(payload, op.p, op.ell, op.arg, r, self.h(op.arg),
                                       self.graph(op.p, op.ell), poly)
        raise ValueError(f"no check for {op.command}")


def is_known_failure(res: Result, errors: list[str]) -> bool:
    """The named fault shows as exit 1 with only graph-side disagreements."""
    return (res.op.known_fault is not None and res.rc == 1 and bool(errors)
            and all(e.startswith(checks.GRAPH_SIDE_MISMATCH) for e in errors))


def judge(rounds, checker, log) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over all rounds.

    The first round is checked; every later round must give the same exit
    codes and byte-identical outputs.
    """
    first = rounds[0]
    correct = True
    failed_in_round = []
    for res in first:
        try:
            errors = checker.errors(res)
        except CheckError as exc:
            errors = [str(exc)]
        failed = res.rc != 0 or bool(errors)
        failed_in_round.append(failed)
        if failed:
            known = is_known_failure(res, errors)
            correct = correct and known
            tag = f"known fault, {res.op.known_fault}" if known else "WRONG"
            log(f"{tag}: {' '.join(res.op.argv(str(res.path)))} exit {res.rc}: {errors[:3]}")
    for later in rounds[1:]:
        same = len(later) == len(first) and all(
            (a.op, a.rc, a.text) == (b.op, b.rc, b.text) for a, b in zip(first, later))
        if not same:
            correct = False
            log("WRONG: a later round gave other outputs than the first")
    attempted = sum(len(r) for r in rounds)
    failed = len(rounds) * sum(failed_in_round)
    return correct, attempted, failed


@contextlib.contextmanager
def _removed_after(directory: Path):
    try:
        yield
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def layer_metrics(tracers, plain_walls, traced_walls) -> dict:
    metrics = {}
    selfs = [spans.self_times(t.spans) for t in tracers]
    for name in spans.span_names():
        value = statistics.median(s.get(name, 0.0) for s in selfs)
        metrics[f"{name}_s"] = {"value": value, "unit": "s"}
    for name in spans.COUNTS:
        value = statistics.median_low(t.counts.get(name, 0) for t in tracers)
        unit = "B" if name.endswith("_bytes_computed") else "count"
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (SRC / "isocycles" / "cli.py").is_file():
        log(f"error: no isocycles source at {SRC}; run from a full checkout")
        return 2
    unset = [f"{k}={v}" for k, v in REQUIRED_ENV.items() if os.environ.get(k) != v]
    if unset:
        log(f"error: needs {' '.join(unset)}; use the command in BENCHMARK.json")
        return 2

    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from isocycles import cli

    # one directory per process, so that runs never share output files
    run_dir = OUT / f"run-{os.getpid()}"
    round_dir = run_dir / args.workload
    with open(os.devnull, "w") as sink, _removed_after(run_dir):
        plain, traced, tracers = [], [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(run_round(cli, args.workload, args.seed, round_dir, sink))
            if args.trace:
                tracer = spans.Tracer()
                with tracer:
                    traced.append(run_round(cli, args.workload, args.seed, round_dir,
                                            sink, tracer))
                tracers.append(tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for wall, cpu, _ in plain + traced:
            log(f"{args.workload} round: {wall:.3f} s wall, {cpu:.3f} s cpu")
        rounds = [res for _, _, res in plain + traced]
        correct, attempted, failed = judge(rounds, Checker(cli, run_dir, sink), log)

    plain_walls = [w for w, _, _ in plain]
    if args.trace:
        traced_walls = [w for w, _, _ in traced]
        metrics = layer_metrics(tracers, plain_walls, traced_walls)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "rounds": [{"spans": t.spans, "counts": dict(t.counts)} for t in tracers],
        }))
    else:
        metrics = {
            "run_s": {"value": statistics.median(plain_walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c, _ in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
