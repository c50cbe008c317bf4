"""Benchmark of the henkin command line, run in-process through ``henkin.cli.main``.

One run::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

sets the workload up several times (import of the package plus input
generation; ``setup_s`` is the median), then makes whole passes over the
workload's CLI calls until another pass would end after ``S`` seconds.
It makes at least one pass, so a workload whose pass is longer than
``S`` runs for one pass.  Every output is then checked, outside the
timed region.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (counted in CLI calls), and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  Times are read
on the probe clock of ``clock.py``, which divides out the slow spells of
the machine's shared cores.  ``wall_s`` is the median over the run's
passes of a pass's time.  ``slowest_op_s`` is the longest call, each
call taken at its fastest over the passes, so that a hitch in one pass
does not make a short call look long.

With ``--trace 1`` untraced and traced passes alternate, at least one of
each; the metrics are the per-layer ones of the traced passes (median
over passes) and the tracing overhead, traced minus untraced ``wall_s``.

Repeat mode runs each named workload (by default those of
BENCHMARK.json) N times in child processes, with seeds ``--seed`` ..
``--seed``+N-1, prints each metric's median and quartiles, and writes
every run to ``bench/out/``::

    python3 bench/run.py --repeat 10 [--workload NAME ...] [--seconds S] [--trace 0|1]

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from clock import ProbeClock
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 25
DEFAULT_SECONDS = 20

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.calls": "count",
    "text.parse_s": "s",
    "text.parse_chars_per_s": "1/s",
    "text.format_s": "s",
    "reducer.compile_s": "s",
    "reducer.rows": "count",
    "reducer.atoms": "count",
    "fixtures.build_s": "s",
    "evaluator.evaluate_s": "s",
    "evaluator.evaluate_nodes": "count",
    "evaluator.find_min_model_s": "s",
    "evaluator.find_min_model_nodes": "count",
    "evaluator.witness_s": "s",
    "evaluator.witness_nodes": "count",
    "evaluator.nodes_per_s": "1/s",
    "oracle.find_witness_s": "s",
    "oracle.find_witness_nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "trace.overhead_s": "s",
}


def fresh_import():
    """Import ``henkin.cli`` anew, dropping every module of the package first."""
    for name in [m for m in sys.modules if m == "henkin" or m.startswith("henkin.")]:
        del sys.modules[name]
    return importlib.import_module("henkin.cli")


class Pass:
    """The timings and outputs of one pass over a workload."""

    def __init__(self):
        self.wall = 0.0  # real seconds, for pacing the run
        self.op_seconds: list[float] = []  # per call, on the probe clock
        self.op_wall: list[float] = []  # per call, real seconds
        # (exit code, stdout, exception) per op, in op order
        self.results: list[tuple[int | None, str, str | None]] = []


def run_pass(main, workload, clock) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for op in workload.ops:
        out = io.StringIO()
        t0, c0 = time.perf_counter(), clock.now()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code, error = main(op.argv), None
        except Exception as exc:  # an uncaught error is a failed call; keep measuring
            code, error = None, f"{type(exc).__name__}: {exc}"
        result.op_seconds.append(clock.now() - c0)
        result.op_wall.append(time.perf_counter() - t0)
        text = out.getvalue()
        if op.save_to is not None:
            op.save_to.write_text(text, encoding="ascii")
        result.results.append((code, text, error))
    result.wall = time.perf_counter() - start
    return result


def pass_seconds(passes: list[Pass]) -> float:
    """The median pass time, on the probe clock."""
    return statistics.median(sum(p.op_seconds) for p in passes)


def fastest_calls(passes: list[Pass], real: bool = False) -> list[float]:
    """Each call's shortest time over ``passes``, on the probe clock or in real seconds."""
    return [min(times) for times in zip(*(p.op_wall if real else p.op_seconds for p in passes))]


def check_passes(workload, passes: list[Pass]) -> tuple[int, list[str], list[str]]:
    """Failed calls, and the problems that make the run incorrect or failing.

    A call fails when it raises or its output fails its check; a wrong
    output (as opposed to an exception) also makes the run incorrect.
    Each distinct output of an op is checked once.
    """
    failed = 0
    wrong: list[str] = []
    raised: list[str] = []
    seen: list[dict] = [{} for _ in workload.ops]
    for p in passes:
        for i, (code, text, error) in enumerate(p.results):
            verdict = seen[i].get((code, text, error))
            if verdict is None:
                op = workload.ops[i]
                if error is not None:
                    verdict = [error]
                    raised.append(f"{op.argv}: {error}")
                else:
                    try:
                        verdict = op.check(code, text)
                    except Exception as exc:  # output the check cannot read is wrong output
                        verdict = [f"check raised {type(exc).__name__}: {exc}"]
                    wrong += [f"{op.argv}: {problem}" for problem in verdict]
                seen[i][(code, text, error)] = verdict
            failed += bool(verdict)
    for a, b in workload.same_output:
        outputs = {text for p in passes for text in (p.results[a][1], p.results[b][1])}
        if len(outputs) > 1:
            wrong.append(f"{workload.ops[a].argv} and {workload.ops[b].argv} answer differently")
    return failed, wrong, raised


def measure(args, cli, workload, clock):
    """The run's passes: untraced, and with ``--trace 1`` traced ones in turn."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while True:
        if args.trace and len(untraced) > len(traced):
            tracer = Tracer(clock.now)
            with tracer.installed(cli):
                traced.append(run_pass(tracer.wrap("cli", cli.main), workload, clock))
            tracers.append(tracer)
            last = traced[-1]
        else:
            untraced.append(run_pass(cli.main, workload, clock))
            last = untraced[-1]
        if args.trace and len(untraced) > len(traced):
            continue
        if time.perf_counter() - start + last.wall > args.seconds:
            return untraced, traced, tracers


def single_run(args) -> int:
    if not (SRC / "henkin" / "cli.py").is_file():
        print(f"error: no henkin sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"run-{os.getpid()}"
    try:
        with ProbeClock() as clock:
            setup = []
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                t0 = clock.now()
                cli = fresh_import()
                workload = workloads.BUILDERS[args.workload](args.seed, workdir)
                setup.append(clock.now() - t0)
            untraced, traced, tracers = measure(args, cli, workload, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        passes = untraced + traced
        failed, wrong, raised = check_passes(workload, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        per_pass = [layer_metrics(t.spans) for t in tracers]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": pass_seconds(untraced),
            "slowest_op_s": max(fastest_calls(untraced)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for problem in (wrong + raised)[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"passes of {len(workload.ops)} calls; {clock.samples} probe samples; in real seconds, "
        f"wall {statistics.median(p.wall for p in untraced):.4f} and slowest call "
        f"{max(fastest_calls(untraced, real=True)):.4f}"
    )
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(passes) * len(workload.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def repeat(args) -> int:
    benchmark = ROOT / "BENCHMARK.json"
    names = args.workload or [w["name"] for w in json.loads(benchmark.read_text())["workloads"]]
    OUT.mkdir(exist_ok=True)
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {child.returncode}\n{child.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result, "log": lines[:-1]})
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else float("nan")
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {metric:32s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"(q3-q1)/median {spread:.4f}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(shares)}")
        record = {"workload": name, "seconds": args.seconds, "trace": args.trace,
                  "runs": runs, "summary": summary}
        (OUT / f"repeat-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload in repeat mode")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload, or --repeat N")
    args.workload = args.workload[0]
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
