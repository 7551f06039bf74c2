"""Benchmark runner for quivermoduli.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

With ``--trace 0`` one workload runs as a closed loop for S seconds and
the end-to-end metrics are printed; with ``--trace 1`` a fixed number of
rounds runs untraced and then traced, and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run
also writes a report under ``bench/out/``.  ``--workload all`` runs
every workload, untraced and traced, each in a fresh process, and
writes ``bench/out/BENCH_<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import layers
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("tss_wall_sweep", "king_search", "cb_roots", "cli_scenarios")
INTERPRETER_REPEATS = 5


def end_to_end(tally, ops, setup_s):
    warm = tally.best(ops, "warm")
    cold = tally.best(ops, "cold")
    if not warm or not cold:
        raise SystemExit("no operation completed")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(warm) / (sum(warm) / 1000.0), "op/s"),
        "op_ms_p50": (statistics.median(warm), "ms"),
        "op_ms_p90": (harness.p90(warm), "ms"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "cold_cli_ms_p50": (statistics.median(cold), "ms"),
    }


def counts(ops, rounds):
    kinds = [op.kind for op in ops]
    return {"rounds": rounds, "warm_ops": kinds.count("warm"), "cold_ops": kinds.count("cold"),
            "probes": kinds.count("probe")}


def untraced_run(module, prepared, seconds):
    """The round set up once, then timed for ``seconds``; further
    set-ups are timed between rounds, spread over the run, and
    ``setup_s`` is the fastest of all of them."""
    qm, ops, first = harness.set_up(module.make, prepared)
    setups = [first]
    tally = harness.timed_loop(
        ops, seconds, lambda: setups.append(harness.set_up_aside(module.make, prepared)))
    return tally, end_to_end(tally, ops, min(setups)), dict(counts(ops, tally.rounds),
                                                            setups=len(setups))


def traced_run(module, prepared, spans_path):
    """Set-up traced; then one round untraced and its warm operations
    traced."""
    trace = tracer.Tracer()
    qm = harness.import_library()
    modules = tracer.library_modules(qm)
    trace.op_id = "setup"
    trace.install(modules)
    try:
        ops = module.make(qm, prepared)
    finally:
        trace.uninstall()
    plain = harness.Runner()
    plain.run_round(ops)
    tally = plain.tally
    traced = harness.Runner()
    trace.install(modules)
    try:
        for index, op in enumerate(ops):
            if op.kind == "warm":
                trace.op_id = index
                traced.execute(index, op)
    finally:
        trace.uninstall()
    for index, fingerprint in traced.tally.results.items():
        if fingerprint != tally.results.get(index):
            tally.errors_total += 1
            tally.errors.append(f"traced output of operation {index} differs from untraced")
    tally.errors_total += traced.tally.errors_total
    tally.errors += traced.tally.errors
    trace.write_spans(spans_path)
    warm = [i for i in traced.tally.times if i in tally.times]
    cold = [i for i, op in enumerate(ops) if op.kind == "cold" and i in tally.times]
    extra = {
        "overhead_s": sum(traced.tally.times[i][0] - tally.times[i][0] for i in warm) / 1000.0,
        "deep_table_ms": statistics.median(tally.probe_ms) if tally.probe_ms else 0.0,
        "process_overhead_ms": statistics.median(
            tally.times[i][0] - tally.twin_ms[i][0] for i in cold) if cold else 0.0,
        "interpreter_ms": statistics.median(harness.subprocess_ms("pass", INTERPRETER_REPEATS)),
        "import_ms": statistics.median(harness.import_ms(INTERPRETER_REPEATS)),
    }
    return tally, layers.per_layer(trace, extra), dict(counts(ops, 1), spans=len(trace.spans))


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed):
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "seed": seed,
    }


def run_one(args):
    module = importlib.import_module(f"workloads.{args.workload}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        prepared = module.prepare(args.seed, Path(tmp))
        if args.trace:
            tally, metrics, samples = traced_run(module, prepared, OUT / f"{stem}.spans.jsonl")
        else:
            tally, metrics, samples = untraced_run(module, prepared, args.seconds)
    correct = tally.errors_total == 0
    report = dict(
        environment(args.seed),
        workload=args.workload,
        traced=bool(args.trace),
        seconds=args.seconds,
        correct=correct,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        check_failures=tally.errors,
        samples=samples,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  samples {samples}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(f"  attempted {tally.attempted}  failed {tally.failed} {tally.failures}  "
          f"checks {'passed' if correct else 'FAILED'}")
    for message in tally.errors:
        print(f"  check failure: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    OUT.mkdir(exist_ok=True)
    summary = dict(environment(args.seed), seconds=args.seconds, workloads={})
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                check=True, timeout=900,
            )
            report = json.loads(path.read_text())
            key = "per_layer" if trace else "end_to_end"
            entry[key] = report["metrics"]
            entry[f"{key}_samples"] = report["samples"]
            entry.setdefault("attempted", report["attempted"])
            entry.setdefault("failed", report["failed"])
            entry.setdefault("failures", report["failures"])
            entry[f"correct_{'traced' if trace else 'untraced'}"] = report["correct"]
            correct = correct and report["correct"]
        attempted += entry["attempted"]
        failed += entry["failed"]
        summary["workloads"][name] = entry
    path = OUT / f"BENCH_{args.seed}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quivermoduli" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
