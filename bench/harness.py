"""Closed-loop harness shared by the workloads.

A workload is one fixed list of operations, a round, drawn from the
seed at set-up; the run repeats that round until the run time is over.
One thread runs the operations back to back, each starting when the
previous one returned.  Three kinds of operation exist:

* ``warm``: an in-process call of the library's public API; these give
  ``ops_per_s``, ``op_ms_p50`` and ``op_ms_p90``;
* ``cold``: one ``python -m quivermoduli`` subprocess, followed by its
  in-process twin (``load_scenario`` + ``run_command`` +
  ``Report.as_json``) whose results must be identical; these give
  ``cold_cli_ms_p50``;
* ``probe``: the known-fault probe, counted in ``attempted`` and
  ``failed`` but kept out of every timing metric.

Each operation's time is the minimum over its repeats in the run: on a
shared machine other processes only ever add time, and that addition
comes and goes within seconds.  Set-up is timed alike: once before the
loop and about ``SETUP_SAMPLES`` times more between rounds, spread over
the run, and the fastest counts.  Every output is checked the first time
and must repeat exactly afterwards; a check that fails, inside the call
(a cold CLI's exit code and single JSON line) or after it, makes the
run incorrect.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from oracles import CheckError, require

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 12   # set-ups timed in a run, spread over it
WARMUP_OPS = 10
MIN_ROUNDS = 3


@dataclass
class Op:
    kind: str                                   # "warm" | "cold" | "probe"
    call: Callable[[], Any]
    check: Callable[[Any], None]
    twin: Optional[Callable[[], Any]] = None    # cold ops: the in-process CLI path
    fingerprint: Callable[[Any], Any] = lambda result: result  # what repeats must match


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    times: dict = field(default_factory=dict)     # op index -> [ms, ...]
    twin_ms: dict = field(default_factory=dict)   # cold op index -> [ms, ...]
    probe_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)    # first check failures
    errors_total: int = 0
    failures: dict = field(default_factory=dict)  # exception type -> count
    results: dict = field(default_factory=dict)   # op index -> fingerprint

    def best(self, ops, kind):
        """Per-operation minimum over repeats, for ops of one kind."""
        return [min(self.times[i]) for i, op in enumerate(ops)
                if op.kind == kind and self.times.get(i)]


class Runner:
    """Executes operations, times them and checks their outputs."""

    def __init__(self):
        self.tally = Tally()

    def execute(self, index: int, op: Op) -> None:
        t = self.tally
        t.attempted += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except CheckError as exc:  # a check made inside the call, e.g. a cold CLI's exit code
            self.check_failed(exc)
            return
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = (time.perf_counter() - start) * 1000.0
            t.failed += 1
            name = type(exc).__name__
            t.failures[name] = t.failures.get(name, 0) + 1
            if op.kind == "probe":
                t.probe_ms.append(elapsed)
            return
        elapsed = (time.perf_counter() - start) * 1000.0
        if op.kind == "probe":
            t.probe_ms.append(elapsed)
        else:
            t.times.setdefault(index, []).append(elapsed)
        if op.twin is not None:
            start = time.perf_counter()
            twin = op.twin()
            t.twin_ms.setdefault(index, []).append((time.perf_counter() - start) * 1000.0)
            result = (result, twin)
        try:
            if index in t.results:
                require(op.fingerprint(result) == t.results[index],
                        f"output of operation {index} changed on repeat")
            else:
                op.check(result)
                t.results[index] = op.fingerprint(result)
        except CheckError as exc:
            self.check_failed(exc)

    def check_failed(self, exc: CheckError) -> None:
        self.tally.errors_total += 1
        if len(self.tally.errors) < 20:
            self.tally.errors.append(str(exc))

    def run_round(self, ops) -> None:
        for index, op in enumerate(ops):
            self.execute(index, op)
        self.tally.rounds += 1


def timed_loop(ops, seconds: float, between: Callable[[], None] = lambda: None) -> Tally:
    """Whole rounds until ``seconds`` have passed and at least
    ``MIN_ROUNDS`` rounds ran.  ``between`` runs, outside every
    operation's time, after the first round and then after each round
    that ends ``seconds / SETUP_SAMPLES`` or more after its last call."""
    runner = Runner()
    start = time.perf_counter()
    due = 0.0
    while runner.tally.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        runner.run_round(ops)
        if time.perf_counter() - start >= due:
            between()
            due = time.perf_counter() - start + seconds / SETUP_SAMPLES
    return runner.tally


# --- the library -----------------------------------------------------------


def is_library(module_name: str) -> bool:
    return module_name == "quivermoduli" or module_name.startswith("quivermoduli.")


def import_library():
    """Import the package afresh from ``src``: every quivermoduli module
    is dropped from ``sys.modules`` first, so repeated set-ups each pay
    the library's own import work."""
    for name in [name for name in sys.modules if is_library(name)]:
        del sys.modules[name]
    qm = importlib.import_module("quivermoduli")
    importlib.import_module("quivermoduli.cli")
    return qm


def set_up(make_ops, prepared):
    """One set-up: import the library afresh, build the round's library
    objects from the prepared inputs and make ``WARMUP_OPS`` warm-up
    calls.  Returns the library, the round and the duration in seconds."""
    start = time.perf_counter()
    qm = import_library()
    ops = make_ops(qm, prepared)
    for op in [op for op in ops if op.kind == "warm"][:WARMUP_OPS]:
        op.call()
    return qm, ops, time.perf_counter() - start


def set_up_aside(make_ops, prepared) -> float:
    """Time one more set-up and throw it away: the library modules that
    the running round uses are put back into ``sys.modules`` after it."""
    running = {name: module for name, module in sys.modules.items() if is_library(name)}
    try:
        return set_up(make_ops, prepared)[2]
    finally:
        for name in [name for name in sys.modules if is_library(name)]:
            del sys.modules[name]
        sys.modules.update(running)
        for clear in typing._cleanups:  # typing's caches would keep the set-up's classes alive
            clear()
        gc.collect()


# --- the CLI ----------------------------------------------------------------


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(cli, scenario_path, command, args, overrides=None):
    """argv for ``python -m quivermoduli`` from a command and its args."""
    _, positionals, flags = cli.COMMANDS[command]
    argv = ["--scenario", str(scenario_path)]
    for name, value in (overrides or {}).items():
        argv += [f"--{name}", str(value)]
    argv += command.split(" ")
    argv += [args[p] for p in positionals]
    for flag in flags:
        if args.get(flag) is not None:
            argv += [f"--{flag}", args[flag]]
    return argv


def run_cold(argv, env):
    """One cold CLI process; returns its single JSON report."""
    proc = subprocess.run(
        [sys.executable, "-m", "quivermoduli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    require(proc.returncode == 0, f"exit code {proc.returncode} for {argv}: {proc.stderr[-300:]}")
    lines = proc.stdout.splitlines()
    require(len(lines) == 1, f"expected one JSON line, got {len(lines)} for {argv}")
    doc = json.loads(lines[0])
    require(isinstance(doc, dict), f"report is not a JSON object for {argv}")
    return doc


def run_warm(qm, scenario_path, command, args, overrides=None) -> str:
    """The CLI's work in process: load, run, encode; returns the JSON text."""
    cli = sys.modules["quivermoduli.cli"]
    scenario = qm.load_scenario(scenario_path)
    report = cli.run_command(scenario, command, args, cli.Overrides(**(overrides or {})))
    return report.as_json()


def cold_op(qm, scenario_path, command, args, check_results, overrides=None) -> Op:
    """A cold CLI call paired with its warm twin; ``check_results``
    receives the (identical) ``results`` payload."""
    cli = sys.modules["quivermoduli.cli"]
    argv = cli_argv(cli, scenario_path, command, args, overrides)
    env = cli_env()

    def check(pair):
        cold, warm = pair[0], json.loads(pair[1])
        check_report(cold, argv)
        for key in ("command", "args", "scenario_digest", "results", "results_digest"):
            require(cold.get(key) == warm.get(key), f"cold and warm {key} differ for {argv}")
        check_results(cold["results"])

    return Op(
        "cold",
        lambda: run_cold(argv, env),
        check,
        twin=lambda: run_warm(qm, scenario_path, command, args, overrides),
        fingerprint=lambda pair: pair[0]["results_digest"],
    )


def check_report(doc, where) -> None:
    for key in ("command", "args", "scenario_digest", "results", "trace", "timing_ms",
                "results_digest"):
        require(key in doc, f"report lacks {key!r}: {where}")
    blob = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
    digest = "sha256:" + hashlib.sha256(blob.encode()).hexdigest()
    require(doc["results_digest"] == digest, f"results_digest mismatch: {where}")


def write_scenario(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


# --- measurements -----------------------------------------------------------


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def subprocess_ms(code: str, repeats: int) -> list:
    """Wall times of ``python -c code``."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(), check=True,
                       capture_output=True, timeout=120)
        out.append((time.perf_counter() - start) * 1000.0)
    return out


def import_ms(repeats: int) -> list:
    """In-process import time of ``quivermoduli.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import quivermoduli.cli; "
            "print((time.perf_counter() - t) * 1000.0)")
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                              check=True, capture_output=True, text=True, timeout=120)
        out.append(float(proc.stdout.strip()))
    return out
