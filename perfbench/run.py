"""Pipeline benchmark: one full masking run, and one fault campaign.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload mask_heavy --seed 1 --seconds 20 --trace 0

Every pass of a workload runs in a fresh interpreter (``child.py``), so no
module-level cache of the program carries from one pass to the next.

``--trace 0`` repeats tracing-off passes until ``--seconds`` have gone by, and
reports the medians of the end-to-end metrics.  Set-up time
is sampled at least :data:`MIN_SETUP_SAMPLES` times, with set-up-only passes
when the workload passes are fewer.

``--trace 1`` reports the per-layer metrics instead, from one pass of each
kind: a plain pass (the tracing-off wall time the overhead ratio divides by),
a traced pass (self time and calls per layer, see ``tracer.py``), two BDD
counting passes whose counts must agree exactly, and fresh-interpreter
start-up probes for the worker module and the CLI.

Every operation (one mask call, or one campaign shard) is checked against the
outputs recorded in ``expected.json``.  The report is a table of every metric
by name and unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

import workloads
from tracer import HIT_PROBES, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
#: The benchmark drives this package from source.
PROGRAM = ROOT / "src" / "repro" / "__init__.py"

MIN_SETUP_SAMPLES = 7
#: Start-up probes per trace run, for each of the worker module and the CLI.
STARTUP_SAMPLES = 3
#: Every process of one run has ended within this many seconds of its start.
RUN_DEADLINE_S = 170.0
#: Worker processes of the campaign's untraced passes.
CAMPAIGN_WORKERS = 2


class ChildFailed(Exception):
    """A child process crashed, timed out or printed no result."""


class Runner:
    """Starts child processes with the program on the path, under one deadline."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env["TMPDIR"] = str(tmp)
        # Imports load bytecode caches, as they do from an installed package.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def _start(self, argv: list[str]) -> subprocess.Popen[str]:
        return subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def _finish(self, proc: subprocess.Popen[str]) -> str:
        """Wait for ``proc`` and its process group; returns its stdout."""
        try:
            out, _ = proc.communicate(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if proc.poll() is None:
                proc.wait()
        if out is None:
            raise ChildFailed(f"{proc.args[1:]} ran past the run deadline")
        if proc.returncode != 0:
            raise ChildFailed(f"{proc.args[1:]} exited with code {proc.returncode}")
        return out

    def passes(self, mode: str, workers: int, count: int = 1) -> list[dict[str, Any]]:
        """``count`` concurrent passes of ``mode``; returns their JSON reports."""
        started = []
        for index in range(count):
            pass_tmp = self.tmp / f"{mode}-{workers}-{index}"
            pass_tmp.mkdir(exist_ok=True)
            argv = [
                sys.executable, str(HERE / "child.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode, "--workers", str(workers), "--tmp", str(pass_tmp),
            ]
            started.append(self._start([*argv, "--spawned-at", repr(time.monotonic())]))
        reports = []
        failure: ChildFailed | None = None
        for proc in started:
            try:
                lines = self._finish(proc).strip().splitlines()
                reports.append(json.loads(lines[-1]))
            except (ChildFailed, IndexError, json.JSONDecodeError) as exc:
                failure = failure or ChildFailed(f"{mode} pass: {exc}")
        if failure is not None:
            raise failure
        return reports

    def startup(self, argv: list[str]) -> float:
        """Seconds from spawning a fresh interpreter running ``argv`` to its exit."""
        spawned = time.monotonic()
        self._finish(self._start([sys.executable, *argv]))
        return time.monotonic() - spawned


# --------------------------------------------------------------------- runs


def untraced_run(runner: Runner, seconds: float) -> tuple[list[dict], list[float]]:
    """Tracing-off passes until ``seconds`` have gone by, plus set-up samples."""
    workers = CAMPAIGN_WORKERS if runner.workload == "campaign" else 0
    start = time.monotonic()
    passes = []
    while not passes or time.monotonic() - start < seconds:
        passes.extend(runner.passes("plain", workers))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.extend(p["setup_s"] for p in runner.passes("setup", workers))
    return passes, setups


def traced_run(runner: Runner) -> dict[str, Any]:
    """The plain, traced and counting passes and the start-up probes."""
    campaign = runner.workload == "campaign"
    plain = runner.passes("plain", CAMPAIGN_WORKERS if campaign else 0)[0]
    # The campaign is traced with workers=0, so that shard layers run in the
    # traced process; the overhead ratio then divides by a workers=0 pass.
    base = runner.passes("plain", 0)[0] if campaign else plain
    traced = runner.passes("trace", 0)[0]
    counts = runner.passes("count", 0, count=2)
    spawn = [
        runner.startup(["-c", "import repro.exec.worker"])
        for _ in range(STARTUP_SAMPLES)
    ]
    cli = [runner.startup(["-m", "repro", "list"]) for _ in range(STARTUP_SAMPLES)]
    return {
        "passes": [plain, traced, *counts] + ([base] if campaign else []),
        "plain": plain,
        "base": base,
        "traced": traced,
        "counts": counts,
        "spawn_s": statistics.median(spawn),
        "cli_s": statistics.median(cli),
    }


# ------------------------------------------------------------------ metrics


def end_to_end_metrics(passes: list[dict], setups: list[float]) -> dict[str, float]:
    def median(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    def quality(key: str) -> float:
        return statistics.median(p["quality"][key] for p in passes)

    return {
        "wall_s": median("wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median("peak_rss_mb"),
        "area_overhead_pct": quality("area_overhead_pct"),
        "power_overhead_pct": quality("power_overhead_pct"),
    }


def count_problems(counts: list[dict], traced: dict) -> list[str]:
    """BDD counts and layer calls must repeat exactly between passes."""
    first, second = counts
    problems = []
    if first["bdd"] != second["bdd"]:
        problems.append(f"BDD counts differ between passes: {first['bdd']} vs {second['bdd']}")
    for name, report in (("counting", second), ("traced", traced)):
        if report["layers"]["calls"] != first["layers"]["calls"]:
            problems.append(f"layer calls of the {name} pass differ from the counting pass")
    return problems


def per_layer_metrics(run: dict[str, Any], attempted: int, failed: int) -> dict[str, float]:
    traced = run["traced"]["layers"]
    bdd = run["counts"][0]["bdd"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = traced["self_s"].get(layer, 0.0)
        metrics[f"{layer}.calls"] = traced["calls"].get(layer, 0)
        metrics[f"{layer}.bdd_managers"] = bdd["by_layer"].get(layer, 0)
    for layer in HIT_PROBES:
        metrics[f"{layer}.hit_rate"] = traced["hit_rate"][layer]
    probes = bdd["hits"] + bdd["misses"]
    exec_stats = run["plain"].get("exec", {"attempts": 0, "retries": 0})
    traced_wall = run["traced"]["wall_s"]
    metrics.update({
        "bdd.managers": bdd["managers"],
        "bdd.nodes": bdd["nodes"],
        "bdd.op_calls": bdd["op_calls"],
        "bdd.cache_hit_rate": bdd["hits"] / probes if probes else 0.0,
        "exec.spawn_s": run["spawn_s"],
        "exec.attempts": exec_stats["attempts"],
        "exec.retries": exec_stats["retries"],
        "cli.startup_s": run["cli_s"],
        "campaign.effectiveness_pct": run["plain"].get("effectiveness_pct", 0.0),
        "trace.overhead_ratio": traced_wall / run["base"]["wall_s"],
        "trace.layer_share": sum(traced["self_s"].values()) / traced_wall,
        "failed_frac": failed / attempted if attempted else 1.0,
    })
    return metrics


def declared_metrics(trace: bool, path: Path = BENCHMARK_PATH) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def result_document(
    values: dict[str, float],
    units: dict[str, str],
    correct: bool,
    attempted: int,
    failed: int,
) -> dict[str, Any]:
    if set(values) != set(units):
        raise ValueError(
            f"measured metrics {sorted(set(values) ^ set(units))} do not match "
            f"{BENCHMARK_PATH.name}"
        )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def print_report(doc: dict[str, Any], problems: Iterable[str]) -> None:
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, metric in doc["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"{'operations':40s} {doc['attempted']:>16d} attempted, "
        f"{doc['failed']} failed, correct={doc['correct']}"
    )
    print(json.dumps(doc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"error: the program is missing ({PROGRAM} not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, tmp, deadline)
        if args.trace:
            run = traced_run(runner)
            passes = run["passes"]
        else:
            passes, setups = untraced_run(runner, args.seconds)
        problems = [msg for p in passes for msg in p["problems"]]
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        if args.trace:
            problems += count_problems(run["counts"], run["traced"])
            values = per_layer_metrics(run, attempted, failed)
        else:
            values = end_to_end_metrics(passes, setups)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    doc = result_document(
        values,
        declared_metrics(bool(args.trace)),
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
    )
    print_report(doc, problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
