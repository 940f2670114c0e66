"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so no module-level cache of the
program (the trial-cost cache, the campaign's design cache) carries from one
pass to the next.  Modes:

``setup``  imports and builds the inputs, then stops (set-up time only);
``plain``  the timed workload, tracing off;
``trace``  the same with every layer's public functions wrapped
           (:mod:`tracer`), reporting self time and calls per layer;
``count``  the same with exact BDD op counting; its timings are discarded.

The last line of standard output is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time
import traceback
from pathlib import Path
from typing import Any

from repro.benchcircuits import circuit_by_name
from repro.campaign.runner import RunnerConfig, run_campaign
from repro.campaign.spec import FAULT_KINDS, CampaignSpec
from repro.core import mask_circuit
from repro.netlist import builtin_library

import tracer
import workloads


def campaign_spec(seed: int) -> CampaignSpec:
    return CampaignSpec(
        circuits=workloads.CAMPAIGN_CIRCUITS,
        modes=tuple({"kind": kind} for kind in FAULT_KINDS),
        shards_per_cell=workloads.CAMPAIGN_SHARDS_PER_CELL,
        vectors_per_shard=workloads.CAMPAIGN_VECTORS,
        seed=seed,
    )


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Pass:
    """Inputs, timed execution and checks of one workload pass."""

    def __init__(self, workload: str, seed: int, workers: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.tmp = tmp
        self.library = builtin_library(workloads.LIBRARY)
        self.order = workloads.mask_order(workload, seed)
        if workload == "campaign":
            self.spec = campaign_spec(seed)
        else:
            self.circuits = [circuit_by_name(n, self.library) for n in self.order]

    # ------------------------------------------------------------- timed part

    def run(self) -> None:
        if self.workload == "campaign":
            self._run_campaign()
        else:
            self.reports = self._mask(
                self.circuits, self_verify=self.workload == "mask_suite"
            )

    def _mask(self, circuits: list[Any], self_verify: bool) -> dict[str, Any]:
        """Name -> (OverheadReport, formal proof passed) or a failure string."""
        out: dict[str, Any] = {}
        for circuit in circuits:
            try:
                result = mask_circuit(circuit, self.library, self_verify=self_verify)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                out[circuit.name] = _failure(exc)
                continue
            formal_ok = result.formal.ok if self_verify else True
            out[circuit.name] = (result.report, formal_ok)
        return out

    def _run_campaign(self) -> None:
        checkpoint = self.tmp / "campaign.ckpt.jsonl"
        checkpoint.unlink(missing_ok=True)
        self.outcome = run_campaign(
            self.spec, checkpoint, RunnerConfig(workers=self.workers)
        )

    # ------------------------------------------------------- checks, outputs

    def check(self, expected: dict[str, Any]) -> dict[str, Any]:
        """Correctness of every operation, plus the workload's quality figures."""
        problems: list[str] = []
        if self.workload == "campaign":
            attempted, failed, extra = self._check_campaign(expected, problems)
            # The Table-2 overheads of the campaign's designs, outside the
            # timed part: the aggregate reports effectiveness only.
            circuits = [circuit_by_name(n, self.library) for n in self.order]
            reports = self._mask(circuits, self_verify=False)
        else:
            reports = self.reports
            attempted, failed, extra = 0, 0, {}
        rows = []
        for name, outcome in reports.items():
            attempted += 1
            if isinstance(outcome, str):
                failed += 1
                problems.append(f"{name}: {outcome}")
                continue
            report, formal_ok = outcome
            row = workloads.table2_row(report)
            issues = workloads.row_problems(name, row, expected["table2"])
            if not report.sound:
                issues.append(f"{name}: masking is unsound")
            if report.coverage_percent != 100.0:
                issues.append(f"{name}: SPCF coverage {report.coverage_percent}%")
            if not formal_ok:
                issues.append(f"{name}: formal self-verification failed")
            if issues:
                failed += 1
                problems.extend(issues)
            rows.append(row)
        quality = {
            "area_overhead_pct": _mean([r["area_pct"] for r in rows]),
            "power_overhead_pct": _mean([r["power_pct"] for r in rows]),
        }
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "quality": quality,
            **extra,
        }

    def _check_campaign(
        self, expected: dict[str, Any], problems: list[str]
    ) -> tuple[int, int, dict[str, Any]]:
        aggregate = workloads.comparable_aggregate(self.outcome.aggregate)
        stats = self.outcome.stats
        attempted = stats["shards_total"]
        incomplete = aggregate["incomplete_shards"]
        failed = len(incomplete)
        for entry in incomplete:
            problems.append(
                f"shard {entry['shard']} ({entry['circuit']}/{entry['mode_key']}) "
                f"{entry['status']}"
            )
        if self.seed == expected["campaign_seed"]:
            diffs, bad_shards = workloads.aggregate_problems(
                aggregate, expected["campaign_aggregate"]
            )
            problems.extend(diffs)
            failed = min(attempted, failed + bad_shards)
        tried = stats["shards_run"] + stats["shards_quarantined"]
        return attempted, failed, {
            "exec": {"attempts": stats["attempts"], "retries": stats["attempts"] - tried},
            "effectiveness_pct": aggregate["totals"]["effectiveness_percent"],
        }


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def _layer_report(trace: tracer.Tracer) -> dict[str, Any]:
    return {
        "self_s": dict(trace.self_s),
        "calls": dict(trace.calls),
        "hit_rate": {layer: trace.hit_rate(layer) for layer in tracer.HIT_PROBES},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "trace", "count"))
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()

    bench = Pass(args.workload, args.seed, args.workers, args.tmp)
    out: dict[str, Any] = {"mode": args.mode}
    trace = counter = None
    undo = []
    if args.mode in ("trace", "count"):
        trace = tracer.Tracer()
        undo.append(tracer.install(trace))
        if args.mode == "count":
            counter = tracer.BddCounter(trace)
            undo.append(counter.install())

    out["setup_s"] = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps(out))
        return
    start = time.perf_counter()
    bench.run()
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = _peak_rss_mb()
    if trace is not None:
        out["layers"] = _layer_report(trace)
    if counter is not None:
        counter.finish()
        out["bdd"] = {
            "managers": counter.managers,
            "nodes": counter.nodes,
            "op_calls": counter.op_calls,
            "hits": counter.hits,
            "misses": counter.misses,
            "by_layer": dict(counter.by_layer),
        }
    for restore in reversed(undo):
        restore()
    out.update(bench.check(workloads.load_expected()))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
