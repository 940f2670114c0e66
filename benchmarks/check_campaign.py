"""Campaign identity gate: the benchmark's campaign must equal the recorded one.

Runs the pipeline benchmark's campaign spec (its five circuits, every fault
mode, two shards per cell, 128 vectors per shard) at the recorded seed on
two workers, and compares the aggregate without ``telemetry`` with
``perfbench/expected.json``'s ``campaign_aggregate`` through the
benchmark's own ``comparable_aggregate``/``aggregate_problems``.  Every
shard must complete; any difference exits non-zero.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_campaign.py

This script only reads ``perfbench/``.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from repro.campaign.runner import RunnerConfig, run_campaign  # noqa: E402
from repro.campaign.spec import FAULT_KINDS, CampaignSpec  # noqa: E402


def check() -> list[str]:
    """Run the recorded campaign; returns the problems found."""
    spec = CampaignSpec(
        circuits=workloads.CAMPAIGN_CIRCUITS,
        modes=tuple({"kind": kind} for kind in FAULT_KINDS),
        shards_per_cell=workloads.CAMPAIGN_SHARDS_PER_CELL,
        vectors_per_shard=workloads.CAMPAIGN_VECTORS,
        seed=workloads.RECORDED_SEED,
    )
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        outcome = run_campaign(
            spec, Path(tmp) / "campaign.ckpt.jsonl", RunnerConfig(workers=2)
        )
    print(f"campaign seed {spec.seed}: {time.perf_counter() - start:.2f}s")
    aggregate = workloads.comparable_aggregate(outcome.aggregate)
    problems = [
        f"shard {entry['shard']} ({entry['circuit']}/{entry['mode_key']}) "
        f"{entry['status']}"
        for entry in aggregate["incomplete_shards"]
    ]
    diffs, _ = workloads.aggregate_problems(
        aggregate, workloads.load_expected()["campaign_aggregate"]
    )
    return problems + diffs


def main() -> int:
    problems = check()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"campaign-identity: {len(problems)} difference(s)", file=sys.stderr)
        return 1
    print("campaign-identity: aggregate equals perfbench/expected.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
