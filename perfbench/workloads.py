"""Workload definitions, their inputs from a seed, and the output checks.

This module imports nothing from ``repro`` at module level, so the parent
process and the tests can use it without the program on the path.

Run as a script to record the expected outputs at the current commit::

    PYTHONPATH=src python3 perfbench/workloads.py --record
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Any, Mapping

WORKLOADS = ("mask_heavy", "mask_suite", "campaign")

#: The two slowest Table-2 circuits, with the most critical outputs.
HEAVY = ("sparc_exu_ecl", "sparc_ifu_ifqdp")
#: The other 18 Table-2 circuits.
SUITE = (
    "i1", "cmb", "x2", "cu", "too_large", "k2", "alu2", "alu4", "apex4",
    "apex6", "frg1", "C432", "C880", "C2670", "sparc_ifu_dec",
    "sparc_ifu_invctl", "sparc_ifu_dcl", "lsu_stb_ctl",
)
CAMPAIGN_CIRCUITS = ("comparator6", "C432", "i1", "alu2", "cu")
CAMPAIGN_SHARDS_PER_CELL = 2
CAMPAIGN_VECTORS = 128
LIBRARY = "lsi10k_like"

#: The seed whose campaign aggregate is recorded in ``expected.json``.
RECORDED_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Decimal places kept when comparing Table-2 percentages; float residues
#: such as C2670's ``-8.5e-14`` power overhead round to zero.
ROW_DECIMALS = 6


def mask_order(workload: str, seed: int) -> list[str]:
    """Circuits a workload masks, in the order ``seed`` shuffles them to."""
    if workload == "mask_heavy":
        names = list(HEAVY)
    elif workload == "mask_suite":
        names = list(SUITE)
    elif workload == "campaign":
        names = list(CAMPAIGN_CIRCUITS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(names)
    return names


def table2_row(report: Any) -> dict[str, Any]:
    """The Table-2 columns of an ``OverheadReport``, rounded for comparison."""

    def fixed(value: float) -> float:
        return round(value, ROW_DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0

    return {
        "critical_outputs": report.critical_outputs,
        "critical_minterms": report.critical_minterms,
        "slack_pct": fixed(report.slack_percent),
        "area_pct": fixed(report.area_overhead_percent),
        "power_pct": fixed(report.power_overhead_percent),
        "coverage_pct": fixed(report.coverage_percent),
    }


def row_problems(name: str, row: Mapping[str, Any], expected: Mapping[str, Any]) -> list[str]:
    """Differences between a measured Table-2 row and the recorded one."""
    want = expected.get(name)
    if want is None:
        return [f"{name}: no recorded Table-2 row"]
    return [
        f"{name}: {column} is {row.get(column)!r}, recorded {value!r}"
        for column, value in want.items()
        if row.get(column) != value
    ]


def comparable_aggregate(aggregate: Mapping[str, Any]) -> dict[str, Any]:
    """A campaign aggregate without ``telemetry``, which holds wall-clock data."""
    return json.loads(
        json.dumps({k: v for k, v in aggregate.items() if k != "telemetry"})
    )


def aggregate_problems(
    aggregate: Mapping[str, Any], expected: Mapping[str, Any]
) -> tuple[list[str], int]:
    """Differences from the recorded aggregate, and the shards they involve."""
    problems: list[str] = []
    bad_shards = 0
    got_groups = aggregate.get("groups", [])
    want_groups = expected.get("groups", [])
    if len(got_groups) != len(want_groups):
        return [f"campaign has {len(got_groups)} groups, recorded {len(want_groups)}"], sum(
            g["shards_total"] for g in want_groups
        )
    for got, want in zip(got_groups, want_groups):
        if got != want:
            problems.append(
                f"campaign group {want['circuit']}/{want['mode_key']} differs "
                "from the recorded aggregate"
            )
            bad_shards += want["shards_total"]
    rest = {k: v for k, v in aggregate.items() if k != "groups"}
    want_rest = {k: v for k, v in expected.items() if k != "groups"}
    if rest != want_rest:
        problems.append("campaign totals or header differ from the recorded aggregate")
    return problems, bad_shards


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _record(path: Path) -> None:
    """Mask every workload circuit and run the recorded campaign seed."""
    import tempfile

    from child import (
        RunnerConfig,
        builtin_library,
        campaign_spec,
        circuit_by_name,
        mask_circuit,
        run_campaign,
    )

    library = builtin_library(LIBRARY)
    rows = {}
    for name in dict.fromkeys((*HEAVY, *SUITE, *CAMPAIGN_CIRCUITS)):
        report = mask_circuit(circuit_by_name(name, library), library).report
        rows[name] = table2_row(report)
        print(f"recorded {name}", file=sys.stderr)
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        outcome = run_campaign(
            campaign_spec(RECORDED_SEED),
            Path(tmp) / "campaign.ckpt.jsonl",
            RunnerConfig(workers=2),
        )
    doc = {
        "table2": rows,
        "campaign_seed": RECORDED_SEED,
        "campaign_aggregate": comparable_aggregate(outcome.aggregate),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/workloads.py --record")
    _record(EXPECTED_PATH)
