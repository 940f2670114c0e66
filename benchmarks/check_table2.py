"""Table-2 identity gate: every row must equal the recorded one.

Masks the 20 Table-2 circuits on the ``lsi10k_like`` library, as the
pipeline benchmark does: ``self_verify=True`` (the formal BDD proof) on
the 18 ``mask_suite`` circuits, paper defaults on the two ``mask_heavy``
ones.  Each row (critical outputs and minterms, slack, area, power and
coverage percentages, rounded to the benchmark's 6 decimals) is compared
with ``perfbench/expected.json`` through the benchmark's own
``table2_row``/``row_problems``; every run must also be sound with 100%
SPCF coverage.  Any difference exits non-zero.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_table2.py

This script only reads ``perfbench/``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from repro.benchcircuits import circuit_by_name  # noqa: E402
from repro.core import mask_circuit  # noqa: E402
from repro.netlist import builtin_library  # noqa: E402


def check() -> list[str]:
    """Mask every Table-2 circuit; returns the problems found."""
    library = builtin_library(workloads.LIBRARY)
    expected = workloads.load_expected()["table2"]
    problems: list[str] = []
    for name in (*workloads.SUITE, *workloads.HEAVY):
        self_verify = name in workloads.SUITE
        start = time.perf_counter()
        result = mask_circuit(
            circuit_by_name(name, library), library, self_verify=self_verify
        )
        report = result.report
        diffs = workloads.row_problems(name, workloads.table2_row(report), expected)
        if not report.sound:
            diffs.append(f"{name}: masking is unsound")
        if report.coverage_percent != 100.0:
            diffs.append(f"{name}: SPCF coverage {report.coverage_percent}%")
        if self_verify and not result.formal.ok:
            diffs.append(f"{name}: formal self-verification failed")
        status = "ok" if not diffs else "DIFFERS"
        print(f"{name:20s} {time.perf_counter() - start:6.2f}s {status}")
        problems.extend(diffs)
    return problems


def main() -> int:
    problems = check()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"table2-identity: {len(problems)} difference(s)", file=sys.stderr)
        return 1
    print("table2-identity: all 20 rows equal perfbench/expected.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
