"""repro — reproduction of *Masking timing errors on speed-paths in logic
circuits* (Choudhury & Mohanram, DATE 2009).

The package is organized bottom-up:

* :mod:`repro.bdd` — ROBDD engine (characteristic functions, counting, ISOP).
* :mod:`repro.logic` — cubes, covers, expressions, QM, factoring.
* :mod:`repro.netlist` — cells, libraries, gate-level circuits, BLIF I/O.
* :mod:`repro.sta` — static timing analysis and speed-path enumeration.
* :mod:`repro.sim` — logic/timing simulation and timing-error injection.
* :mod:`repro.spcf` — the three speed-path characteristic function algorithms.
* :mod:`repro.synth` — technology-independent networks, decomposition, mapping.
* :mod:`repro.core` — error-masking synthesis (the paper's contribution).
* :mod:`repro.analysis` — netlist lint + BDD-based formal verification.
* :mod:`repro.campaign` — resilient fault-injection campaigns (checkpoint/resume).
* :mod:`repro.apps` — wearout prediction and debug trace capture.
* :mod:`repro.benchcircuits` — benchmark circuits and generators.

Quickstart::

    from repro import mask_circuit, lsi10k_like_library, make_benchmark

    circuit = make_benchmark("C432")
    result = mask_circuit(circuit, lsi10k_like_library())
    print(result.report.area_overhead_percent, result.report.slack_percent)

Every name in ``__all__`` is imported from its subpackage on first access
(PEP 562), so importing one subpackage — a pool worker imports
``repro.exec.worker`` — does not load the others.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: The subpackage each public name is imported from.
_SOURCES = {
    "Circuit": "repro.netlist",
    "Library": "repro.netlist",
    "unit_library": "repro.netlist",
    "lsi10k_like_library": "repro.netlist",
    "read_blif": "repro.netlist",
    "write_blif": "repro.netlist",
    "analyze": "repro.sta",
    "enumerate_speed_paths": "repro.sta",
    "SpcfContext": "repro.spcf",
    "spcf_shortpath": "repro.spcf",
    "spcf_pathbased": "repro.spcf",
    "spcf_nodebased": "repro.spcf",
    "compare_algorithms": "repro.spcf",
    "synthesize_masking": "repro.core",
    "mask_circuit": "repro.core",
    "build_masked_design": "repro.core",
    "verify_masking": "repro.core",
    "overhead_report": "repro.core",
    "MaskingResult": "repro.core",
    "MaskedDesign": "repro.core",
    "OverheadReport": "repro.core",
    "PipelineResult": "repro.core",
    "make_benchmark": "repro.benchcircuits",
    "circuit_by_name": "repro.benchcircuits",
    "LintConfig": "repro.analysis",
    "LintReport": "repro.analysis",
    "VerifyMaskReport": "repro.analysis",
    "lint_circuit": "repro.analysis",
    "lint_suite": "repro.analysis",
    "verify_mask": "repro.analysis",
    "CampaignSpec": "repro.campaign",
    "RunnerConfig": "repro.campaign",
    "plan_campaign": "repro.campaign",
    "run_campaign": "repro.campaign",
    "resume_campaign": "repro.campaign",
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(source), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
