"""End-to-end integration tests across subsystems."""

import pytest

from repro import (
    analyze,
    circuit_by_name,
    compare_algorithms,
    lsi10k_like_library,
    mask_circuit,
    make_benchmark,
    read_blif,
    write_blif,
)
from repro.apps import capture_experiment, predict_onset, wearout_experiment
from repro.benchcircuits import PAPER_SPECS
from repro.sim import LinearAging, random_patterns, sample_at_clock, simulate

LSI = lsi10k_like_library()

#: Small representative circuits for full-pipeline integration runs.
NAMES = ("cmb", "x2", "C432", "sparc_ifu_dec")


@pytest.mark.parametrize("name", NAMES)
def test_full_pipeline_on_paper_benchmark(name):
    c = make_benchmark(name)
    res = mask_circuit(c, LSI)
    r = res.report
    assert r.sound
    assert r.coverage_percent == 100.0
    assert r.critical_outputs == PAPER_SPECS[name].deep_outputs
    assert r.masking_delay < r.original_delay
    assert r.area_overhead_percent < 200.0  # far below duplication
    # the masked design still computes the original functions
    for pat in random_patterns(c.inputs, 50, seed=13):
        ref = simulate(c, pat)
        got = simulate(res.design.circuit, pat)
        for y in c.outputs:
            assert got[res.design.output_map[y]] == ref[y]


def test_spcf_algorithms_agree_on_benchmark():
    row = compare_algorithms(make_benchmark("C432"))
    assert row.path_based_count == row.short_path_count
    assert row.node_based_count >= row.short_path_count
    assert row.over_approximation_factor >= 1.0


def test_masked_design_survives_blif_roundtrip():
    c = make_benchmark("cmb")
    res = mask_circuit(c, LSI)
    text = write_blif(res.design.circuit)
    back = read_blif(text, library=LSI)
    for pat in random_patterns(c.inputs, 30, seed=2):
        a = simulate(res.design.circuit, pat)
        b = simulate(back, pat)
        for net in res.design.output_map.values():
            assert a[net] == b[net]


def test_timing_error_injection_is_masked_end_to_end():
    """The headline claim: inject slow speed-paths, sample at the clock,
    and observe that masked outputs stay correct while raw outputs fail."""
    c = make_benchmark("cmb")
    res = mask_circuit(c, LSI)
    design = res.design
    clock = design.clock_period
    from repro.sim import speed_path_gates

    slow_gates = {g: 1.6 for g in speed_path_gates(c) & set(c.gates)}
    aged = design.circuit.with_delay_scales(slow_gates)
    raw_aged = c.with_delay_scales(slow_gates)

    pats = list(random_patterns(c.inputs, 300, seed=21))
    raw_errors = masked_errors = 0
    for v1, v2 in zip(pats, pats[1:]):
        raw = sample_at_clock(raw_aged, v1, v2, clock)
        if raw.has_error:
            raw_errors += 1
        masked = sample_at_clock(aged, v1, v2, clock)
        for y, net in design.output_map.items():
            correct = simulate(c, v2)[y]
            if masked.sampled[net] != correct:
                masked_errors += 1
    assert masked_errors == 0  # 100% masking of injected timing errors
    # (raw errors may be rare under random vectors; the guard cubes make
    # speed-path activation a low-probability event by design)


def test_wearout_and_debug_applications_integrate():
    c = make_benchmark("cmb")
    res = mask_circuit(c, LSI)
    epochs = wearout_experiment(
        res.masking,
        res.design,
        aging=LinearAging(rate=0.2),
        epochs=4,
        cycles_per_epoch=60,
        seed=3,
    )
    assert len(epochs) == 4
    assert all(e.residual_error_rate == 0.0 for e in epochs)
    predict_onset(epochs)  # must not raise

    report = capture_experiment(res.design, buffer_depth=8, cycles=512)
    assert report.buffer_depth == 8
    assert report.expansion_factor >= 1.0


def test_public_api_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__ == "1.0.0"
    rep = analyze(circuit_by_name("comparator2"))
    assert rep.critical_delay == 7


_LAZY_PROBE = """
import sys
import repro.exec.worker
assert "repro.analysis" not in sys.modules, sorted(sys.modules)
import repro
from repro import mask_circuit
assert mask_circuit.__module__.startswith("repro.core")
assert set(repro.__all__) <= set(dir(repro))
assert not hasattr(repro, "no_such_name")
"""


def test_package_exports_load_on_first_use():
    """A pool worker's import leaves the analysis plane unloaded, while
    every export still resolves (checked in a fresh interpreter)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
