"""Tests for clocked sampling and timing-error injection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchcircuits import comparator2
from repro.engine import compile_circuit
from repro.errors import SimulationError
from repro.sim import (
    eval_with_faults,
    eval_words_with_faults,
    exhaustive_patterns,
    random_patterns,
    sample_at_clock,
    sample_many,
    simulate,
    timing_errors,
)
from repro.sta import analyze
from tests.conftest import random_dag_circuit


def test_sampling_at_full_period_is_error_free():
    c = comparator2()
    delta = analyze(c).critical_delay
    pats = list(exhaustive_patterns(c.inputs))
    assert timing_errors(c, zip(pats, pats[1:]), clock=delta) == []


def test_aged_circuit_shows_errors_only_when_late():
    c = comparator2()
    delta = analyze(c).critical_delay
    slow = c.with_delay_scales({"t4": 3.0})
    pats = list(exhaustive_patterns(c.inputs))
    failures = timing_errors(slow, zip(pats, pats[1:]), clock=delta)
    assert failures  # slowing the speed-path past the clock must fail
    # and each reported failure is a genuine sample/settle mismatch
    for idx, errs in failures:
        result = sample_at_clock(slow, pats[idx], pats[idx + 1], delta)
        assert result.has_error
        assert errs == result.errors()


def test_sample_result_fields():
    c = comparator2()
    v1 = dict.fromkeys(c.inputs, False)
    v2 = dict.fromkeys(c.inputs, True)
    res = sample_at_clock(c, v1, v2, clock=7)
    assert set(res.sampled) == {"y"}
    assert res.settle_time["y"] <= 7
    assert not res.has_error


def test_negative_clock_rejected():
    c = comparator2()
    v = dict.fromkeys(c.inputs, False)
    with pytest.raises(SimulationError):
        sample_at_clock(c, v, v, clock=-1)


def test_sample_many_empty_batch_is_legal():
    """An n=0 workload yields nothing instead of erroring in the backend."""
    c = comparator2()
    assert list(sample_many(c, [], clock=7)) == []


def test_sample_many_validates_clock_before_iterating():
    """A bad period is reported at the call, even for an empty batch."""
    c = comparator2()
    with pytest.raises(SimulationError, match="clock period"):
        sample_many(c, [], clock=-1)


def test_sample_many_matches_sample_at_clock():
    c = comparator2()
    pats = list(exhaustive_patterns(c.inputs))[:5]
    pairs = list(zip(pats, pats[1:]))
    many = list(sample_many(c, pairs, clock=7))
    assert len(many) == len(pairs)
    for (v1, v2), res in zip(pairs, many):
        assert res == sample_at_clock(c, v1, v2, clock=7)


def test_eval_with_faults_no_faults_matches_simulate():
    c = comparator2()
    for pattern in list(exhaustive_patterns(c.inputs))[:8]:
        assert eval_with_faults(c, pattern) == simulate(c, pattern)


def test_eval_with_faults_flip_propagates_to_output():
    c = comparator2()
    pattern = dict.fromkeys(c.inputs, False)
    clean = simulate(c, pattern)
    flipped = eval_with_faults(c, pattern, flips=["y"])
    assert flipped["y"] != clean["y"]


def test_eval_with_faults_stuck_pins_net():
    c = comparator2()
    for pattern in list(exhaustive_patterns(c.inputs))[:8]:
        out = eval_with_faults(c, pattern, stuck={"y": True})
        assert out["y"] is True


def test_eval_with_faults_unknown_net():
    c = comparator2()
    pattern = dict.fromkeys(c.inputs, False)
    with pytest.raises(SimulationError, match="unknown net"):
        eval_with_faults(c, pattern, flips=["zz9"])


def test_error_rate_grows_with_aging():
    c = comparator2()
    delta = analyze(c).critical_delay
    pats = list(random_patterns(c.inputs, 120, seed=3))
    pairs = list(zip(pats, pats[1:]))
    rates = []
    for scale in (1.0, 1.5, 2.5):
        slow = c.with_delay_scales(
            {g: scale for g in ("t4", "y", "nb0", "nb1")}
        )
        rates.append(len(timing_errors(slow, pairs, clock=delta)))
    assert rates[0] == 0
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > 0


def _reference_faults(circuit, pattern, flips, stuck):
    """Gate-by-gate scalar fault evaluation on the netlist (no engine)."""
    values = {}
    for net in (*circuit.inputs, *circuit.topo_order()):
        if net in circuit.inputs:
            value = pattern[net]
        else:
            gate = circuit.gates[net]
            value = gate.cell.evaluate_seq([values[f] for f in gate.fanins])
        if net in stuck:
            value = stuck[net]
        values[net] = bool(value) != (net in flips)
    return values


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), width=st.sampled_from([0, 1, 7, 70]))
def test_word_fault_evaluator_equals_scalar_per_bit(seed, width):
    c = random_dag_circuit(seed, num_inputs=4, num_gates=10)
    rng = random.Random(seed)
    nets = [*c.inputs, *sorted(c.gates)]
    stuck = {net: bool(rng.getrandbits(1)) for net in rng.sample(nets, 2)}
    # One net both flipped (in some patterns) and stuck.
    flipped = [next(iter(stuck)), *rng.sample(nets, 2)]
    flips = {net: rng.getrandbits(width) if width else 0 for net in flipped}
    patterns = [
        {x: bool(rng.getrandbits(1)) for x in c.inputs} for _ in range(width)
    ]
    row = [sum(p[x] << k for k, p in enumerate(patterns)) for x in c.inputs]
    words = eval_words_with_faults(c, row, width, flips=flips, stuck=stuck)
    names = compile_circuit(c).net_names
    for k, pattern in enumerate(patterns):
        hit = {net for net, word in flips.items() if word >> k & 1}
        want = _reference_faults(c, pattern, hit, stuck)
        assert {n: bool(w >> k & 1) for n, w in zip(names, words)} == want
        assert eval_with_faults(c, pattern, flips=hit, stuck=stuck) == want


def test_flip_over_stuck_gives_inverted_stuck_value():
    c = comparator2()
    pattern = dict.fromkeys(c.inputs, False)
    out = eval_with_faults(c, pattern, flips=["y"], stuck={"y": True})
    assert out["y"] is False
    row = [0] * len(c.inputs)
    words = eval_words_with_faults(c, row, 2, flips={"y": 0b10}, stuck={"y": True})
    assert words[compile_circuit(c).net_index["y"]] == 0b01


def test_word_fault_evaluator_rejects_unknown_net_and_bad_row():
    c = comparator2()
    row = [0] * len(c.inputs)
    with pytest.raises(SimulationError, match="unknown net"):
        eval_words_with_faults(c, row, 1, stuck={"zz9": True})
    with pytest.raises(SimulationError, match="input words"):
        eval_words_with_faults(c, row[1:], 1)
