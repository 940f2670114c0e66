"""Tests for the two-vector event-driven timing simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchcircuits import comparator2
from repro.engine import compile_circuit
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import (
    Waveform,
    exhaustive_patterns,
    sample_words,
    settle_times,
    simulate,
    stabilization_times,
    two_vector_waveforms,
)
from tests.conftest import random_dag_circuit

LIB = unit_library()


def test_waveform_basics():
    w = Waveform.step(False, True, at=5)
    assert w.initial is False and w.final is True
    assert w.value_at(4) is False and w.value_at(5) is True
    assert w.settle_time == 5
    const = Waveform.constant(True)
    assert const.final is True and const.settle_time == 0
    assert Waveform.step(True, True).num_transitions == 0


def test_waveform_shift():
    w = Waveform.step(False, True, at=3).shifted(4)
    assert w.value_at(6) is False and w.value_at(7) is True


def test_inverter_chain_propagation():
    c = Circuit("t", inputs=("a",), outputs=("g3",))
    for i in range(3):
        c.add_gate(f"g{i + 1}", LIB.get("INV"), (f"g{i}" if i else "a",))
    waves = two_vector_waveforms(c, {"a": False}, {"a": True})
    assert waves["g3"].transitions == ((3, False),)
    assert waves["g3"].initial is True


def test_static_pair_produces_no_transitions():
    c = comparator2()
    v = dict.fromkeys(c.inputs, True)
    waves = two_vector_waveforms(c, v, v)
    for net in c.nets():
        assert waves[net].num_transitions == 0


def test_final_values_match_zero_delay_sim():
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=12)
        pats = list(exhaustive_patterns(c.inputs))
        for v1, v2 in zip(pats[::3], pats[1::3]):
            waves = two_vector_waveforms(c, v1, v2)
            ref = simulate(c, v2)
            for net in c.nets():
                assert waves[net].final == ref[net], (seed, net)


def test_settle_bounded_by_floating_mode():
    """Two-vector settle time never exceeds the floating-mode bound of v2."""
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=12)
        pats = list(exhaustive_patterns(c.inputs))
        for v1, v2 in zip(pats[::2], pats[1::2]):
            settles = settle_times(c, v1, v2)
            oracle = stabilization_times(c, v2)
            for y in c.outputs:
                assert settles[y] <= oracle[y], (seed, y)


def test_glitch_visible_in_waveform():
    # XOR of a fast and a slow copy of the same input glitches.
    c = Circuit("t", inputs=("a",), outputs=("g",))
    c.add_gate("s1", LIB.get("INV"), ("a",))
    c.add_gate("s2", LIB.get("INV"), ("s1",))
    c.add_gate("g", LIB.get("XOR2"), ("a", "s2"))
    waves = two_vector_waveforms(c, {"a": False}, {"a": True})
    # a arrives at the XOR at t=2; s2 at t=4: a 1-glitch in between.
    assert waves["g"].num_transitions == 2
    assert waves["g"].value_at(3) is True
    assert waves["g"].final is False


def test_missing_input_rejected():
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        two_vector_waveforms(comparator2(), {}, {})


# --------------------------------------------------------------------------
# sample_words: the bit-parallel kernel equals the waveforms at one instant


def _circuit_with_constants(seed: int, lib, num_inputs: int, num_gates: int):
    """A random DAG whose gates may read ZERO/ONE tie cells."""
    rng = random.Random(seed)
    names = ("INV", "BUF", "AND2", "NAND2", "NOR2", "XOR2", "OR3", "ZERO", "ONE")
    cells = [lib.get(n) for n in names]
    inputs = [f"x{i}" for i in range(num_inputs)]
    c = Circuit(f"tie{seed}", inputs=inputs)
    nets = list(inputs)
    for g in range(num_gates):
        cell = rng.choice(cells)
        c.add_gate(f"g{g}", cell, [rng.choice(nets) for _ in range(cell.num_inputs)])
        nets.append(f"g{g}")
    c.add_output(f"g{num_gates - 1}")
    c.validate()
    return c


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    lib=st.sampled_from([LIB, lsi10k_like_library()]),
    num_inputs=st.integers(1, 4),
    num_gates=st.integers(1, 12),
    width=st.sampled_from([0, 1, 5, 70]),
    data=st.data(),
)
def test_sample_words_equals_waveforms(seed, lib, num_inputs, num_gates, width, data):
    c = _circuit_with_constants(seed, lib, num_inputs, num_gates)
    scales = data.draw(
        st.dictionaries(st.sampled_from(sorted(c.gates)), st.floats(1.0, 3.0))
    )
    compiled = compile_circuit(c).with_delay_scales(scales)
    rng = random.Random(seed)
    pairs = [
        tuple({x: bool(rng.getrandbits(1)) for x in c.inputs} for _ in range(2))
        for _ in range(width)
    ]
    v1 = {x: sum(p[0][x] << k for k, p in enumerate(pairs)) for x in c.inputs}
    v2 = {x: sum(p[1][x] << k for k, p in enumerate(pairs)) for x in c.inputs}
    waves = [two_vector_waveforms(compiled, a, b) for a, b in pairs]
    horizon = max(compiled.arrival())
    clocks = {-2, -1, 0, horizon - 1, horizon, horizon + 1}
    clocks.update(t for w in waves for wave in w.values() for t, _ in wave.transitions)
    clocks.add(data.draw(st.integers(-3, horizon + 3)))
    nets = list(compiled.net_names)
    for clock in sorted(clocks):
        got = sample_words(compiled, v1, v2, width, clock, nets)
        want = [
            sum(w[net].value_at(clock) << k for k, w in enumerate(waves))
            for net in nets
        ]
        assert got == want, clock


def test_sample_words_glitch_at_the_edge():
    # The XOR glitch of test_glitch_visible_in_waveform, sampled at 3 and 5.
    c = Circuit("t", inputs=("a",), outputs=("g",))
    c.add_gate("s1", LIB.get("INV"), ("a",))
    c.add_gate("s2", LIB.get("INV"), ("s1",))
    c.add_gate("g", LIB.get("XOR2"), ("a", "s2"))
    # pair 0 rises (glitches), pair 1 stays low.
    assert sample_words(c, {"a": 0b00}, {"a": 0b01}, 2, 3, ["g"]) == [0b01]
    assert sample_words(c, {"a": 0b00}, {"a": 0b01}, 2, 5, ["g"]) == [0b00]


def test_sample_words_rejects_unknown_net_and_missing_input():
    from repro.errors import SimulationError

    c = comparator2()
    zeros = dict.fromkeys(c.inputs, 0)
    with pytest.raises(SimulationError, match="unknown net"):
        sample_words(c, zeros, zeros, 1, 0, ["nope"])
    with pytest.raises(SimulationError, match="missing input"):
        sample_words(c, {}, zeros, 1, 0, ["y"])
