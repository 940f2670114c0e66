"""Deterministic execution of one campaign shard.

:func:`run_shard` is a *pure function* of its :class:`ShardSpec`: every
random choice (vector pairs, struck nets, perturbed arcs) comes from one
``random.Random`` seeded with the shard's SHA-derived seed, so a retry, a
different worker, or a resumed campaign reproduces bit-identical counts.

The measurement itself is the paper's question asked under adversity: with
a failure mode injected into the design, how many output errors reach the
sampling flops *before* the masking mux patch, and how many survive *after*
it?  Timing modes (``delay``, ``aging``, ``clock``) sample two-vector
simulations at the clock edge; value modes (``seu``, ``stuck``) compare
zero-delay evaluations against the fault-free reference.

A shard is bit-parallel: bit ``k`` of every input word is vector ``k``,
drawn from the shard's RNG in the same order a per-vector loop would draw
it, so each circuit is evaluated once per shard (one
:func:`~repro.sim.eventsim.sample_words` or
:func:`~repro.sim.faults.eval_words_with_faults` pass) and every count is
a popcount of ``sampled ^ good``.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.benchcircuits import circuit_by_name
from repro.campaign.spec import SCHEMA_VERSION, ShardSpec
from repro.core.integrate import MaskedDesign, build_masked_design
from repro.core.masking import synthesize_masking
from repro.engine import CompiledCircuit, compile_circuit, pack_input_words
from repro.errors import CampaignError, ReproError
from repro.netlist import builtin_library
from repro.netlist.circuit import Circuit
from repro.sim.aging import aging_model, speed_path_gates
from repro.sim.eventsim import sample_words
from repro.sim.faults import eval_words_with_faults

#: Per-process cache of synthesized masked designs; keyed by the shard
#: fields that determine the synthesis.  Workers run one shard per process,
#: but the inline runner and tests execute many shards in-process.
_design_cache: dict[tuple, tuple[Circuit, MaskedDesign]] = {}


def _masked_design(shard: ShardSpec) -> tuple[Circuit, MaskedDesign]:
    key = (shard.circuit, shard.library, shard.threshold)
    cached = _design_cache.get(key)
    if cached is None:
        library = builtin_library(shard.library)
        circuit = circuit_by_name(shard.circuit, library)
        masking = synthesize_masking(circuit, library, threshold=shard.threshold)
        cached = (circuit, build_masked_design(masking))
        _design_cache[key] = cached
    return cached


def _draw_pattern(
    rng: random.Random, inputs, words: dict[str, int], bit: int
) -> None:
    """Draw one random pattern (one RNG bit per input, in order) into ``bit``."""
    for net in inputs:
        if rng.getrandbits(1):
            words[net] |= bit


def _zero_delay(
    circuit: Circuit,
    nets,
    words: Mapping[str, int],
    width: int,
    flips: Mapping[str, int] | None = None,
    stuck: Mapping[str, bool] | None = None,
) -> list[int]:
    """Zero-delay words of ``nets``, with optional injected net faults."""
    compiled = compile_circuit(circuit)
    values = eval_words_with_faults(
        compiled, pack_input_words(compiled, words, width), width,
        flips=flips, stuck=stuck,
    )
    index = compiled.net_index
    return [values[index[net]] for net in nets]


def _delay_scales(
    shard: ShardSpec, circuit: Circuit, rng: random.Random
) -> dict[str, float]:
    """Gate -> delay-scale map for the shard's timing fault, {} for none."""
    mode = shard.mode
    kind = mode["kind"]
    if kind == "clock":
        return {}
    if kind == "delay":
        scale = float(mode["scale"])
        pool = sorted(speed_path_gates(circuit, threshold=shard.threshold))
        if not pool:
            return {}
        count = min(int(mode["arcs"]), len(pool))
        return {g: scale for g in rng.sample(pool, count)}
    # aging: every speed-path gate drifts by the model's scale at time t.
    model = aging_model(mode["model"], rate=float(mode["rate"]))
    scale = model.scale_at(float(mode["t"]))
    pool = speed_path_gates(circuit, threshold=shard.threshold)
    return {g: scale for g in pool}


def _timing_shard(
    shard: ShardSpec,
    circuit: Circuit,
    design: MaskedDesign,
    rng: random.Random,
) -> tuple[dict[str, dict[str, int]], int, int, dict]:
    """delay/aging/clock: sample faulty waveforms at the clock edge."""
    compiled_good = compile_circuit(circuit)
    delta = compiled_good.critical_delay()
    if shard.mode["kind"] == "clock":
        fraction = float(shard.mode["fraction"])
    else:
        fraction = shard.clock_fraction
    clock = int(fraction * delta)
    masked_clock = clock + design.mux_delay

    scales = _delay_scales(shard, circuit, rng)
    faulty: CompiledCircuit = (
        compiled_good.with_delay_scales(scales) if scales else compiled_good
    )
    compiled_masked = compile_circuit(design.circuit)
    faulty_masked: CompiledCircuit = (
        compiled_masked.with_delay_scales(scales) if scales else compiled_masked
    )

    width = shard.vectors
    v1 = dict.fromkeys(circuit.inputs, 0)
    v2 = dict.fromkeys(circuit.inputs, 0)
    for k in range(width):
        _draw_pattern(rng, circuit.inputs, v1, 1 << k)
        _draw_pattern(rng, circuit.inputs, v2, 1 << k)
    good = _zero_delay(circuit, circuit.outputs, v2, width)
    sampled = sample_words(faulty, v1, v2, width, clock, circuit.outputs)
    masked_sampled = sample_words(
        faulty_masked, v1, v2, width, masked_clock,
        [design.output_map[y] for y in circuit.outputs],
    )
    counts, pairs_unmasked, pairs_masked = _tally(
        circuit.outputs, good, sampled, masked_sampled
    )
    detail = {"clock": clock, "masked_clock": masked_clock,
              "scaled_gates": sorted(scales)}
    return counts, pairs_unmasked, pairs_masked, detail


def _value_shard(
    shard: ShardSpec,
    circuit: Circuit,
    design: MaskedDesign,
    rng: random.Random,
) -> tuple[dict[str, dict[str, int]], int, int, dict]:
    """seu/stuck: zero-delay evaluation with injected net faults."""
    kind = shard.mode["kind"]
    gate_pool = sorted(circuit.gates)
    if not gate_pool:
        raise CampaignError(f"circuit {shard.circuit!r} has no gates to fault")
    stuck: dict[str, bool] = {}
    if kind == "stuck":
        stuck = {rng.choice(gate_pool): bool(rng.getrandbits(1))}
    flips_per_vector = int(shard.mode.get("flips", 1)) if kind == "seu" else 0

    width = shard.vectors
    pattern = dict.fromkeys(circuit.inputs, 0)
    flips: dict[str, int] = {}
    for k in range(width):
        _draw_pattern(rng, circuit.inputs, pattern, 1 << k)
        if flips_per_vector:
            for net in rng.sample(gate_pool, min(flips_per_vector, len(gate_pool))):
                flips[net] = flips.get(net, 0) | 1 << k
    good = _zero_delay(circuit, circuit.outputs, pattern, width)
    faulty = _zero_delay(circuit, circuit.outputs, pattern, width, flips, stuck)
    faulty_masked = _zero_delay(
        design.circuit, [design.output_map[y] for y in circuit.outputs],
        pattern, width, flips, stuck,
    )
    counts, pairs_unmasked, pairs_masked = _tally(
        circuit.outputs, good, faulty, faulty_masked
    )
    detail = {"stuck": {n: int(v) for n, v in stuck.items()}} if stuck else {}
    return counts, pairs_unmasked, pairs_masked, detail


def _tally(
    outputs, good: list[int], unmasked: list[int], masked: list[int]
) -> tuple[dict[str, dict[str, int]], int, int]:
    """Per-output error counts and erroneous-pair counts, by popcount.

    Bit ``k`` of ``sampled ^ good`` is an error in vector ``k``: recovered
    errors are unmasked-only bits, introduced ones masked-only bits.
    """
    counts = {}
    any_unmasked = any_masked = 0
    for y, g, u, m in zip(outputs, good, unmasked, masked):
        u_err, m_err = u ^ g, m ^ g
        counts[y] = {
            "unmasked": u_err.bit_count(),
            "masked": m_err.bit_count(),
            "recovered": (u_err & ~m_err).bit_count(),
            "introduced": (m_err & ~u_err).bit_count(),
        }
        any_unmasked |= u_err
        any_masked |= m_err
    return counts, any_unmasked.bit_count(), any_masked.bit_count()


def run_shard(shard: ShardSpec) -> dict:
    """Execute one shard and return its JSON-serializable result record.

    ``vectors == 0`` is a legal empty batch: the result is well-formed with
    all counts zero (the aggregator treats it like any other shard).
    """
    try:
        circuit, design = _masked_design(shard)
    except ReproError as exc:
        raise CampaignError(
            f"shard {shard.index}: cannot build masked design for "
            f"{shard.circuit!r}: {exc}"
        ) from exc
    rng = random.Random(shard.seed)
    if shard.mode["kind"] in ("delay", "aging", "clock"):
        counts, pairs_un, pairs_mk, detail = _timing_shard(
            shard, circuit, design, rng
        )
    else:
        counts, pairs_un, pairs_mk, detail = _value_shard(
            shard, circuit, design, rng
        )
    return {
        "schema": SCHEMA_VERSION,
        "shard": shard.index,
        "circuit": shard.circuit,
        "mode": dict(shard.mode),
        "mode_key": shard.mode_key,
        "vectors": shard.vectors,
        "pairs_unmasked_errors": pairs_un,
        "pairs_masked_errors": pairs_mk,
        "outputs": {y: dict(counts[y]) for y in sorted(counts)},
        "detail": detail,
    }
