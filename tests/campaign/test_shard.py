"""Shard execution: determinism, empty batches, every fault mode."""

import random

import pytest

from repro.campaign import FAULT_KINDS, ShardSpec, derive_seed, run_shard
from repro.campaign.shard import _delay_scales, _masked_design
from repro.campaign.spec import SCHEMA_VERSION, normalize_mode
from repro.engine import compile_circuit
from repro.errors import CampaignError
from repro.sim import eval_with_faults, two_vector_waveforms


def shard_for(kind: str, vectors: int = 8, seed: int = 5, **params) -> ShardSpec:
    return ShardSpec(
        index=0,
        circuit="comparator2",
        mode=normalize_mode({"kind": kind, **params}),
        vectors=vectors,
        seed=derive_seed(seed, "comparator2", kind),
        clock_fraction=0.9,
    )


def check_wellformed(result: dict, shard: ShardSpec) -> None:
    assert result["shard"] == shard.index
    assert result["circuit"] == shard.circuit
    assert result["mode_key"] == shard.mode_key
    assert result["vectors"] == shard.vectors
    assert 0 <= result["pairs_masked_errors"] <= shard.vectors
    assert 0 <= result["pairs_unmasked_errors"] <= shard.vectors
    for row in result["outputs"].values():
        assert row["recovered"] <= row["unmasked"]
        assert row["unmasked"] - row["masked"] <= row["recovered"]
        for value in row.values():
            assert value >= 0


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_every_mode_runs_and_is_deterministic(kind):
    shard = shard_for(kind)
    first = run_shard(shard)
    check_wellformed(first, shard)
    assert first == run_shard(shard)  # pure function of the spec


def test_injection_actually_produces_errors():
    """The default severities must inject observable errors (else the
    campaign measures nothing)."""
    total = sum(
        run_shard(shard_for(kind, vectors=24))["pairs_unmasked_errors"]
        for kind in FAULT_KINDS
    )
    assert total > 0


def test_masking_recovers_errors():
    """Across modes, the mux patch must repair a nontrivial share."""
    un = mk = 0
    for kind in FAULT_KINDS:
        result = run_shard(shard_for(kind, vectors=24))
        un += result["pairs_unmasked_errors"]
        mk += result["pairs_masked_errors"]
    assert mk < un


def test_empty_batch_is_wellformed():
    shard = shard_for("seu", vectors=0)
    result = run_shard(shard)
    check_wellformed(result, shard)
    assert result["vectors"] == 0
    assert result["pairs_unmasked_errors"] == 0
    assert result["pairs_masked_errors"] == 0
    assert all(
        value == 0 for row in result["outputs"].values() for value in row.values()
    )


def test_unknown_circuit_raises_campaign_error():
    shard = ShardSpec(
        index=0, circuit="no-such-circuit", mode=normalize_mode("seu"),
        vectors=4, seed=1,
    )
    with pytest.raises(CampaignError, match="no-such-circuit"):
        run_shard(shard)


def test_distinct_seeds_distinct_streams():
    a = run_shard(shard_for("seu", seed=1))
    b = run_shard(shard_for("seu", seed=2))
    assert a != b


# --------------------------------------------------------------------------
# Oracle: the bit-parallel shard equals a per-vector loop over the same RNG


def _pattern(rng, inputs):
    return {net: bool(rng.getrandbits(1)) for net in inputs}


def _reference_shard(shard: ShardSpec) -> dict:
    """``run_shard`` one vector at a time, on whole waveforms."""
    circuit, design = _masked_design(shard)
    rng = random.Random(shard.seed)
    kind = shard.mode["kind"]
    counts = {y: dict.fromkeys(("unmasked", "masked", "recovered", "introduced"), 0)
              for y in circuit.outputs}
    errors: list[tuple[dict, dict]] = []  # per vector: unmasked, masked flags
    compiled_good = compile_circuit(circuit)
    if kind in ("delay", "aging", "clock"):
        fraction = (float(shard.mode["fraction"]) if kind == "clock"
                    else shard.clock_fraction)
        clock = int(fraction * compiled_good.critical_delay())
        masked_clock = clock + design.mux_delay
        scales = _delay_scales(shard, circuit, rng)
        faulty = compiled_good.with_delay_scales(scales)
        faulty_masked = compile_circuit(design.circuit).with_delay_scales(scales)
        for _ in range(shard.vectors):
            v1 = _pattern(rng, circuit.inputs)
            v2 = _pattern(rng, circuit.inputs)
            good = dict(zip(compiled_good.net_names, compiled_good.eval_pattern(v2)))
            waves = two_vector_waveforms(faulty, v1, v2)
            masked_waves = two_vector_waveforms(faulty_masked, v1, v2)
            errors.append((
                {y: waves[y].value_at(clock) != good[y] for y in circuit.outputs},
                {y: masked_waves[design.output_map[y]].value_at(masked_clock)
                 != good[y] for y in circuit.outputs},
            ))
        detail = {"clock": clock, "masked_clock": masked_clock,
                  "scaled_gates": sorted(scales)}
    else:
        pool = sorted(circuit.gates)
        stuck = ({rng.choice(pool): bool(rng.getrandbits(1))}
                 if kind == "stuck" else {})
        per_vector = int(shard.mode.get("flips", 1)) if kind == "seu" else 0
        for _ in range(shard.vectors):
            pattern = _pattern(rng, circuit.inputs)
            flips = rng.sample(pool, min(per_vector, len(pool))) if per_vector else ()
            good = dict(zip(compiled_good.net_names,
                            compiled_good.eval_pattern(pattern)))
            faulty = eval_with_faults(circuit, pattern, flips=flips, stuck=stuck)
            faulty_masked = eval_with_faults(
                design.circuit, pattern, flips=flips, stuck=stuck
            )
            errors.append((
                {y: faulty[y] != good[y] for y in circuit.outputs},
                {y: faulty_masked[design.output_map[y]] != good[y]
                 for y in circuit.outputs},
            ))
        detail = {"stuck": {n: int(v) for n, v in stuck.items()}} if stuck else {}
    for unmasked, masked in errors:
        for y in circuit.outputs:
            row = counts[y]
            row["unmasked"] += unmasked[y]
            row["masked"] += masked[y]
            row["recovered"] += unmasked[y] and not masked[y]
            row["introduced"] += masked[y] and not unmasked[y]
    return {
        "schema": SCHEMA_VERSION,
        "shard": shard.index,
        "circuit": shard.circuit,
        "mode": dict(shard.mode),
        "mode_key": shard.mode_key,
        "vectors": shard.vectors,
        "pairs_unmasked_errors": sum(any(u.values()) for u, _ in errors),
        "pairs_masked_errors": sum(any(m.values()) for _, m in errors),
        "outputs": {y: counts[y] for y in sorted(counts)},
        "detail": detail,
    }


@pytest.mark.parametrize("circuit", ["comparator2", "i1"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bit_parallel_shard_equals_per_vector_loop(circuit, seed):
    for kind in FAULT_KINDS:
        shard = ShardSpec(
            index=seed,
            circuit=circuit,
            mode=normalize_mode({"kind": kind}),
            vectors=70,
            seed=derive_seed(seed, circuit, kind),
            clock_fraction=0.8,
        )
        assert run_shard(shard) == _reference_shard(shard), kind
