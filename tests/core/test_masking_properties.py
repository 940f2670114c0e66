"""Property tests for the masking synthesis on random and real circuits.

The two invariants the whole scheme rests on (DESIGN.md §7):

* soundness — ``e_y = 1`` implies ``y~ = y`` for *every* input pattern,
* coverage — every SPCF pattern raises ``e_y`` (100% masking).

Plus: functional transparency of the masked design, slack bookkeeping, and
behaviour under parameter variations.
"""

import pytest

from repro.benchcircuits import comparator_nbit
from repro.benchcircuits.handmade import priority_encoder, ripple_adder
from repro.core import (
    build_masked_design,
    mask_circuit,
    masking_delay,
    synthesize_masking,
    verify_masking,
)
from repro.netlist import lsi10k_like_library, unit_library
from repro.sim import exhaustive_patterns, simulate
from repro.spcf import expr_to_function
from tests.conftest import random_dag_circuit

UNIT = unit_library()
LSI = lsi10k_like_library()


def masked_functions(result):
    """BDDs of every masking-circuit net over the PIs."""
    mgr = result.context.manager
    fns = {net: mgr.var(net) for net in result.circuit.inputs}
    for name in result.masking_circuit.topo_order():
        gate = result.masking_circuit.gates[name]
        env = {p: fns[f] for p, f in zip(gate.cell.inputs, gate.fanins)}
        fns[name] = expr_to_function(gate.cell.expr, env, mgr)
    return fns


def assert_invariants(circuit, library, **kwargs):
    result = synthesize_masking(circuit, library, **kwargs)
    verification = verify_masking(result)
    assert verification.sound, verification.unsound_outputs
    assert verification.full_coverage
    # Brute-force double check on small circuits.
    if len(circuit.inputs) <= 10 and not result.is_trivial:
        fns = masked_functions(result)
        for pat in exhaustive_patterns(circuit.inputs):
            ref = simulate(circuit, pat)
            for y, (pred_net, ind_net) in result.outputs.items():
                e = fns[ind_net].evaluate(pat)
                if e:
                    assert fns[pred_net].evaluate(pat) == ref[y], (pat, y)
                if result.spcf.per_output[y].evaluate(pat):
                    assert e, (pat, y)
    return result


@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_sound_and_covered(seed):
    c = random_dag_circuit(seed, num_inputs=6, num_gates=16, num_outputs=3)
    assert_invariants(c, UNIT, max_support=8)


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("threshold", [0.75, 0.9])
def test_threshold_variations(seed, threshold):
    c = random_dag_circuit(seed, num_inputs=6, num_gates=14, num_outputs=2)
    assert_invariants(c, UNIT, threshold=threshold, max_support=8)


@pytest.mark.parametrize("max_support", [4, 8, 15])
def test_collapse_bound_variations(max_support):
    c = comparator_nbit(4)
    assert_invariants(c, UNIT, max_support=max_support)


@pytest.mark.parametrize("cube_pool", ["isop", "primes"])
def test_cube_pool_variations(cube_pool):
    c = comparator_nbit(3)
    assert_invariants(c, UNIT, cube_pool=cube_pool, max_support=8)


@pytest.mark.parametrize("dontcare", [True, False])
def test_dontcare_isop_toggle(dontcare):
    c = comparator_nbit(3)
    assert_invariants(c, UNIT, dontcare_isop=dontcare, max_support=8)


@pytest.mark.parametrize("seed", [0, 2, 8, 10])
def test_paper_indicator_branch_is_sound(seed):
    """Without don't-care ISOPs the indicator is the selected e = n0 | n1."""
    c = random_dag_circuit(seed, num_inputs=7, num_gates=18, library=LSI, num_outputs=3)
    result = assert_invariants(c, LSI, dontcare_isop=False)
    assert any(not m.indicator_trivial for m in result.node_maskings.values())
    for masking in result.node_maskings.values():
        assert masking.prediction_source in ("n1-selected", "n0-selected")


def test_real_circuits_with_lsi_library():
    for make in (lambda: ripple_adder(3, LSI), lambda: priority_encoder(6, LSI)):
        c = make()
        result = assert_invariants(c, LSI)
        design = build_masked_design(result)
        for pat in exhaustive_patterns(c.inputs):
            ref = simulate(c, pat)
            got = simulate(design.circuit, pat)
            for y in c.outputs:
                assert got[design.output_map[y]] == ref[y]


def test_trivial_when_no_critical_outputs():
    c = comparator_nbit(3)
    result = synthesize_masking(c, UNIT, target=10**6)
    assert result.is_trivial
    assert result.masking_circuit.num_gates == 0
    design = build_masked_design(result)
    assert design.output_map == {y: y for y in c.outputs}
    assert masking_delay(result) == 0


def test_masked_design_structure():
    c = comparator_nbit(4)
    res = mask_circuit(c, UNIT, max_support=8)
    design = res.design
    # one mux per critical output, selecting between original and prediction
    for y in res.masking.outputs:
        masked_net = design.output_map[y]
        mux = design.circuit.gate(masked_net)
        assert mux.cell.name == "MUX2"
        ind, orig, pred = mux.fanins
        assert orig == y
        assert ind == design.indicator_nets[y]
        assert pred == design.prediction_nets[y]
    # output order preserved
    assert design.circuit.outputs == tuple(
        design.output_map[y] for y in c.outputs
    )


def test_overhead_report_fields():
    c = comparator_nbit(4)
    res = mask_circuit(c, UNIT, max_support=8)
    r = res.report
    assert r.circuit_name == c.name
    assert r.num_gates == c.num_gates
    assert r.critical_minterms == res.masking.spcf.count()
    assert r.masking_delay == masking_delay(res.masking)
    assert 0 < r.masking_area
    assert r.original_power > 0
    assert r.coverage_percent == 100.0
    # slack bookkeeping: slack% = (delta - mask_delay)/delta
    expected = 100.0 * (r.original_delay - r.masking_delay) / r.original_delay
    assert r.slack_percent == pytest.approx(expected)


def test_name_collision_detected():
    from repro.errors import MaskingError

    c = comparator_nbit(3)
    res = synthesize_masking(c, UNIT, max_support=8)
    # sabotage: add a gate to the original that clashes with a masking net
    clash = next(iter(res.masking_circuit.gates))
    res.circuit.add_gate(clash, UNIT.get("INV"), (c.inputs[0],))
    with pytest.raises(MaskingError):
        build_masked_design(res)
