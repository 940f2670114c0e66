"""Golden test: the paper's 2-bit comparator walkthrough (Sec. 4.2, Fig. 2).

Reproduces, from our implementation, every quantity the paper derives:

* critical path delay 7 under the unit-delay model (INV = 1, 2-input = 2),
* speed-path threshold ``Delta_y = floor(0.9 * 7) = 6``,
* the exact SPCF  ``Sigma_y = a1' + a0' b1``  (10 of 16 patterns),
* the satisfiability care sets s0/s1 induced by Sigma,
* a masking circuit with ``e = 1  =>  y~ = y`` for every pattern and
  ``Sigma => e = 1`` (100% masking), whose indicator covers the paper's
  simplified ``e = a1' + b1`` region on Sigma.
"""

import pytest

from repro.benchcircuits import comparator2
from repro.core import (
    local_care_sets,
    mask_circuit,
    synthesize_masking,
    verify_masking,
)
from repro.netlist import unit_library
from repro.sim import exhaustive_patterns, simulate
from repro.spcf import SpcfContext, spcf_shortpath
from repro.sta import analyze

LIB = unit_library()


@pytest.fixture(scope="module")
def circuit():
    return comparator2()


@pytest.fixture(scope="module")
def context(circuit):
    return SpcfContext(circuit)


def test_delay_and_threshold(circuit, context):
    rep = analyze(circuit)
    assert rep.critical_delay == 7
    assert rep.target == 6
    assert context.target == 6


def test_exact_sigma_matches_paper(circuit, context):
    res = spcf_shortpath(circuit, context=context)
    mgr = context.manager
    paper = (~mgr.var("a1")) | (~mgr.var("a0") & mgr.var("b1"))
    assert res.per_output["y"] == paper
    assert res.count() == 10


def test_care_sets_match_paper(circuit, context):
    """s0/s1 from the paper, expressed in the node-local (= PI) space."""
    res = spcf_shortpath(circuit, context=context)
    sigma = res.per_output["y"]
    mgr = context.manager
    f_y = context.functions["y"]
    s0 = sigma & ~f_y
    s1 = sigma & f_y
    a0, a1, b0, b1 = (mgr.var(v) for v in ("a0", "a1", "b0", "b1"))
    paper_s0 = (~a1 & b1) | (~a0 & b0 & (~a1 | b1))
    paper_s1 = (~a1 & ~b1 & (a0 | ~b0)) | (~a0 & ~b0 & a1 & b1)
    assert s0 == paper_s0
    assert s1 == paper_s1


def test_masking_circuit_semantics(circuit):
    result = mask_circuit(circuit, LIB, max_support=8)
    report = result.report
    assert report.sound
    assert report.coverage_percent == 100.0
    assert report.critical_outputs == 1
    assert report.critical_minterms == 10
    # non-intrusive: the original gates are untouched in the masked design
    for name, gate in circuit.gates.items():
        assert result.design.circuit.gates[name] == gate


def test_indicator_covers_paper_e_on_sigma(circuit, context):
    """The paper's simplified e = a1' + b1 and ours must agree on Sigma."""
    masking = synthesize_masking(circuit, LIB, max_support=8)
    verification = verify_masking(masking)
    assert verification.sound and verification.full_coverage
    # Reconstruct our mapped e_y as a BDD and compare where it matters.
    from repro.spcf import expr_to_function

    mgr = masking.context.manager
    fns = {net: mgr.var(net) for net in circuit.inputs}
    for name in masking.masking_circuit.topo_order():
        gate = masking.masking_circuit.gates[name]
        env = {p: fns[f] for p, f in zip(gate.cell.inputs, gate.fanins)}
        fns[name] = expr_to_function(gate.cell.expr, env, mgr)
    _, ind_net = masking.outputs["y"]
    sigma = masking.spcf.per_output["y"]
    assert sigma.is_subset_of(fns[ind_net])


def test_masked_design_functionally_transparent(circuit):
    result = mask_circuit(circuit, LIB, max_support=8)
    masked = result.design
    for pat in exhaustive_patterns(circuit.inputs):
        ref = simulate(circuit, pat)
        got = simulate(masked.circuit, pat)
        assert got[masked.output_map["y"]] == ref["y"], pat


def test_local_care_sets_on_collapsed_node(circuit, context):
    """local_care_sets on the (single) collapsed node of the comparator:
    truth tables over its fanins, equal to the local images of the paper's
    PI-space care sets s0 = Sigma & ~y and s1 = Sigma & y."""
    masking = synthesize_masking(circuit, LIB, max_support=8)
    mgr = masking.context.manager
    node = masking.technet.node("y")
    sigma = masking.spcf.per_output["y"]
    tfns = masking.technet.global_functions(mgr)
    s0, s1 = local_care_sets(node, sigma, tfns)
    assert s0 & s1 == 0
    assert s0 and s1
    # Minterm bit i is the value of fanin i.
    assert node.fanins == ("t4", "a1", "b1")
    assert minterms(s0) == {0b000, 0b100, 0b110}
    assert minterms(s1) == {0b001, 0b111}
    reached = (set(), set())
    for pattern in exhaustive_patterns(circuit.inputs):
        if sigma.evaluate(pattern):
            local = sum(
                tfns[f].evaluate(pattern) << i for i, f in enumerate(node.fanins)
            )
            reached[simulate(circuit, pattern)["y"]].add(local)
    assert reached == (minterms(s0), minterms(s1))


def minterms(table: int) -> set[int]:
    return {m for m in range(table.bit_length()) if table >> m & 1}
