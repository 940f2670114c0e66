"""The care-set image at a node's fanins, against brute-force enumeration."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bdd import BddManager, cube_function, disjunction
from repro.benchcircuits import circuit_by_name, comparator2
from repro.core import synthesize_masking
from repro.core.careset import local_image_cover
from repro.errors import MaskingError
from repro.logic import Cover
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.synth.collapse import circuit_to_technet, collapse
from repro.synth.technet import TechNode

LIB = unit_library()
CELLS = ("INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "AND3", "OR3")


@st.composite
def networks(draw):
    """A random circuit of at most 10 inputs, lifted and collapsed."""
    num_inputs = draw(st.integers(min_value=1, max_value=10))
    inputs = [f"x{i}" for i in range(num_inputs)]
    circuit = Circuit("img", inputs=inputs)
    nets = list(inputs)
    n_gates = draw(st.integers(min_value=1, max_value=14))
    for g in range(n_gates):
        cell = LIB.get(draw(st.sampled_from(CELLS)))
        fanins = [draw(st.sampled_from(nets)) for _ in range(cell.num_inputs)]
        circuit.add_gate(f"g{g}", cell, fanins)
        nets.append(f"g{g}")
    circuit.add_output(f"g{n_gates - 1}")
    circuit.validate()
    max_support = draw(st.integers(min_value=2, max_value=8))
    return circuit, collapse(circuit_to_technet(circuit), max_support=max_support)


@st.composite
def sigmas(draw, inputs):
    """Patterns of ``sigma``: none, all, or a random set."""
    everything = frozenset(range(1 << len(inputs)))
    return draw(
        st.one_of(
            st.just(frozenset()),
            st.just(everything),
            st.frozensets(st.sampled_from(sorted(everything)), max_size=40),
        )
    )


def pattern_of(index, inputs):
    return {x: bool(index >> i & 1) for i, x in enumerate(inputs)}


def brute_force_image(node, sigma_patterns, functions, inputs):
    table = 0
    for index in sigma_patterns:
        pattern = pattern_of(index, inputs)
        m = sum(
            functions[f].evaluate(pattern) << i for i, f in enumerate(node.fanins)
        )
        table |= 1 << m
    return table


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_image_equals_brute_force(data):
    circuit, technet = data.draw(networks())
    inputs = circuit.inputs
    mgr = BddManager(inputs)
    functions = technet.global_functions(mgr)
    patterns = data.draw(sigmas(inputs))
    sigma = disjunction(
        mgr, [cube_function(mgr, pattern_of(p, inputs)) for p in patterns]
    )
    if len(patterns) == 1 << len(inputs):
        assert sigma.is_true
    for name in technet.topo_order():
        node = technet.node(name)
        got = local_image_cover(node, sigma, functions)
        assert got == brute_force_image(node, patterns, functions, inputs), name
    assert mgr.var_names == tuple(inputs)


def test_node_without_fanins_images_to_the_empty_minterm():
    mgr = BddManager(["x"])
    const = TechNode("k", (), Cover((), ()), Cover.from_strings((), [""]))
    assert local_image_cover(const, mgr.var("x"), {}) == 1
    assert local_image_cover(const, mgr.false, {}) == 0


def test_unknown_fanin_raises():
    mgr = BddManager(["x"])
    node = TechNode(
        "n", ("ghost",), Cover.from_strings(("ghost",), ["1"]),
        Cover.from_strings(("ghost",), ["0"]),
    )
    with pytest.raises(MaskingError, match="ghost"):
        local_image_cover(node, mgr.true, {})


def test_masking_adds_no_variable_to_the_spcf_manager():
    library = lsi10k_like_library()
    circuit = circuit_by_name("C432", library)
    masking = synthesize_masking(circuit, library)
    assert masking.node_maskings
    assert masking.context.manager.var_names == tuple(circuit.inputs)


def test_mask_node_span_reports_image_minterms():
    obs.configure(enabled=True)
    masking = synthesize_masking(comparator2(), LIB, max_support=8)
    spans = {
        r["args"]["node"]: r["args"]
        for r in obs.span_records()
        if r["name"] == "synth.mask_node"
    }
    assert set(spans) == set(masking.node_maskings)
    for name, nm in masking.node_maskings.items():
        assert spans[name]["image_minterms"] == nm.care_image.bit_count()
    # y's image: s0 = {000, 100, 110} and s1 = {001, 111} (Fig. 2).
    assert spans["y"]["image_minterms"] == 5


def test_mask_node_span_is_not_recorded_with_metering_off():
    synthesize_masking(comparator2(), LIB, max_support=8)
    assert not obs.span_records()
