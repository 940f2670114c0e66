"""Tests for technet extraction and the collapse/eliminate pass."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchcircuits import comparator2, comparator_nbit
from repro.bdd import BddManager, isop_function
from repro.errors import SynthesisError
from repro.logic import Cover
from repro.netlist import lsi10k_like_library, unit_library
from repro.sim import exhaustive_patterns, simulate
from repro.synth import TechNetwork, TechNode, circuit_to_technet, collapse
from repro.synth.collapse import _merge_candidate
from repro.synth.technet import node_shape
from tests.conftest import random_dag_circuit


def functions_match(circuit, technet):
    mgr = BddManager(circuit.inputs)
    fns = technet.global_functions(mgr)
    for pat in exhaustive_patterns(circuit.inputs):
        vals = simulate(circuit, pat)
        for y in circuit.outputs:
            if fns[y].evaluate(pat) != vals[y]:
                return False
    return True


def test_one_to_one_lift_preserves_functions():
    c = comparator2()
    tn = circuit_to_technet(c)
    assert tn.num_nodes == c.num_gates
    assert functions_match(c, tn)


def test_collapse_preserves_functions_and_bounds():
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=6, num_gates=16, num_outputs=3)
        tn = collapse(circuit_to_technet(c), max_support=6)
        tn.validate()
        assert functions_match(c, tn)
        for node in tn.nodes.values():
            assert node.num_fanins <= 6


def test_collapse_reduces_node_count():
    c = comparator2()
    tn = circuit_to_technet(c)
    col = collapse(tn, max_support=10)
    assert col.num_nodes < tn.num_nodes
    assert functions_match(c, col)


def test_outputs_survive_collapse():
    for seed in range(4):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=12, num_outputs=2)
        col = collapse(circuit_to_technet(c), max_support=8)
        for y in c.outputs:
            assert y in col.nodes


def test_collapse_with_library_cost_guard():
    lib = lsi10k_like_library()
    for seed in range(4):
        c = random_dag_circuit(
            seed, num_inputs=6, num_gates=16, library=lib, num_outputs=2
        )
        col = collapse(circuit_to_technet(c), max_support=8, library=lib)
        assert functions_match(c, col)


def test_max_support_guard():
    c = comparator2()
    with pytest.raises(SynthesisError):
        collapse(circuit_to_technet(c), max_support=1)
    with pytest.raises(SynthesisError):
        collapse(circuit_to_technet(c), max_support=17)


def test_largest_max_support_is_accepted():
    c = comparator_nbit(4)
    col = collapse(circuit_to_technet(c), max_support=16)
    assert functions_match(c, col)


def bdd_route_candidate(node, reader, support):
    """A merge candidate built the BDD way: compose, then BDD ISOPs."""
    mgr = BddManager(dict.fromkeys((*support, node.name)))
    combined = reader.on_cover.to_function(mgr).compose(
        {node.name: node.on_cover.to_function(mgr)}
    )
    depends = combined.support()
    kept = tuple(f for f in support if f in depends)
    return TechNode(
        reader.name,
        kept,
        Cover.from_cube_dicts(kept, isop_function(combined)),
        Cover.from_cube_dicts(kept, isop_function(~combined)),
    )


POOL = tuple(f"x{i}" for i in range(7))


@st.composite
def node_reader_pair(draw):
    """A node ``n`` and a reader of it, with random on-set covers."""
    node_fanins = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True))
    others = draw(st.lists(st.sampled_from(POOL), max_size=4, unique=True))
    reader_fanins = list(others)
    reader_fanins.insert(draw(st.integers(0, len(others))), "n")

    def cover(fanins):
        width = len(fanins)
        row = st.text(alphabet="01-", min_size=width, max_size=width)
        return Cover.from_strings(tuple(fanins), draw(st.lists(row, max_size=6)))

    node = TechNode("n", tuple(node_fanins), cover(node_fanins), Cover(tuple(node_fanins)))
    reader = TechNode("r", tuple(reader_fanins), cover(reader_fanins), Cover(tuple(reader_fanins)))
    support = tuple(dict.fromkeys([f for f in reader.fanins if f != "n"] + node_fanins))
    return node, reader, support


#: Candidate shapes shared by every example below, as collapse shares them
#: across one call: a shape must not depend on the names it was built for.
SHARED_SHAPES: dict = {}


@given(node_reader_pair(), st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_merge_candidate_equals_bdd_route(pair, cube_cap):
    node, reader, support = pair
    expected = bdd_route_candidate(node, reader, support)
    got = _merge_candidate(node, reader, support, cube_cap, SHARED_SHAPES)
    if max(expected.on_cover.num_cubes, expected.off_cover.num_cubes) > cube_cap:
        assert got is None
    else:
        assert got == expected


def test_merge_candidate_at_largest_support():
    """16 support variables plus the eliminated one: a 2**17-bit table."""
    node_fanins = tuple(f"x{i}" for i in range(8))
    node = TechNode(
        "n",
        node_fanins,
        Cover.from_strings(
            node_fanins, ["11------", "--11----", "----11--", "------11"]
        ),
        Cover(node_fanins),
    )
    reader_fanins = ("x8", "n", *(f"x{i}" for i in range(9, 16)))
    reader = TechNode(
        "r",
        reader_fanins,
        Cover.from_strings(
            reader_fanins, ["11-------", "--01-----", "-1--10---", "------111"]
        ),
        Cover(reader_fanins),
    )
    support = (*(f for f in reader_fanins if f != "n"), *node_fanins)
    assert len(support) == 16
    expected = bdd_route_candidate(node, reader, support)
    assert len(expected.fanins) == 16
    got = _merge_candidate(node, reader, support, 10_000, {})
    assert got == expected


def renamed_node(node, rename):
    """``node`` with every name mapped through ``rename``."""
    fanins = tuple(rename(f) for f in node.fanins)
    return TechNode(
        rename(node.name),
        fanins,
        Cover(fanins, node.on_cover.cubes),
        Cover(fanins, node.off_cover.cubes),
    )


def renamed(network, prefix):
    """A copy of ``network`` with every net name prefixed (order-preserving)."""

    def add(name):
        return prefix + name

    out = TechNetwork(add(network.name), map(add, network.inputs), map(add, network.outputs))
    for node in network.nodes.values():
        out.add_node(renamed_node(node, add))
    return out


def joined(*networks):
    """One network holding disjoint networks side by side."""
    out = TechNetwork(
        "joined",
        [n for net in networks for n in net.inputs],
        [n for net in networks for n in net.outputs],
    )
    for net in networks:
        for node in net.nodes.values():
            out.add_node(node)
    return out


@pytest.mark.parametrize("library", [None, lsi10k_like_library()], ids=["plain", "costed"])
def test_identical_cones_collapse_to_renamed_nodes(library, monkeypatch):
    """Two copies of one cone over different names: the second copy reuses
    the first one's shapes, and its nodes are renamings of the first's."""
    cone = circuit_to_technet(comparator_nbit(3))
    built = []

    def counting_shape(*args, **kwargs):
        built.append(args)
        return node_shape(*args, **kwargs)

    # ``repro.synth.collapse`` the attribute is the function, not the module.
    monkeypatch.setattr(
        importlib.import_module("repro.synth.collapse"), "node_shape", counting_shape
    )
    collapse(renamed(cone, "p_"), max_support=8, library=library)
    one_copy = len(built)
    network = joined(renamed(cone, "p_"), renamed(cone, "q_"))
    col = collapse(network, max_support=8, library=library)
    assert len(built) - one_copy == one_copy
    assert col.num_nodes < network.num_nodes
    assert col.num_nodes % 2 == 0
    for name, node in col.nodes.items():
        if name.startswith("p_"):
            twin = renamed_node(node, lambda n: "q_" + n[2:])
            assert twin == col.node(twin.name)


@pytest.mark.parametrize("library", [None, lsi10k_like_library()], ids=["plain", "costed"])
def test_collapse_of_joined_cones_equals_collapse_of_each(library):
    cones = [
        renamed(circuit_to_technet(random_dag_circuit(seed, 6, 18, num_outputs=3)), f"c{seed}_")
        for seed in range(3)
    ]
    whole = collapse(joined(*cones), max_support=6, library=library)
    alone = {}
    for cone in cones:
        alone.update(collapse(cone, max_support=6, library=library).nodes)
    assert dict(whole.nodes) == alone


def test_duplicate_fanin_gate_lifts_cleanly():
    """A gate reading the same net twice collapses to distinct fanins."""
    from repro.netlist import Circuit

    lib = unit_library()
    c = Circuit("t", inputs=("a",), outputs=("g",))
    c.add_gate("g", lib.get("AND2"), ("a", "a"))
    tn = circuit_to_technet(c)
    assert tn.node("g").fanins == ("a",)
    assert functions_match(c, tn)
