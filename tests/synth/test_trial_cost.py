"""The cost-only trial mapping against scratch-circuit STA, and its memo."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import Cover
from repro.netlist import Circuit, Library, builtin_library, lsi10k_like_library
from repro.sta.timing import analyze
from repro.synth import GateBuilder, decompose_cover, mapping
from repro.synth.mapping import trial_cost

LIBRARIES = ("unit", "lsi10k_like")
#: Input names, including ones the builder's fresh ``t_<tag>_<n>`` names
#: would otherwise take.
NAME_POOL = (
    "a", "b", "c", "d", "e", "f", "g", "h",
    "t_and_0", "t_inv_1", "t_or_2", "t_const_0", "t_inv_0",
)


def scratch_sta_cost(cover, library, inverted):
    """Reference: lower into a real circuit and time it with full STA."""
    scratch = Circuit("scratch", inputs=cover.names)
    builder = GateBuilder(scratch, library, "t_")
    net = decompose_cover(cover, builder, invert_output=inverted)
    if scratch.num_gates == 0:
        return (0, 0.0)
    return (analyze(scratch, target=0).arrival[net], scratch.area())


def assert_matches_reference(cover, library_name, inverted):
    library = builtin_library(library_name)
    got = trial_cost(cover, library, inverted=inverted)
    want = scratch_sta_cost(cover, builtin_library(library_name), inverted)
    assert got == want, (cover, library_name, inverted)
    assert got[0] == want[0] and got[1] == want[1]  # exact, float area included


@st.composite
def covers(draw):
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=8, unique=True))
    rows = draw(
        st.lists(
            st.text(alphabet="01-", min_size=len(names), max_size=len(names)),
            max_size=12,
        )
    )
    return Cover.from_strings(names, rows)


@settings(max_examples=150, deadline=None)
@given(
    cover=covers(),
    library_name=st.sampled_from(LIBRARIES),
    inverted=st.booleans(),
)
def test_trial_cost_equals_scratch_sta(cover, library_name, inverted):
    assert_matches_reference(cover, library_name, inverted)


@pytest.mark.parametrize("library_name", LIBRARIES)
@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize(
    "names, rows",
    [
        (("a", "b"), []),  # zero cubes: a constant cell
        (("a", "b"), ["--"]),  # the tautology cube
        (("a",), ["1"]),  # a single literal
        (("a", "b", "c"), ["-0-"]),
        (("t_and_0", "t_inv_1", "t_inv_0"), ["10-", "-01", "0-0"]),
        (("t_or_2", "t_and_1", "t_and_0"), ["11-", "1-1", "-11"]),
        (("a", "b", "c", "d"), ["00--", "0-0-", "-00-"]),  # shared inverters
    ],
)
def test_trial_cost_edge_cases(names, rows, library_name, inverted):
    assert_matches_reference(Cover.from_strings(names, rows), library_name, inverted)


def test_shared_inverter_case_really_shares():
    """The shared-inverter case above asks for an inverter twice."""
    cover = Cover.from_strings(("a", "b", "c", "d"), ["00--", "0-0-", "-00-"])
    scratch = Circuit("scratch", inputs=cover.names)
    builder = GateBuilder(scratch, lsi10k_like_library(), "t_")
    requested = []
    emit = builder.emit

    def counting_emit(cell_name, fanins, tag):
        requested.append(cell_name)
        return emit(cell_name, fanins, tag)

    builder.emit = counting_emit
    decompose_cover(cover, builder)
    built = sum(g.cell.name == "INV" for g in scratch.gates.values())
    assert requested.count("INV") > built


def test_trial_cost_builds_and_times_no_circuit(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("trial_cost built or timed a circuit")

    monkeypatch.setattr(Circuit, "add_gate", boom)
    monkeypatch.setattr("repro.sta.timing.analyze", boom)
    monkeypatch.setattr("repro.engine.ir.compile_circuit", boom)
    cover = Cover.from_strings(("a", "b", "c"), ["1-0", "01-"])
    assert trial_cost(cover, lsi10k_like_library(), inverted=True) > (0, 0.0)


def _slowed(cells, factor: int) -> Library:
    """A library of ``cells`` with every pin delay multiplied by ``factor``."""
    library = Library("slowed")  # the first allocation: it may take a freed address
    for cell in cells:
        library.add(
            dataclasses.replace(
                cell, pin_delays=tuple(d * factor for d in cell.pin_delays)
            )
        )
    return library


def test_costs_do_not_leak_to_a_library_at_a_reused_address():
    cover = Cover.from_strings(("a", "b", "c"), ["11-", "-11"])
    cells = list(lsi10k_like_library())
    for _ in range(100):
        first = _slowed(cells, 1)
        stale = trial_cost(cover, first)
        freed = id(first)
        del first  # no cycles: freed now, and its address is free for reuse
        second = _slowed(cells, 3)
        if id(second) == freed:
            break
    else:
        pytest.skip("the interpreter did not reuse a freed library's address")
    fresh = trial_cost(cover, second)
    assert fresh == scratch_sta_cost(cover, _slowed(cells, 3), False)
    assert fresh != stale


def test_adding_a_cell_empties_the_memo():
    library = lsi10k_like_library()
    cover = Cover.from_strings(("a", "b"), ["11"])
    trial_cost(cover, library)
    assert library.memo
    library.add(dataclasses.replace(library.get("AND2"), name="AND2_ALT"))
    assert not library.memo


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(mapping, "_TRIAL_MEMO_LIMIT", 3)
    library = lsi10k_like_library()
    names = ("a", "b", "c")
    for rows in (["1--"], ["-1-"], ["--1"], ["11-"], ["1-1"], ["-11"], ["111"]):
        cover = Cover.from_strings(names, rows)
        assert trial_cost(cover, library) == scratch_sta_cost(cover, library, False)
        assert len(library.memo) <= 3
