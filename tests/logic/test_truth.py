"""Tests for the node-local truth-table kernel.

The oracle for the ISOP is :func:`repro.bdd.isop.isop`: under the same
variable order both must emit the same cubes in the same order.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager, isop as bdd_isop
from repro.errors import LogicError
from repro.logic import Cover, parse_expr
from repro.logic.cube import Cube
from repro.logic.truth import (
    cover_table,
    cube_from_masks,
    cube_masks,
    depends_on,
    expr_table,
    full_mask,
    function_table,
    isop,
    isop_cover,
    masks_cover,
    support,
    var_masks,
)


def minterm_value(table, bits):
    index = sum(b << i for i, b in enumerate(bits))
    return bool(table >> index & 1)


def test_var_masks_are_projections():
    width = 4
    masks = var_masks(width)
    for bits in itertools.product([0, 1], repeat=width):
        for i in range(width):
            assert minterm_value(masks[i], bits) == bool(bits[i])
    assert full_mask(0) == 1 and var_masks(0) == ()


def test_cover_table_matches_evaluation():
    cover = Cover.from_strings(("a", "b", "c"), ["1-0", "011"])
    for order in (("a", "b", "c"), ("c", "a", "b", "d")):
        table = cover_table(cover, order)
        for bits in itertools.product([False, True], repeat=len(order)):
            asgn = dict(zip(order, bits))
            assert minterm_value(table, bits) == cover.evaluate(asgn)


def test_cover_table_rejects_unknown_variable():
    with pytest.raises(LogicError):
        cover_table(Cover.from_strings(("a", "b"), ["11"]), ("a",))


def test_expr_table_matches_evaluation():
    expr = parse_expr("~(a & b) ^ (c | 0)")
    names = ("a", "b", "c")
    env = dict(zip(names, var_masks(3)))
    table = expr_table(expr, env, 3)
    for bits in itertools.product([False, True], repeat=3):
        assert minterm_value(table, bits) == expr.evaluate(dict(zip(names, bits)))
    with pytest.raises(LogicError):
        expr_table(parse_expr("a & z"), env, 3)


def test_function_table_follows_the_given_order():
    mgr = BddManager(["b", "a", "c"])
    fn = mgr.var("a") & ~mgr.var("c")
    order = ("a", "b", "c")
    table = function_table(fn, order)
    for bits in itertools.product([False, True], repeat=3):
        assert minterm_value(table, bits) == fn.evaluate(dict(zip(order, bits)))
    with pytest.raises(LogicError):
        function_table(fn, ("a", "b"))


def test_support_and_dependence():
    a, b, c = var_masks(3)
    table = a & c
    assert support(table, 3) == (0, 2)
    assert not depends_on(table, 1, 3)
    assert support(full_mask(3), 3) == ()


def test_cube_mask_round_trip():
    for text in ("", "-", "10-1", "0000", "----", "1-0-1-0"):
        cube = Cube.from_string(text)
        pos, neg = cube_masks(cube)
        assert not pos & neg
        assert cube_from_masks(pos, neg, range(cube.width)) == cube


def test_isop_constants_and_errors():
    assert isop(0, 0, 2) == []
    assert isop(full_mask(2), full_mask(2), 2) == [(0, 0)]
    a, _ = var_masks(2)
    assert isop(a, a, 2) == [(1, 0)]
    with pytest.raises(LogicError):
        isop(full_mask(2), a, 2)
    with pytest.raises(LogicError):
        isop(0, full_mask(3), 2)


def test_isop_cover_and_projected_positions():
    a, b, c = var_masks(3)
    names = ("a", "b", "c")
    cover = isop_cover(names, a & c, (a & c) | b)
    assert cover.names == names
    assert [str(cube) for cube in cover.cubes] == ["1-1"]
    projected = masks_cover(names, isop(a & c, a & c, 3), positions=(2, 0))
    assert projected.names == ("c", "a")
    assert [str(cube) for cube in projected.cubes] == ["11"]


@st.composite
def bounded_pair(draw):
    width = draw(st.integers(min_value=0, max_value=8))
    size = 1 << width
    x = draw(st.integers(min_value=0, max_value=(1 << size) - 1))
    y = draw(st.integers(min_value=0, max_value=(1 << size) - 1))
    kind = draw(st.sampled_from(["interval", "exact", "lower-empty"]))
    lower, upper = x & y, x | y
    if kind == "exact":
        upper = lower
    elif kind == "lower-empty":
        lower = 0
    order = draw(st.permutations(range(width)))
    return width, lower, upper, list(order)


def bdd_of(mgr, table, names):
    fn = mgr.false
    for m in range(1 << len(names)):
        if table >> m & 1:
            term = mgr.true
            for i, name in enumerate(names):
                term = term & (mgr.var(name) if m >> i & 1 else mgr.nvar(name))
            fn = fn | term
    return fn


def permute(table, width, order):
    """Re-index ``table`` so that new position ``j`` is old position ``order[j]``."""
    out = 0
    for m in range(1 << width):
        if table >> m & 1:
            out |= 1 << sum((m >> old & 1) << j for j, old in enumerate(order))
    return out


@given(bounded_pair())
@settings(max_examples=300, deadline=None)
def test_isop_equals_bdd_isop_cube_for_cube(case):
    width, lower, upper, order = case
    names = [f"v{i}" for i in range(width)]
    mgr = BddManager([names[p] for p in order])
    expected = bdd_isop(bdd_of(mgr, lower, names), bdd_of(mgr, upper, names))
    got = isop(permute(lower, width, order), permute(upper, width, order), width)
    as_dicts = [
        {
            **{names[order[j]]: True for j in range(width) if pos >> j & 1},
            **{names[order[j]]: False for j in range(width) if neg >> j & 1},
        }
        for pos, neg in got
    ]
    assert as_dicts == expected
    table = 0
    for pos, neg in got:
        term = full_mask(width)
        for j, mask in enumerate(var_masks(width)):
            if pos >> j & 1:
                term &= mask
            elif neg >> j & 1:
                term &= ~mask
        table |= term
    p_lower, p_upper = permute(lower, width, order), permute(upper, width, order)
    assert p_lower & ~table == 0 and table & ~p_upper == 0
