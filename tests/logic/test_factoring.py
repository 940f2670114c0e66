"""Tests for algebraic factoring."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import Cover, factor, literal_kernels, weak_divide
from repro.logic.cube import Cube

NAMES = ("a", "b", "c", "d", "e")


def count_literals(expr) -> int:
    if expr.op == "var":
        return 1
    if expr.op == "const":
        return 0
    return sum(count_literals(a) for a in expr.args)


def test_product_of_sums_recovered():
    # ac + ad + bc + bd == (a|b)(c|d): factoring should halve the literals.
    cov = Cover.from_strings(NAMES, ["1-1--", "1--1-", "-11--", "-1-1-"])
    expr = factor(cov)
    assert count_literals(expr) == 4


def test_single_cube_is_product_term():
    cov = Cover.from_strings(NAMES, ["10-1-"])
    expr = factor(cov)
    assert count_literals(expr) == 3


def test_empty_cover_is_constant_false():
    expr = factor(Cover(NAMES))
    assert expr.op == "const" and expr.value is False


def test_repeated_tautology_cubes_are_constant_true():
    expr = factor(Cover.from_strings(NAMES, ["-----", "-----"]))
    assert count_literals(expr) == 0
    assert expr.evaluate(dict.fromkeys(NAMES, False)) is True


def test_weak_divide_exact_division():
    # F = (a|b) & c  expanded: ac + bc, divisor (a|b)
    cov = Cover.from_strings(NAMES, ["1-1--", "-11--"])
    divisor = Cover.from_strings(NAMES, ["1----", "-1---"])
    quotient, remainder = weak_divide(cov, divisor)
    assert [str(c) for c in quotient.cubes] == ["--1--"]
    assert remainder.num_cubes == 0


def test_weak_divide_with_remainder():
    cov = Cover.from_strings(NAMES, ["1-1--", "-11--", "---11"])
    divisor = Cover.from_strings(NAMES, ["1----", "-1---"])
    quotient, remainder = weak_divide(cov, divisor)
    assert [str(c) for c in quotient.cubes] == ["--1--"]
    assert [str(c) for c in remainder.cubes] == ["---11"]


def test_literal_kernels_found():
    cov = Cover.from_strings(NAMES, ["11---", "1-1--"])
    kernels = literal_kernels(cov)
    assert any(
        {str(c) for c in k.cubes} == {"-1---", "--1--"} for k in kernels
    )


cover_st = st.lists(
    st.text(alphabet="01-", min_size=5, max_size=5), min_size=1, max_size=8
).map(lambda rows: Cover.from_strings(NAMES, sorted(set(rows))))


@given(cover_st)
@settings(max_examples=120, deadline=None)
def test_factor_preserves_function(cov):
    expr = factor(cov)
    for bits in itertools.product([False, True], repeat=len(NAMES)):
        asgn = dict(zip(NAMES, bits))
        assert expr.evaluate(asgn) == cov.evaluate(asgn)


@given(cover_st)
@settings(max_examples=60, deadline=None)
def test_factor_never_increases_literals(cov):
    expr = factor(cov)
    assert count_literals(expr) <= max(cov.literal_count(), 1)
