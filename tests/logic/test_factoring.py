"""Tests for algebraic factoring."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import Cover, factor, literal_kernels, weak_divide
from repro.logic.cube import DASH, Cube
from repro.logic.expr import BoolExpr

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


# ------------------------------------------------------------------- oracle
#
# The positional (``Cube``-tuple) factoring that the bit-mask core replaced,
# kept here only as the reference the core must reproduce exactly: the same
# kernels in the same order, the same quotient and remainder cube orders and
# the same factored ``BoolExpr`` tree.


def ref_cube_expr(cube, names):
    lits = [
        BoolExpr.var(names[i]) if v == 1 else ~BoolExpr.var(names[i])
        for i, v in enumerate(cube.values)
        if v != DASH
    ]
    if not lits:
        return BoolExpr.const(True)
    acc = lits[0]
    for lit in lits[1:]:
        acc = acc & lit
    return acc


def ref_cube_quotient(cube, divisor):
    out = []
    for cv, dv in zip(cube.values, divisor.values):
        if dv == DASH:
            out.append(cv)
        elif cv == dv:
            out.append(DASH)
        else:
            return None
    return Cube(tuple(out))


def ref_weak_divide(cover, divisor):
    quotient_sets = []
    for d in divisor.cubes:
        qs = {}
        for c in cover.cubes:
            q = ref_cube_quotient(c, d)
            if q is not None:
                qs[q.values] = q
        quotient_sets.append(qs)
    if not quotient_sets:
        return Cover(cover.names, ()), cover
    common = set(quotient_sets[0])
    for qs in quotient_sets[1:]:
        common &= set(qs)
    quotient = Cover(
        cover.names,
        tuple(sorted((quotient_sets[0][v] for v in common), key=lambda c: c.values)),
    )
    product = set()
    for d in divisor.cubes:
        for q in quotient.cubes:
            merged = d.intersect(q)
            if merged is not None:
                product.add(merged.values)
    remainder = Cover(
        cover.names, tuple(c for c in cover.cubes if c.values not in product)
    )
    return quotient, remainder


def ref_literal_counts(cover):
    counts = Counter()
    for cube in cover.cubes:
        for pos, pol in cube.literals().items():
            counts[(pos, pol)] += 1
    return counts


def ref_make_cube_free(cover):
    if not cover.cubes:
        return cover
    common = list(cover.cubes[0].values)
    for cube in cover.cubes[1:]:
        for i, v in enumerate(cube.values):
            if common[i] != v:
                common[i] = DASH
    if all(v == DASH for v in common):
        return cover
    divisor = Cube(tuple(common))
    return Cover(
        cover.names, tuple(ref_cube_quotient(c, divisor) for c in cover.cubes)
    )


def ref_literal_kernels(cover):
    kernels, seen = [], set()
    for (pos, pol), count in ref_literal_counts(cover).items():
        if count < 2:
            continue
        divisor = Cube.from_literals({pos: pol}, len(cover.names))
        quotient = [
            q for q in (ref_cube_quotient(c, divisor) for c in cover.cubes) if q
        ]
        kernel = ref_make_cube_free(Cover(cover.names, tuple(quotient)))
        key = tuple(sorted(c.values for c in kernel.cubes))
        if len(kernel.cubes) >= 2 and key not in seen:
            seen.add(key)
            kernels.append(kernel)
    return kernels


def ref_factor(cover):
    if not cover.cubes:
        return BoolExpr.const(False)
    if len(cover.cubes) == 1:
        return ref_cube_expr(cover.cubes[0], cover.names)
    best = None
    for kernel in ref_literal_kernels(cover):
        quotient, _ = ref_weak_divide(cover, kernel)
        if not quotient.cubes:
            continue
        saved = (len(kernel.cubes) - 1) * (len(quotient.cubes) - 1)
        if saved > 0 and (best is None or saved > best[0]):
            best = (saved, kernel)
    if best is not None:
        quotient, remainder = ref_weak_divide(cover, best[1])
        expr = ref_factor(best[1]) & ref_factor(quotient)
        if remainder.cubes:
            expr = expr | ref_factor(remainder)
        return expr
    ranked = ref_literal_counts(cover).most_common(1)
    if not ranked or ranked[0][1] < 2:
        acc = ref_cube_expr(cover.cubes[0], cover.names)
        for cube in cover.cubes[1:]:
            acc = acc | ref_cube_expr(cube, cover.names)
        return acc
    (pos, pol), _ = ranked[0]
    divisor = Cube.from_literals({pos: pol}, len(cover.names))
    quotient, remainder = [], []
    for cube in cover.cubes:
        q = ref_cube_quotient(cube, divisor)
        if q is not None:
            quotient.append(q)
        else:
            remainder.append(cube)
    lit = BoolExpr.var(cover.names[pos])
    if not pol:
        lit = ~lit
    expr = lit & ref_factor(Cover(cover.names, tuple(quotient)))
    if remainder:
        expr = expr | ref_factor(Cover(cover.names, tuple(remainder)))
    return expr


def assert_matches_reference(cover, divisors=()):
    assert factor(cover) == ref_factor(cover)
    kernels = literal_kernels(cover)
    assert kernels == ref_literal_kernels(cover)
    for divisor in (*kernels, *divisors):
        assert weak_divide(cover, divisor) == ref_weak_divide(cover, divisor)


@st.composite
def raw_cover(draw, max_width=9, max_cubes=14):
    """Covers with duplicates, tautology cubes and any literal density."""
    width = draw(st.integers(min_value=0, max_value=max_width))
    names = tuple(f"v{i}" for i in range(width))
    row = st.text(alphabet="01-", min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=max_cubes))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    return Cover.from_strings(names, rows)


@given(raw_cover(), st.lists(st.text(alphabet="01-", min_size=0, max_size=9), max_size=3))
@settings(max_examples=400, deadline=None)
def test_bitmask_core_equals_positional_reference(cover, divisor_rows):
    width = len(cover.names)
    divisor = Cover.from_strings(
        cover.names, [r[:width].ljust(width, "-") for r in divisor_rows]
    )
    assert_matches_reference(cover, divisors=(divisor,))


@pytest.mark.parametrize(
    "rows",
    [
        ["---", "1-0", "---"],  # tautology cubes, one repeated
        ["---", "11-", "1-1"],  # tautology cube beside a kernel
        ["000", "00-", "0-0"],  # complemented literals only
        ["1-1--", "1--1-", "-11--", "-1-1-", "1---1", "-1--1"],  # shared kernel
        ["11-1-", "1-11-", "-011-", "-0-11", "11--1"],  # overlapping kernels
        ["1----", "-1---", "--1--"],  # disjoint single literals
    ],
)
def test_reference_tie_breaks(rows):
    names = tuple(f"v{i}" for i in range(len(rows[0])))
    assert_matches_reference(Cover.from_strings(names, rows))


def test_zero_width_and_empty_covers_match_reference():
    assert_matches_reference(Cover((), ()))
    assert_matches_reference(Cover.from_strings((), ["", ""]))
    assert_matches_reference(Cover(NAMES, ()), divisors=(Cover(NAMES, ()),))


def test_empty_divisor_leaves_everything_in_the_remainder():
    cover = Cover.from_strings(NAMES, ["1-1--", "-11--"])
    quotient, remainder = weak_divide(cover, Cover(NAMES, ()))
    assert quotient.cubes == () and remainder == cover
