"""Algebraic factoring of SOP covers.

The masking circuit must be *fast* — the paper requires >= 20% slack over the
original circuit — so the selected covers are not mapped as flat AND-OR
trees but factored first.  This module implements classic algebraic
(kernel-based) factoring:

* :func:`weak_divide` — algebraic division of a cover by a divisor cover,
* :func:`literal_kernels` — level-0 kernels obtained as the cube-free parts
  of single-literal quotients,
* :func:`factor` — recursive factoring: pick the kernel (or literal) divisor
  with the best literal savings, divide, and recurse on quotient, divisor,
  and remainder, producing a :class:`~repro.logic.expr.BoolExpr` tree.

Example: ``a&c | a&d | b&c | b&d`` factors into ``(a|b) & (c|d)``, halving
the literal count and the mapped depth.
"""

from __future__ import annotations

from collections import Counter

from repro.logic.cover import Cover
from repro.logic.cube import DASH, Cube
from repro.logic.expr import BoolExpr


def _cube_expr(cube: Cube, names: tuple[str, ...]) -> BoolExpr:
    lits = [
        BoolExpr.var(names[i]) if v == 1 else ~BoolExpr.var(names[i])
        for i, v in enumerate(cube.values)
        if v != DASH
    ]
    if not lits:
        return BoolExpr.const(True)
    acc = lits[0]
    for l in lits[1:]:
        acc = acc & l
    return acc


def cube_quotient(cube: Cube, divisor: Cube) -> Cube | None:
    """``cube / divisor`` for single cubes: ``None`` unless divisor ⊆ cube."""
    out = []
    for cv, dv in zip(cube.values, divisor.values):
        if dv == DASH:
            out.append(cv)
        elif cv == dv:
            out.append(DASH)
        else:
            return None
    return Cube(tuple(out))


def weak_divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Algebraic division ``cover = divisor * quotient + remainder``.

    The quotient is the intersection, over divisor cubes, of the per-cube
    quotients; the remainder is whatever the product fails to reproduce.
    """
    quotient_sets: list[dict[tuple[int, ...], Cube]] = []
    for d in divisor.cubes:
        qs: dict[tuple[int, ...], Cube] = {}
        for c in cover.cubes:
            q = cube_quotient(c, d)
            if q is not None:
                qs[q.values] = q
        quotient_sets.append(qs)
    if not quotient_sets:
        return Cover(cover.names, ()), cover
    common = set(quotient_sets[0])
    for qs in quotient_sets[1:]:
        common &= set(qs)
    quotient = Cover(
        cover.names, tuple(sorted((quotient_sets[0][v] for v in common),
                                  key=lambda c: c.values))
    )
    # remainder = cover - divisor*quotient
    product: set[tuple[int, ...]] = set()
    for d in divisor.cubes:
        for q in quotient.cubes:
            merged = d.intersect(q)
            if merged is not None:
                product.add(merged.values)
    remainder = Cover(
        cover.names,
        tuple(c for c in cover.cubes if c.values not in product),
    )
    return quotient, remainder


def _literal_counts(cover: Cover) -> Counter:
    counts: Counter = Counter()
    for cube in cover.cubes:
        for pos, pol in cube.literals().items():
            counts[(pos, pol)] += 1
    return counts


def _make_cube_free(cover: Cover) -> Cover:
    """Divide out the largest common cube of all cubes."""
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
    cubes = []
    for cube in cover.cubes:
        q = cube_quotient(cube, divisor)
        cubes.append(q if q is not None else cube)
    return Cover(cover.names, tuple(cubes))


def literal_kernels(cover: Cover) -> list[Cover]:
    """Level-0 kernel candidates: cube-free single-literal quotients."""
    kernels: list[Cover] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for (pos, pol), count in _literal_counts(cover).items():
        if count < 2:
            continue
        divisor = Cube.from_literals({pos: pol}, len(cover.names))
        quotient_cubes = []
        for cube in cover.cubes:
            q = cube_quotient(cube, divisor)
            if q is not None:
                quotient_cubes.append(q)
        kernel = _make_cube_free(Cover(cover.names, tuple(quotient_cubes)))
        key = tuple(sorted(c.values for c in kernel.cubes))
        if len(kernel.cubes) >= 2 and key not in seen:
            seen.add(key)
            kernels.append(kernel)
    return kernels


def factor(cover: Cover) -> BoolExpr:
    """Factored-form expression of the cover (algebraically equivalent)."""
    if not cover.cubes:
        return BoolExpr.const(False)
    if len(cover.cubes) == 1:
        return _cube_expr(cover.cubes[0], cover.names)

    best: tuple[int, Cover] | None = None
    for kernel in literal_kernels(cover):
        quotient, remainder = weak_divide(cover, kernel)
        if not quotient.cubes:
            continue
        saved = (len(kernel.cubes) - 1) * (len(quotient.cubes) - 1)
        if saved > 0 and (best is None or saved > best[0]):
            best = (saved, kernel)

    if best is not None:
        kernel = best[1]
        quotient, remainder = weak_divide(cover, kernel)
        expr = factor(kernel) & factor(quotient)
        if remainder.cubes:
            expr = expr | factor(remainder)
        return expr

    # No multi-cube kernel pays off: divide by the most frequent literal.
    ranked = _literal_counts(cover).most_common(1)
    if not ranked or ranked[0][1] < 2:
        # Completely disjoint cubes (or only tautology cubes): plain OR of
        # cube expressions.
        acc = _cube_expr(cover.cubes[0], cover.names)
        for cube in cover.cubes[1:]:
            acc = acc | _cube_expr(cube, cover.names)
        return acc
    (pos, pol), _ = ranked[0]
    divisor_cube = Cube.from_literals({pos: pol}, len(cover.names))
    quotient_cubes = []
    remainder_cubes = []
    for cube in cover.cubes:
        q = cube_quotient(cube, divisor_cube)
        if q is not None:
            quotient_cubes.append(q)
        else:
            remainder_cubes.append(cube)
    lit = BoolExpr.var(cover.names[pos])
    if not pol:
        lit = ~lit
    expr = lit & factor(Cover(cover.names, tuple(quotient_cubes)))
    if remainder_cubes:
        expr = expr | factor(Cover(cover.names, tuple(remainder_cubes)))
    return expr
