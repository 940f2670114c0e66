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

The three functions keep their :class:`~repro.logic.cover.Cover` signatures
but share one core that works on ``(pos, neg)`` literal bit masks (see
:mod:`repro.logic.truth`): cube division, intersection and the common cube
are a few integer operations instead of a walk over positional values.
The core keeps every tie-break of the positional version — literals are
counted in cube order then ascending position, the first most frequent
literal wins, kernels are de-duplicated as cube multisets, a quotient is
sorted in positional order (``0 < 1 < -``, position 0 first) while a
remainder keeps cover order, and literal chains are left-associated — so
the factored trees are identical.  Factoring is purely algebraic: it never
asks a Boolean question, so nothing here needs a BDD.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator

from repro.logic.cover import Cover
from repro.logic.expr import BoolExpr
from repro.logic.truth import CubeMasks, cube_masks, masks_cover

Cubes = list[CubeMasks]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _literal(lit: int, names: tuple[str, ...]) -> BoolExpr:
    """Expression of a literal: its position bit, negated if complemented."""
    if lit > 0:
        return BoolExpr.var(names[lit.bit_length() - 1])
    return ~BoolExpr.var(names[(-lit).bit_length() - 1])


def _cube_expr(cube: CubeMasks, names: tuple[str, ...]) -> BoolExpr:
    pos, neg = cube
    acc: BoolExpr | None = None
    for bit in _bits(pos | neg):
        lit = _literal(-bit if neg & bit else bit, names)
        acc = lit if acc is None else acc & lit
    return BoolExpr.const(True) if acc is None else acc


def _literal_counts(cubes: Cubes) -> dict[int, int]:
    """Occurrences per literal, in first-seen order (cube, then position).

    A literal is its position bit, negated for the complemented literal.
    """
    counts: dict[int, int] = {}
    get = counts.get
    for pos, neg in cubes:
        lits = pos | neg
        while lits:
            bit = lits & -lits
            lits ^= bit
            lit = -bit if neg & bit else bit
            counts[lit] = get(lit, 0) + 1
    return counts


def _literal_quotient(cubes: Cubes, lit: int) -> Cubes:
    """The cubes containing one literal, with the literal removed."""
    if lit > 0:
        return [(pos ^ lit, neg) for pos, neg in cubes if pos & lit]
    return [(pos, neg ^ -lit) for pos, neg in cubes if neg & -lit]


def _cube_free(cubes: Cubes) -> Cubes:
    """Divide out the largest common cube of all cubes."""
    common_pos = common_neg = -1
    for pos, neg in cubes:
        common_pos &= pos
        common_neg &= neg
    if not cubes or not (common_pos | common_neg):
        return cubes
    return [(pos ^ common_pos, neg ^ common_neg) for pos, neg in cubes]


def _kernels(cubes: Cubes, counts: dict[int, int]) -> list[Cubes]:
    """Level-0 kernel candidates: cube-free single-literal quotients."""
    kernels: list[Cubes] = []
    seen: set[tuple[CubeMasks, ...]] = set()
    for lit, count in counts.items():
        if count < 2:
            continue
        kernel = _cube_free(_literal_quotient(cubes, lit))
        key = tuple(sorted(kernel))
        if len(kernel) >= 2 and key not in seen:
            seen.add(key)
            kernels.append(kernel)
    return kernels


def _positional_key(width: int) -> Callable[[CubeMasks], int]:
    """Sort key ordering mask cubes like their positional value tuples."""

    def key(cube: CubeMasks) -> int:
        # Each position is a base-4 digit, position 0 most significant:
        # 0 -> 0, 1 -> 1, - -> 2.  Subtracting the literals from the
        # all-dash number keeps the order of the digit strings.
        pos, neg = cube
        lowered = 0
        for bit in _bits(pos | neg):
            shift = 2 * (width - bit.bit_length())
            lowered += (2 if neg & bit else 1) << shift
        return -lowered

    return key


def _quotient(cubes: Cubes, divisor: Cubes, width: int) -> Cubes:
    """The weak-division quotient, in positional order.

    The cubes ``q`` such that ``d * q`` is a cube of the cover for every
    divisor cube ``d``.
    """
    common: set[CubeMasks] | None = None
    for d_pos, d_neg in divisor:
        quotients = {
            (pos ^ d_pos, neg ^ d_neg)
            for pos, neg in cubes
            if not (d_pos & ~pos or d_neg & ~neg)
        }
        common = quotients if common is None else common & quotients
        if not common:
            return []
    return sorted(common or (), key=_positional_key(width))


def _remainder(cubes: Cubes, divisor: Cubes, quotient: Cubes) -> Cubes:
    """The cubes, in cover order, that ``divisor * quotient`` does not make."""
    product = {
        (d_pos | q_pos, d_neg | q_neg)
        for d_pos, d_neg in divisor
        for q_pos, q_neg in quotient
        if not (d_pos & q_neg or d_neg & q_pos)
    }
    return [c for c in cubes if c not in product]


def _factor(cubes: Cubes, names: tuple[str, ...]) -> BoolExpr:
    if not cubes:
        return BoolExpr.const(False)
    if len(cubes) == 1:
        return _cube_expr(cubes[0], names)

    counts = _literal_counts(cubes)
    best: tuple[int, Cubes, Cubes] | None = None
    for kernel in _kernels(cubes, counts):
        quotient = _quotient(cubes, kernel, len(names))
        if not quotient:
            continue
        saved = (len(kernel) - 1) * (len(quotient) - 1)
        if saved > 0 and (best is None or saved > best[0]):
            best = (saved, kernel, quotient)

    if best is not None:
        _, kernel, quotient = best
        remainder = _remainder(cubes, kernel, quotient)
        expr = _factor(kernel, names) & _factor(quotient, names)
        if remainder:
            expr = expr | _factor(remainder, names)
        return expr

    # No multi-cube kernel pays off: divide by the most frequent literal
    # (the first one seen among equals).
    if not counts or max(counts.values()) < 2:
        # Completely disjoint cubes (or only tautology cubes): plain OR of
        # cube expressions.
        acc = _cube_expr(cubes[0], names)
        for cube in cubes[1:]:
            acc = acc | _cube_expr(cube, names)
        return acc
    lit = max(counts.items(), key=itemgetter(1))[0]
    quotient = _literal_quotient(cubes, lit)
    if lit > 0:
        remainder = [c for c in cubes if not c[0] & lit]
    else:
        remainder = [c for c in cubes if not c[1] & -lit]
    expr = _literal(lit, names) & _factor(quotient, names)
    if remainder:
        expr = expr | _factor(remainder, names)
    return expr


def _masks(cover: Cover) -> Cubes:
    return [cube_masks(c) for c in cover.cubes]


def weak_divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Algebraic division ``cover = divisor * quotient + remainder``.

    The quotient is the intersection, over divisor cubes, of the per-cube
    quotients; the remainder is whatever the product fails to reproduce.
    """
    cubes, divisor_cubes = _masks(cover), _masks(divisor)
    quotient = _quotient(cubes, divisor_cubes, len(cover.names))
    remainder = _remainder(cubes, divisor_cubes, quotient)
    return masks_cover(cover.names, quotient), masks_cover(cover.names, remainder)


def literal_kernels(cover: Cover) -> list[Cover]:
    """Level-0 kernel candidates: cube-free single-literal quotients."""
    cubes = _masks(cover)
    return [masks_cover(cover.names, k) for k in _kernels(cubes, _literal_counts(cubes))]


def factor(cover: Cover) -> BoolExpr:
    """Factored-form expression of the cover (algebraically equivalent)."""
    return _factor(_masks(cover), cover.names)
