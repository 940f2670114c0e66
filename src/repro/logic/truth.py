"""Truth tables of node-local functions as Python integers.

The masking synthesis handles many small Boolean functions: the local
function of every complex node (10–15 inputs, paper Sec. 4), its care-set
image, the prediction and indicator bounds, and every collapse merge
candidate.  Over so few variables a truth table in one machine integer is
the cheapest exact representation: ``&``, ``|`` and ``^`` run word-parallel
in C, and no BDD manager has to be created or warmed up per function.

Conventions.  A table over the variables ``order = (v_0, ..., v_{n-1})`` has
``2**n`` bits; bit ``m`` is the function value at the minterm whose bit ``i``
is the value of ``v_i``.  :func:`var_masks` gives the projection tables.
Cubes produced by :func:`isop` are ``(pos, neg)`` bit-mask pairs over the
table positions: bit ``i`` of ``pos`` (``neg``) is the literal ``v_i``
(``~v_i``); a position in neither is absent.

:func:`isop` is the Minato–Morreale ISOP of :mod:`repro.bdd.isop` on tables.
It emits exactly the cubes the BDD version emits under the same variable
order: both split on the first variable of the order that ``lower`` or
``upper`` depends on (the root level of a reduced BDD), test ``lower == 0``
before ``upper == 1``, recurse negative branch, positive branch, then the
don't-care remainder, and tag the sub-cubes with the split literal in the
same order.  Functions over the primary inputs stay BDDs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from repro.bdd.manager import Function
from repro.errors import LogicError
from repro.logic.cover import Cover
from repro.logic.cube import DASH, ONE, ZERO, Cube
from repro.logic.expr import BoolExpr

#: A cube as ``(positive-literal bits, negative-literal bits)``.
CubeMasks = tuple[int, int]


def full_mask(width: int) -> int:
    """The constant-1 table over ``width`` variables."""
    return (1 << (1 << width)) - 1


@lru_cache(maxsize=32)
def var_masks(width: int) -> tuple[int, ...]:
    """Projection tables of the ``width`` variables, by position."""
    total = 1 << width
    masks = []
    for i in range(width):
        run = 1 << i
        mask = ((1 << run) - 1) << run  # ``run`` zeros, then ``run`` ones
        length = 2 * run
        while length < total:
            mask |= mask << length
            length *= 2
        masks.append(mask)
    return tuple(masks)


@lru_cache(maxsize=32)
def _complements(width: int) -> tuple[int, ...]:
    """Complements of the projection tables, by position."""
    full = full_mask(width)
    return tuple(full ^ m for m in var_masks(width))


def cover_table(cover: Cover, order: Sequence[str] | None = None) -> int:
    """Table of ``cover`` over ``order`` (default: the cover's own names)."""
    if order is None:
        order = cover.names
    width = len(order)
    masks = var_masks(width)
    full = full_mask(width)
    index = {name: i for i, name in enumerate(order)}
    try:
        cols = [masks[index[name]] for name in cover.names]
    except KeyError as exc:
        raise LogicError(f"cover variable {exc} not in the table order") from None
    table = 0
    for cube in cover.cubes:
        term = full
        for col, v in zip(cols, cube.values):
            if v == ONE:
                term &= col
            elif v == ZERO:
                term &= ~col
        table |= term
    return table


def expr_table(expr: BoolExpr, env: Mapping[str, int], width: int) -> int:
    """Table of ``expr`` with a table bound to each of its variable names."""
    full = full_mask(width)

    def walk(e: BoolExpr) -> int:
        if e.op == "var":
            try:
                return env[e.name]
            except KeyError:
                raise LogicError(f"expression name {e.name!r} unbound") from None
        if e.op == "const":
            return full if e.value else 0
        if e.op == "not":
            return full ^ walk(e.args[0])
        tables = [walk(a) for a in e.args]
        acc = tables[0]
        for t in tables[1:]:
            if e.op == "and":
                acc &= t
            elif e.op == "or":
                acc |= t
            else:
                acc ^= t
        return acc

    return walk(expr)


def function_table(fn: Function, order: Sequence[str]) -> int:
    """Table of a BDD function over ``order``.

    Every variable in the function's support must appear in ``order``.
    """
    mgr = fn.manager
    width = len(order)
    masks = var_masks(width)
    full = full_mask(width)
    index = {name: i for i, name in enumerate(order)}
    memo: dict[int, int] = {0: 0, 1: full}

    def walk(u: int) -> int:
        r = memo.get(u)
        if r is None:
            name = mgr.name_of(mgr._level[u])
            try:
                col = masks[index[name]]
            except KeyError:
                raise LogicError(
                    f"function depends on {name!r}, not in the table order"
                ) from None
            r = (col & walk(mgr._hi[u])) | ((full ^ col) & walk(mgr._lo[u]))
            memo[u] = r
        return r

    return walk(fn.node)


def depends_on(table: int, position: int, width: int) -> bool:
    """True iff the function changes with the variable at ``position``."""
    shift = 1 << position
    return bool(((table >> shift) ^ table) & _complements(width)[position])


def support(table: int, width: int) -> tuple[int, ...]:
    """Positions of the variables the function depends on, ascending."""
    return tuple(i for i in range(width) if depends_on(table, i, width))


def isop(lower: int, upper: int, width: int) -> list[CubeMasks]:
    """Irredundant SOP cover ``C`` with ``lower <= C <= upper``.

    Splits in position order; see the module docstring for why the cubes
    equal those of :func:`repro.bdd.isop.isop` under the same order.
    """
    full = full_mask(width)
    if lower & ~upper or (lower | upper) & ~full:
        raise LogicError("isop requires lower <= upper within the table width")
    if not lower:
        return []
    _, cubes = _isop(lower, upper, 0, var_masks(width), _complements(width), full)
    return cubes


def _isop(
    lower: int,
    upper: int,
    start: int,
    masks: tuple[int, ...],
    rests: tuple[int, ...],
    full: int,
) -> tuple[int, list[CubeMasks]]:
    """Recursive core: the cover's table and its cubes.

    ``lower`` is not 0, and neither bound depends on positions below
    ``start``.  Callers test ``lower == 0`` themselves, which saves the
    call on the many empty branches without changing the order of tests.
    """
    if upper == full:
        return full, [(0, 0)]
    i = start
    while True:
        shift = 1 << i
        rest = rests[i]
        if ((lower >> shift) ^ lower) & rest or ((upper >> shift) ^ upper) & rest:
            break
        i += 1
    col = masks[i]
    l0 = lower & rest
    l0 |= l0 << shift
    l1 = lower & col
    l1 |= l1 >> shift
    u0 = upper & rest
    u0 |= u0 << shift
    u1 = upper & col
    u1 |= u1 >> shift

    # Cubes that must carry the negative literal (cover L0 outside U1), then
    # those that must carry the positive one (cover L1 outside U0).
    bit = 1 << i
    cubes: list[CubeMasks] = []
    f0 = f1 = fd = 0
    sub = l0 & ~u1
    if sub:
        f0, sub_cubes = _isop(sub, u0, i + 1, masks, rests, full)
        cubes.extend((pos, neg | bit) for pos, neg in sub_cubes)
    sub = l1 & ~u0
    if sub:
        f1, sub_cubes = _isop(sub, u1, i + 1, masks, rests, full)
        cubes.extend((pos | bit, neg) for pos, neg in sub_cubes)
    # Remaining lower-bound minterms can be covered without the variable.
    sub = (l0 & ~f0) | (l1 & ~f1)
    if sub:
        fd, sub_cubes = _isop(sub, u0 & u1, i + 1, masks, rests, full)
        cubes.extend(sub_cubes)
    return (f0 & rest) | (f1 & col) | fd, cubes


def isop_cover(names: Sequence[str], lower: int, upper: int) -> Cover:
    """The :func:`isop` of tables over ``names``, as a cover over ``names``."""
    return masks_cover(names, isop(lower, upper, len(names)))


def masks_cover(
    names: Sequence[str],
    cubes: Sequence[CubeMasks],
    positions: Sequence[int] | None = None,
) -> Cover:
    """Mask cubes over the table positions of ``names``, as a cover.

    ``positions`` selects and orders the positions the cover is written
    over (default: all of them); the cubes must not use others.
    """
    if positions is None:
        positions = range(len(names))
    return Cover(
        tuple(names[p] for p in positions),
        tuple(cube_from_masks(pos, neg, positions) for pos, neg in cubes),
    )


_POS_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"010")
_NEG_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"100")


def cube_masks(cube: Cube) -> CubeMasks:
    """``(pos, neg)`` masks of a positional cube (position ``i`` is bit ``i``)."""
    if not cube.values:
        return 0, 0
    digits = bytes(reversed(cube.values))
    return (
        int(digits.translate(_POS_DIGITS), 2),
        int(digits.translate(_NEG_DIGITS), 2),
    )


def cube_from_masks(pos: int, neg: int, positions: Sequence[int]) -> Cube:
    """A positional cube over ``positions`` from ``(pos, neg)`` masks."""
    return Cube(
        tuple(
            ONE if pos >> p & 1 else ZERO if neg >> p & 1 else DASH
            for p in positions
        )
    )
