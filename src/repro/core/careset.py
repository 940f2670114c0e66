"""Satisfiability care-sets induced by the SPCF (paper Sec. 4.1).

For an internal node ``n_j`` of the technology-independent network, the SPCF
``Sigma_y`` at the primary inputs induces a *satisfiability care set* at the
node's local input space: the local minterms reachable from some pattern in
``Sigma_y``.  The paper avoids materializing these minterm sets by working
per-cube in primary-input space: the image of a local cube under the fanin
functions is just the conjunction of the fanins' global functions with the
cube's polarities — no quantification needed.

:func:`cube_image` implements that per-cube image.  Masking also needs the
whole image of ``Sigma_y`` at a collapsed node's fanins, the bound of its
prediction and indicator ISOPs: :func:`local_image_cover` computes it as a
truth table over the fanins by output splitting (Coudert–Madre range
computation) on the fanins' global functions, with no auxiliary variable
and no quantification.  :func:`local_care_sets` splits that image into the
``s0``/``s1`` tables (used by the golden comparator test and for
diagnostics).
"""

from __future__ import annotations

from typing import Mapping

from repro.bdd.manager import BddManager, Function, conjunction
from repro.errors import MaskingError
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.truth import cover_table
from repro.synth.technet import TechNode


def cube_image(
    cube: Cube,
    names: tuple[str, ...],
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> Function:
    """Primary-input-space image of a local cube.

    ``names`` gives the local variable (net) names of the cube's positions;
    ``functions`` maps nets to their global BDDs over the primary inputs.
    """
    terms = []
    for net, polarity in cube.to_dict(names).items():
        try:
            fn = functions[net]
        except KeyError:
            raise MaskingError(f"no global function for net {net!r}") from None
        terms.append(fn if polarity else ~fn)
    return conjunction(mgr, terms)


def cover_image(
    cover: Cover, functions: Mapping[str, Function], mgr: BddManager
) -> Function:
    """Primary-input-space image of a whole cover (OR of cube images)."""
    acc = mgr.false
    for cube in cover.cubes:
        acc = acc | cube_image(cube, cover.names, functions, mgr)
    return acc


def local_image_cover(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
) -> int:
    """Exact image of ``sigma`` at the node's local input space, as a table.

    Returns the truth table over ``node.fanins`` (bit ``m`` set iff some
    pattern in ``sigma`` drives the fanins to minterm ``m``; see
    :mod:`repro.logic.truth` for the bit order).  Computed by output
    splitting: ``g`` starts as ``sigma`` and is split on each fanin function
    ``F_i`` in order into ``g AND F_i`` (bit ``i`` of ``m`` set) and
    ``g AND NOT F_i``; an empty branch is pruned, and every branch that
    survives all fanins is one reachable minterm.  Only conjunctions of
    existing functions are built: the manager gains no variable.
    """
    try:
        fns = [functions[net] for net in node.fanins]
    except KeyError as exc:
        raise MaskingError(f"no global function for net {exc.args[0]!r}") from None
    width = len(fns)
    table = 0
    stack = [(sigma, 0, 0)] if not sigma.is_false else []
    while stack:
        g, i, m = stack.pop()
        if i == width:
            table |= 1 << m
            continue
        hi = g & fns[i]
        if hi.is_false:
            stack.append((g, i + 1, m))
        elif hi == g:
            stack.append((g, i + 1, m | 1 << i))
        else:
            stack.append((g & ~fns[i], i + 1, m))
            stack.append((hi, i + 1, m | 1 << i))
    return table


def local_care_sets(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
) -> tuple[int, int]:
    """Explicit local-space care sets ``(s0, s1)`` of ``node`` under ``sigma``.

    Truth tables over ``node.fanins``: the local input minterms reachable
    from ``sigma`` for which the node evaluates to 0 / 1.
    """
    image = local_image_cover(node, sigma, functions)
    on = cover_table(node.on_cover, node.fanins)
    return image & ~on, image & on
