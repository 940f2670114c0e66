"""Extraction of a technology-independent network from a mapped circuit.

``circuit_to_technet`` lifts every gate to a :class:`TechNode` (one node per
gate, covers via ISOP of the cell function's truth table).  ``collapse``
then eliminates nodes into their fanouts — the reverse of technology
decomposition — until every surviving node has up to ``max_support`` fanins
(the paper works with complex nodes of 10–15 inputs).  Elimination is the
classic SIS-style pass: a node is absorbed when the merged support and the
re-extracted SOPs stay within bounds, preferring low-fanout nodes (absorbing
a single-fanout node never duplicates logic).

Both work on node-local truth tables (:mod:`repro.logic.truth`): a merge
candidate is the reader's table with the eliminated node's table selecting
between the reader's two cofactors, and its covers are the table ISOPs.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SynthesisError
from repro.logic.cover import Cover
from repro.logic.truth import cover_table, expr_table, full_mask, var_masks
from repro.netlist.circuit import Circuit
from repro.synth.technet import TechNetwork, TechNode, node_from_table

#: Largest ``max_support`` accepted: a merge candidate's table, over the
#: support plus the eliminated node, then has at most 2**17 bits.
MAX_SUPPORT = 16


def circuit_to_technet(circuit: Circuit) -> TechNetwork:
    """One-to-one lift of a mapped circuit into a technology-independent net."""
    circuit.validate()
    net = TechNetwork(circuit.name, circuit.inputs, circuit.outputs)
    # Gates of one cell whose pins alias the same fanins the same way get
    # the same covers up to fanin names: build each shape once.
    shapes: dict[tuple, tuple[tuple[int, ...], tuple, tuple]] = {}
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        cell = gate.cell
        distinct = tuple(dict.fromkeys(gate.fanins))
        pattern = tuple(distinct.index(f) for f in gate.fanins)
        key = (cell, pattern)
        shape = shapes.get(key)
        if shape is None:
            masks = var_masks(len(distinct))
            env = {pin: masks[p] for pin, p in zip(cell.inputs, pattern)}
            table = expr_table(cell.expr, env, len(distinct))
            node = node_from_table(name, distinct, table)
            kept = tuple(distinct.index(f) for f in node.fanins)
            shape = (kept, node.on_cover.cubes, node.off_cover.cubes)
            shapes[key] = shape
        kept, on_cubes, off_cubes = shape
        fanins = tuple(distinct[p] for p in kept)
        net.add_node(
            TechNode(name, fanins, Cover(fanins, on_cubes), Cover(fanins, off_cubes))
        )
    net.validate()
    return net


def collapse(
    network: TechNetwork,
    max_support: int = 12,
    max_cubes: int = 20,
    max_fanout: int = 2,
    library=None,
) -> TechNetwork:
    """Eliminate nodes into their fanouts to form complex nodes.

    Parameters
    ----------
    max_support:
        Upper bound on the fanin count of any merged node (paper: 10–15;
        at most :data:`MAX_SUPPORT`).
    max_cubes:
        Upper bound on the cube count of either re-extracted cover; keeps
        the ISOPs (and later the cube-selection pass) tractable.
    max_fanout:
        A node is only eliminated when at most this many nodes read it,
        bounding logic duplication.
    library:
        When given, a merge is additionally rejected if its best mapped
        implementation is slower or substantially larger than mapping the
        two nodes separately — this keeps XOR-rich structures (whose SOPs
        flatten badly) intact.
    """
    if max_support < 2:
        raise SynthesisError(f"max_support {max_support} too small")
    if max_support > MAX_SUPPORT:
        raise SynthesisError(
            f"max_support {max_support} too large (at most {MAX_SUPPORT})"
        )

    def best_cost(tech_node: TechNode) -> tuple[int, float]:
        from repro.synth.mapping import trial_cost

        return min(
            trial_cost(tech_node.on_cover, library, inverted=False),
            trial_cost(tech_node.off_cover, library, inverted=True),
        )
    net = network.copy()
    readers: dict[str, set[str]] = {}
    for node in net.nodes.values():
        for f in node.fanins:
            readers.setdefault(f, set()).add(node.name)

    worklist = deque(net.topo_order())
    queued = set(worklist)
    while worklist:
        name = worklist.popleft()
        queued.discard(name)
        if name not in net.nodes or name in net.outputs:
            continue
        node = net.node(name)
        reading = sorted(readers.get(name, ()))
        if not reading or len(reading) > max_fanout:
            continue
        merged: list[tuple[TechNode, TechNode]] = []
        ok = True
        for reader_name in reading:
            reader = net.node(reader_name)
            support = tuple(
                dict.fromkeys(
                    [f for f in reader.fanins if f != name] + list(node.fanins)
                )
            )
            if len(support) > max_support:
                ok = False
                break
            # XOR-rich functions have no compact SOP (a k-input parity has
            # 2^(k-1) cubes); refusing candidates whose cover exceeds its
            # support size keeps such structures as separate nodes.
            cube_cap = min(max_cubes, max(4, len(support)))
            candidate = _merge_candidate(node, reader, support, cube_cap)
            if candidate is None:
                ok = False
                break
            if library is not None:
                cand_delay, cand_area = best_cost(candidate)
                node_delay, node_area = best_cost(node)
                reader_delay, reader_area = best_cost(reader)
                if cand_delay > node_delay + reader_delay or (
                    cand_area > 1.25 * (node_area + reader_area) + 4.0
                ):
                    ok = False
                    break
            merged.append((reader, candidate))
        if not ok:
            continue
        # Commit: rewrite every reader, then drop the eliminated node.
        for reader, candidate in merged:
            for f in reader.fanins:
                readers.get(f, set()).discard(reader.name)
            net.replace_node(candidate)
            for f in candidate.fanins:
                readers.setdefault(f, set()).add(candidate.name)
        for f in node.fanins:
            readers.get(f, set()).discard(name)
        net.remove_node(name)
        # Fanins may have become low-fanout; readers got new shapes.
        for follow_up in (*node.fanins, *(c.name for _, c in merged)):
            if follow_up not in queued and follow_up in net.nodes:
                worklist.append(follow_up)
                queued.add(follow_up)
    net.validate()
    return net


def _merge_candidate(
    node: TechNode, reader: TechNode, support: tuple[str, ...], max_cubes: int
) -> TechNode | None:
    """``reader`` with ``node`` substituted for its fanin, over ``support``.

    The reader's table over ``(*support, node.name)`` has the eliminated
    variable last, so its low and high halves are the two cofactors; the
    node's table selects between them.  ``None`` when either cover of the
    result has more than ``max_cubes`` cubes.
    """
    half = 1 << len(support)
    reader_table = cover_table(reader.on_cover, (*support, node.name))
    r0 = reader_table & ((1 << half) - 1)
    r1 = reader_table >> half
    node_table = cover_table(node.on_cover, support)
    combined = (node_table & r1) | ((full_mask(len(support)) ^ node_table) & r0)
    return node_from_table(reader.name, support, combined, max_cubes=max_cubes)
