"""Technology mapping of a :class:`TechNetwork` onto a cell library.

Every node is lowered through :mod:`repro.synth.decompose`, picking whichever
polarity (on-set SOP, or inverted off-set SOP) maps faster, then smaller.
Both are priced by :func:`trial_cost`, a cost-only lowering that records the
arrival and area of each emitted gate instead of building and timing a
scratch circuit; its ``(delay, area)`` equals scratch STA exactly.  Node
output nets keep their technology-independent names so that mapped circuits
stay comparable with their specs (equivalence is property-tested in
``tests/synth``).

Trial costs are memoized per library on the cover's *shape*: its cubes, the
polarity and which side of :data:`TRIAL_PREFIX` each fanin name sorts on.
A lowering reads names in only two places —
:meth:`~repro.synth.decompose.NetBuilder.emit` sorts the fanins of
symmetric cells by name (and pin delays are asymmetric, e.g. AND2 8/9 in
``lsi10k_like``), and :meth:`~repro.synth.decompose.NetBuilder.fresh` skips
a generated name that equals an input name.  Every fresh name starts with
:data:`TRIAL_PREFIX`, so when no input name does (and no two are equal):
names never clash; an input orders against *every* fresh name as it orders
against the prefix itself; and fresh names order among themselves by
structure alone.  How two input names order among themselves does not
matter either: the symmetric cells have two pins and every input arrives
at 0, so a cell fed by two inputs has the same output arrival in either
pin order, while the gates built and their sharing do not depend on names
at all.  Two such covers with the same shape therefore lower to gates of
the same cost.  Any other cover is keyed on itself.
"""

from __future__ import annotations

from repro.logic.cover import Cover
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library
from repro.synth.decompose import CostBuilder, GateBuilder, decompose_cover
from repro.synth.technet import TechNetwork

#: Entries a library's memo may hold before it is emptied.  Far above the
#: distinct cover shapes priced while masking the whole Table-2 suite: its
#: 20 circuits on one ``lsi10k_like`` library leave 3,397 entries.
_TRIAL_MEMO_LIMIT = 1 << 16

#: Prefix of the trial builder's fresh net names, which the memo key relies
#: on (see the module docstring).
TRIAL_PREFIX = "t_"


def _trial_key(cover: Cover, inverted: bool) -> tuple:
    """Memo key of a trial lowering: the cover's shape, or the cover itself."""
    names = cover.names
    if len(set(names)) != len(names) or any(
        n.startswith(TRIAL_PREFIX) for n in names
    ):
        return (cover, inverted)
    return (cover.cubes, inverted, tuple(n < TRIAL_PREFIX for n in names))


def trial_cost(
    cover: Cover, library: Library, inverted: bool = False
) -> tuple[int, float]:
    """Mapped ``(delay, area)`` of a cover, from a cost-only lowering.

    Used to choose between implementing a node as its on-set SOP or as the
    complement of its off-set SOP — the criterion is the *mapped* cost after
    factoring, not the raw literal count.  The cover is lowered through the
    same :func:`decompose_cover` as real mapping, but into a
    :class:`CostBuilder`, so the result equals the output arrival from STA
    and the area of a scratch circuit built from it, without building one.
    Results are memoized on ``library`` (emptied when a cell is added),
    keyed on ``(cubes, inverted, names < TRIAL_PREFIX)``, so covers that
    differ only by a side-preserving renaming (which may reorder the names)
    share one entry; covers with a name starting with :data:`TRIAL_PREFIX`,
    or with a repeated name, are keyed on ``(cover, inverted)``.  The module
    docstring gives the argument why this is exact.
    """
    memo = library.memo
    key = _trial_key(cover, inverted)
    cached = memo.get(key)
    if cached is not None:
        return cached
    builder = CostBuilder(cover.names, library, TRIAL_PREFIX)
    net = decompose_cover(cover, builder, invert_output=inverted)
    result = (builder.arrival.get(net, 0), builder.area)
    if len(memo) >= _TRIAL_MEMO_LIMIT:
        memo.clear()
    memo[key] = result
    return result


def map_technet(
    network: TechNetwork,
    library: Library,
    name: str | None = None,
    prefix: str = "m_",
) -> Circuit:
    """Map ``network`` to gates from ``library``.

    The returned circuit has the same input/output names as the network.
    Internal fresh nets are prefixed with ``prefix`` to avoid collisions
    when the result is merged into a larger design.
    """
    network.validate()
    circuit = Circuit(name or network.name, network.inputs, network.outputs)
    builder = GateBuilder(circuit, library, prefix)
    for node_name in network.topo_order():
        node = network.node(node_name)
        special = _match_special_cell(node, library)
        if special is not None:
            cell_name, fanins = special
            circuit.add_gate(node_name, library.get(cell_name), fanins)
            continue
        use_off = trial_cost(node.off_cover, library, inverted=True) < trial_cost(
            node.on_cover, library, inverted=False
        )
        cover = node.off_cover if use_off else node.on_cover
        result = decompose_cover(cover, builder, invert_output=use_off)
        if not builder.claim_as(result, node_name):
            builder.buffer_as(result, node_name)
    circuit.validate()
    return circuit


def _match_special_cell(node, library: Library):
    """Recognize 1–2 input nodes that map to a single library cell.

    XOR-shaped functions have no compact SOP, so pattern-matching them to
    XOR2/XNOR2 cells (and identities to BUF/INV) keeps mapped depth and area
    proportional to the technology-independent structure.
    """
    width = node.num_fanins
    if width == 0 or width > 2:
        return None
    table = []
    for idx in range(1 << width):
        bits = [(idx >> (width - 1 - i)) & 1 for i in range(width)]
        table.append(any(c.contains_minterm(bits) for c in node.on_cover.cubes))
    table = tuple(table)
    if width == 1:
        if table == (False, True) and "BUF" in library:
            return ("BUF", node.fanins)
        if table == (True, False) and "INV" in library:
            return ("INV", node.fanins)
        return None
    patterns = {
        (False, True, True, False): "XOR2",
        (True, False, False, True): "XNOR2",
        (False, False, False, True): "AND2",
        (False, True, True, True): "OR2",
        (True, True, True, False): "NAND2",
        (True, False, False, False): "NOR2",
    }
    cell_name = patterns.get(table)
    if cell_name and cell_name in library:
        return (cell_name, node.fanins)
    return None


def remove_buffers(circuit: Circuit) -> Circuit:
    """Collapse BUF gates by rewiring readers (outputs keep their buffer).

    Mapping inserts a buffer per node to preserve node names; this cleanup
    removes the ones that are not protecting a primary-output name.
    """
    out = Circuit(circuit.name, circuit.inputs, circuit.outputs)
    # Resolve chains of buffers to their ultimate source.
    source: dict[str, str] = {}

    def resolve(net: str) -> str:
        seen = []
        while True:
            if net in source:
                net = source[net]
                continue
            if net in circuit.gates and net not in circuit.outputs:
                gate = circuit.gates[net]
                if gate.cell.name == "BUF":
                    seen.append(net)
                    net = gate.fanins[0]
                    continue
            break
        for s in seen:
            source[s] = net
        return net

    for name in circuit.topo_order():
        gate = circuit.gates[name]
        if gate.cell.name == "BUF" and name not in circuit.outputs:
            continue
        out.add_gate(
            name,
            gate.cell,
            tuple(resolve(f) for f in gate.fanins),
            delay_scale=gate.delay_scale,
        )
    out.validate()
    return out


def mapped_stats(circuit: Circuit) -> dict[str, float]:
    """Quick area/depth statistics for a mapped circuit."""
    from repro.sta.timing import analyze

    report = analyze(circuit, target=0)
    return {
        "gates": float(circuit.num_gates),
        "area": circuit.area(),
        "delay": float(report.critical_delay),
    }
