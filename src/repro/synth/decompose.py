"""Decomposition of covers and factored expressions into library gates.

Covers are factored algebraically (:mod:`repro.logic.factoring`) and lowered
through :func:`decompose_expr`, which

* pushes negations down to the literals (De Morgan), so an inverted cover
  costs inverters at the leaves instead of one slow output inverter,
* flattens associative AND/OR chains and rebuilds them as balanced trees,
* structurally hashes every created gate (commutative inputs normalized), so
  shared subexpressions — e.g. a kernel used by several nodes of the masking
  network — are instantiated once.

Balanced trees plus factoring are what let the mapped masking circuit meet
the paper's >= 20% slack requirement.

Two builders share that lowering: :class:`GateBuilder` adds the gates to a
:class:`~repro.netlist.circuit.Circuit`, while :class:`CostBuilder` only
records each gate's arrival time and area, which is all the mapper needs to
price a candidate cover.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SynthesisError
from repro.logic.cover import Cover
from repro.logic.expr import BoolExpr
from repro.logic.factoring import factor
from repro.netlist.cell import Cell
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library

_SYMMETRIC_CELLS = {"AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"}


class NetBuilder:
    """Lowering primitives shared by every builder.

    Fresh net naming, fanin normalization of symmetric cells and structural
    hashing live here, so that two builders fed the same cover emit the same
    gates under the same names.  All construction goes through :meth:`emit`,
    which hashes ``(cell, fanins)`` so identical gates are shared; only
    :meth:`_place`, which materializes a new gate, differs between builders.
    """

    def __init__(self, library: Library, prefix: str) -> None:
        self.library = library
        self.prefix = prefix
        self._counter = 0
        self._strash: dict[tuple[str, tuple[str, ...]], str] = {}

    def _has_net(self, name: str) -> bool:
        """True iff ``name`` is already a net of the design being built."""
        raise NotImplementedError

    def _place(self, out: str, cell: Cell, fanins: tuple[str, ...]) -> None:
        """Materialize a new gate driving ``out``."""
        raise NotImplementedError

    def fresh(self, tag: str) -> str:
        """A new unique net name."""
        while True:
            name = f"{self.prefix}{tag}_{self._counter}"
            self._counter += 1
            if not self._has_net(name):
                return name

    def emit(self, cell_name: str, fanins: Sequence[str], tag: str) -> str:
        """Instantiate (or reuse) a gate; returns its output net."""
        fanins = tuple(fanins)
        if cell_name in _SYMMETRIC_CELLS:
            fanins = tuple(sorted(fanins))
        key = (cell_name, fanins)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        out = self.fresh(tag)
        self._place(out, self.library.get(cell_name), fanins)
        self._strash[key] = out
        return out

    def inverter(self, net: str) -> str:
        """Net carrying ``~net`` (shared per source net)."""
        return self.emit("INV", (net,), "inv")

    def literal(self, net: str, polarity: bool) -> str:
        """Net carrying the literal ``net`` or ``~net``."""
        return net if polarity else self.inverter(net)

    def constant(self, value: bool) -> str:
        """Net tied to constant 0 or 1."""
        return self.emit("ONE" if value else "ZERO", (), "const")

    def _tree(self, nets: Sequence[str], cell_name: str, tag: str) -> str:
        if not nets:
            raise SynthesisError(f"empty {tag} tree")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.emit(cell_name, (level[i], level[i + 1]), tag))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def and_tree(self, nets: Sequence[str]) -> str:
        """Balanced AND of the given nets (a single net passes through)."""
        return self._tree(nets, "AND2", "and")

    def or_tree(self, nets: Sequence[str]) -> str:
        """Balanced OR of the given nets."""
        return self._tree(nets, "OR2", "or")

    def mux(self, select: str, when0: str, when1: str) -> str:
        """2-to-1 multiplexer: ``select ? when1 : when0``."""
        return self.emit("MUX2", (select, when0, when1), "mux")


class GateBuilder(NetBuilder):
    """Builder appending library gates to a circuit with fresh net names."""

    def __init__(self, circuit: Circuit, library: Library, prefix: str) -> None:
        super().__init__(library, prefix)
        self.circuit = circuit
        self._created: set[str] = set()
        self._read: set[str] = set()

    def _has_net(self, name: str) -> bool:
        return self.circuit.has_net(name)

    def _place(self, out: str, cell: Cell, fanins: tuple[str, ...]) -> None:
        self.circuit.add_gate(out, cell, fanins)
        self._created.add(out)
        self._read.update(fanins)

    def claim_as(self, net: str, name: str) -> bool:
        """Rename a freshly-built internal net to ``name`` (no buffer needed).

        Only nets created by this builder, not yet claimed, and not read by
        any other gate can be renamed; returns ``False`` when the caller
        should fall back to a buffer.
        """
        if (
            net not in self._created
            or net in self._read
            or self.circuit.has_net(name)
        ):
            return False
        gate = self.circuit.gate(net)
        self.circuit.remove_gate(net)
        self.circuit.add_gate(name, gate.cell, gate.fanins, gate.delay_scale)
        for key, value in self._strash.items():
            if value == net:
                self._strash[key] = name
        self._created.discard(net)
        return True

    def buffer_as(self, net: str, out_name: str) -> str:
        """Drive the named net from ``net`` through a buffer."""
        self.circuit.add_gate(out_name, self.library.get("BUF"), (net,))
        self._read.add(net)
        return out_name


class CostBuilder(NetBuilder):
    """Builder that only prices the gates it would create.

    Each new gate's arrival is ``max(arrival[fanin] + pin_delay)`` with the
    inputs (and constant cells) at 0, and its area is added in emit order —
    exactly the arrival and :meth:`Circuit.area` that STA of the
    equivalent :class:`GateBuilder` circuit would report.
    """

    def __init__(self, inputs: Sequence[str], library: Library, prefix: str) -> None:
        super().__init__(library, prefix)
        self._inputs = frozenset(inputs)
        #: Arrival time of every gate output created so far.
        self.arrival: dict[str, int] = {}
        #: Total area of the created gates.
        self.area = 0.0

    def _has_net(self, name: str) -> bool:
        return name in self._inputs or name in self.arrival

    def _place(self, out: str, cell: Cell, fanins: tuple[str, ...]) -> None:
        arrival = self.arrival
        arrival[out] = max(
            (arrival.get(f, 0) + d for f, d in zip(fanins, cell.pin_delays)),
            default=0,
        )
        self.area += cell.area


def _gather(
    expr: BoolExpr, negate: bool, op: str, out: list[tuple[BoolExpr, bool]]
) -> None:
    """Flatten nested associative chains of ``op`` under negation push-down."""
    if expr.op == "not":
        _gather(expr.args[0], not negate, op, out)
        return
    effective = expr.op
    if negate and expr.op in ("and", "or"):
        effective = "or" if expr.op == "and" else "and"
    if effective == op and expr.op in ("and", "or"):
        for a in expr.args:
            _gather(a, negate, op, out)
    else:
        out.append((expr, negate))


def decompose_expr(expr: BoolExpr, builder: NetBuilder, negate: bool = False) -> str:
    """Lower a Boolean expression to gates; returns the result net.

    Variable names in the expression are interpreted as existing net names.
    """
    if expr.op == "var":
        return builder.literal(expr.name, not negate)
    if expr.op == "const":
        return builder.constant(expr.value ^ negate)
    if expr.op == "not":
        return decompose_expr(expr.args[0], builder, not negate)
    if expr.op == "xor":
        nets = [decompose_expr(a, builder) for a in expr.args]
        acc = nets[0]
        for net in nets[1:]:
            acc = builder.emit("XOR2", (acc, net), "xor") if "XOR2" in builder.library \
                else _xor_fallback(builder, acc, net)
        return builder.inverter(acc) if negate else acc
    # and / or with flattening and De Morgan applied.
    target = expr.op
    if negate:
        target = "or" if target == "and" else "and"
    leaves: list[tuple[BoolExpr, bool]] = []
    _gather(expr, negate, target, leaves)
    nets = [decompose_expr(e, builder, n) for e, n in leaves]
    return builder.and_tree(nets) if target == "and" else builder.or_tree(nets)


def _xor_fallback(builder: NetBuilder, a: str, b: str) -> str:
    na, nb = builder.inverter(a), builder.inverter(b)
    return builder.or_tree(
        [builder.and_tree([a, nb]), builder.and_tree([na, b])]
    )


def decompose_cover(
    cover: Cover,
    builder: NetBuilder,
    invert_output: bool = False,
) -> str:
    """Factor and lower an SOP cover; returns the net of the result.

    ``invert_output`` implements the complement of the cover, with the
    inversion pushed to the leaves (used for ``n~ = NOT n^0``).
    """
    if cover.num_cubes == 0:
        return builder.constant(invert_output)
    expr = factor(cover)
    return decompose_expr(expr, builder, negate=invert_output)
