"""Two-vector event-driven timing simulation (pure delay model).

Given an initial vector ``v1`` and a final vector ``v2`` applied at t = 0,
compute the full switching waveform of every net.  Under the pure
(non-inertial) delay model the output waveform of a gate is its function
applied to the input waveforms, each shifted by the corresponding pin-to-pin
delay — so waveforms can be built functionally in one topological pass
instead of with an event queue.

The masked-sampling model in :mod:`repro.sim.faults` samples these waveforms
at the clock edge; a *timing error* is a sampled value that differs from the
settled value.

:func:`sample_words` asks the same question for many vector pairs at once,
without building waveforms: it computes the value of chosen nets at one
instant, bit-parallel over packed pairs, by unrolling the pure-delay rule
``value(n, t) = cell(value(f_i, t - d_i))`` only where a net can still be
switching.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.engine import (
    CompiledCircuit,
    PythonWordBackend,
    compile_circuit,
    pack_input_words,
)
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit


@dataclass(frozen=True)
class Waveform:
    """A piecewise-constant 0/1 signal.

    ``initial`` is the value for ``t < transitions[0][0]``; ``transitions``
    is a strictly-increasing sequence of ``(time, new_value)`` with adjacent
    values always differing.
    """

    initial: bool
    transitions: tuple[tuple[int, bool], ...] = ()

    @staticmethod
    def constant(value: bool) -> "Waveform":
        return Waveform(bool(value))

    @staticmethod
    def step(initial: bool, final: bool, at: int = 0) -> "Waveform":
        """Input waveform: ``initial`` before ``at``, ``final`` after."""
        if initial == final:
            return Waveform(bool(initial))
        return Waveform(bool(initial), ((at, bool(final)),))

    def value_at(self, t: int) -> bool:
        """Signal value at time ``t`` (transitions take effect at their time)."""
        # Times are strictly increasing, so ``(t, True)`` sorts after any
        # transition at ``t`` whatever its value, and before any later one.
        idx = bisect_right(self.transitions, (t, True))
        if idx == 0:
            return self.initial
        return self.transitions[idx - 1][1]

    @property
    def final(self) -> bool:
        """Settled value."""
        return self.transitions[-1][1] if self.transitions else self.initial

    @property
    def settle_time(self) -> int:
        """Time of the last transition (0 for constant waveforms)."""
        return self.transitions[-1][0] if self.transitions else 0

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def shifted(self, delay: int) -> "Waveform":
        """The waveform delayed by ``delay`` time units."""
        if delay == 0 or not self.transitions:
            return self if delay == 0 else Waveform(self.initial, self.transitions)
        return Waveform(
            self.initial, tuple((t + delay, v) for t, v in self.transitions)
        )


def _combine(cell_eval, waveforms: Sequence[Waveform]) -> Waveform:
    """Apply an n-ary function pointwise to already-shifted input waveforms."""
    times = sorted({t for w in waveforms for t, _ in w.transitions})
    initial = cell_eval([w.initial for w in waveforms])
    transitions: list[tuple[int, bool]] = []
    current = initial
    for t in times:
        value = cell_eval([w.value_at(t) for w in waveforms])
        if value != current:
            transitions.append((t, value))
            current = value
    return Waveform(initial, tuple(transitions))


def two_vector_waveforms(
    circuit: Circuit | CompiledCircuit,
    v1: Mapping[str, bool],
    v2: Mapping[str, bool],
) -> dict[str, Waveform]:
    """Waveform of every net when inputs switch from ``v1`` to ``v2`` at t=0.

    One pass over the compiled gate arrays (indices, cached scaled delays);
    accepts a plain or pre-compiled circuit.  For callers that need whole
    waveforms (settle times, glitch witnesses, several sampling instants):
    the analysis planes, :mod:`repro.apps` and
    :func:`~repro.sim.faults.sample_at_clock`.  Sampling many pairs at one
    instant is :func:`sample_words`.
    """
    compiled = compile_circuit(circuit)
    waves: list[Waveform] = []
    for net in compiled.inputs:
        try:
            waves.append(Waveform.step(bool(v1[net]), bool(v2[net])))
        except KeyError as exc:
            raise SimulationError(f"vector missing input {exc}") from exc
    for pos, fanins in enumerate(compiled.gate_fanins):
        cell = compiled.gate_cells[pos]
        if not fanins:
            waves.append(Waveform.constant(cell.evaluate({})))
            continue
        delays = compiled.gate_delays[pos]
        shifted = [waves[f].shifted(d) for f, d in zip(fanins, delays)]
        waves.append(_combine(cell.evaluate_seq, shifted))
    return dict(zip(compiled.net_names, waves))


def _earliest(compiled: CompiledCircuit) -> list[int]:
    """Earliest time each net can change (min-plus dual of ``arrival``)."""
    times = [0] * compiled.n_nets
    n_inputs = compiled.n_inputs
    for pos, (fanins, delays) in enumerate(
        zip(compiled.gate_fanins, compiled.gate_delays)
    ):
        times[n_inputs + pos] = min(
            (times[f] + d for f, d in zip(fanins, delays)), default=0
        )
    return times


def sample_words(
    circuit: Circuit | CompiledCircuit,
    v1: Mapping[str, int],
    v2: Mapping[str, int],
    width: int,
    clock: int,
    nets: Sequence[str],
) -> list[int]:
    """Values of ``nets`` at time ``clock`` for ``width`` packed vector pairs.

    Bit ``k`` of ``v1[x]`` / ``v2[x]`` is input ``x`` before / from t = 0 in
    pair ``k``; bit ``k`` of each returned word (one per name in ``nets``) is
    ``two_vector_waveforms(circuit, v1_k, v2_k)[net].value_at(clock)``.

    Exact by induction over the topological order.  A net cannot change
    before ``earliest(n) = min_i(earliest(f_i) + d_i)`` nor after
    ``arrival(n) = max_i(arrival(f_i) + d_i)`` (inputs: both 0): for
    ``t < earliest(n)`` every fanin is read before it can change, so the net
    holds its zero-delay ``v1`` value; for ``t >= arrival(n)`` every fanin
    has settled, so it holds its zero-delay ``v2`` value.  Only the
    ``(net, t)`` pairs inside ``[earliest, arrival)`` reachable from the
    sampled nets are evaluated, each once, with the compiled word
    functions on Python ints (whatever ``REPRO_ENGINE_BACKEND`` says).
    """
    compiled = compile_circuit(circuit)
    index = compiled.net_index
    try:
        roots = [index[net] for net in nets]
    except KeyError as exc:
        raise SimulationError(f"cannot sample unknown net {exc.args[0]!r}") from None
    words = PythonWordBackend()
    before = words.eval_words(compiled, pack_input_words(compiled, v1, width), width)
    after = words.eval_words(compiled, pack_input_words(compiled, v2, width), width)
    earliest = _earliest(compiled)
    arrival = compiled.arrival()
    n_inputs = compiled.n_inputs
    fanins_of = compiled.gate_fanins
    delays_of = compiled.gate_delays

    # The (net, t) pairs the sampled values depend on, inside the windows.
    needed: dict[int, set[int]] = {}
    stack = [(n, clock) for n in roots]
    while stack:
        n, t = stack.pop()
        if not earliest[n] <= t < arrival[n]:
            continue
        times = needed.setdefault(n, set())
        if t in times:
            continue
        times.add(t)
        pos = n - n_inputs
        stack.extend(
            (f, t - d) for f, d in zip(fanins_of[pos], delays_of[pos])
        )

    mask = (1 << width) - 1
    switching: dict[tuple[int, int], int] = {}

    def value(n: int, t: int) -> int:
        if t < earliest[n]:
            return before[n]
        if t >= arrival[n]:
            return after[n]
        return switching[n, t]

    plan = compiled.plan
    for n in sorted(needed):  # net index order is topological
        func, _, fanins = plan[n - n_inputs]
        delays = delays_of[n - n_inputs]
        for t in needed[n]:
            switching[n, t] = func(
                mask, *[value(f, t - d) for f, d in zip(fanins, delays)]
            )
    return [value(n, clock) for n in roots]


def settle_times(
    circuit: Circuit | CompiledCircuit,
    v1: Mapping[str, bool],
    v2: Mapping[str, bool],
) -> dict[str, int]:
    """Last-transition time of every primary output for the vector pair."""
    compiled = compile_circuit(circuit)
    waves = two_vector_waveforms(compiled, v1, v2)
    return {net: waves[net].settle_time for net in compiled.outputs}
