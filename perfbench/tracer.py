"""Outside-in layer tracer: self time, call counts and BDD counters per layer.

The program is not modified.  :func:`install` replaces each layer's public
functions with a timing wrapper, in *every* ``repro`` module that binds them:
``from x import f`` copies the binding, so ``repro.core.masking.collapse`` and
``repro.synth.collapse.collapse`` must both be replaced.  Methods are replaced
on their class.

Self time is a call's duration minus the time spent in wrapped calls it made.
A layer that re-enters itself directly (recursion, or ``isop_function``
calling ``isop``) is merged into the outer call and counted once.

:class:`BddCounter` is a separate pass: it turns on exact op counting in every
new ``BddManager`` and reads ``stats()`` just before the manager is dropped.
The op wrappers slow every BDD operation, so a counting pass's timings are
never reported.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict
from functools import wraps
from typing import Any, Callable

#: Layer name -> the public functions that enter it, as ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "sta": ("repro.sta.timing:analyze",),
    "engine.compile": ("repro.engine.ir:compile_circuit",),
    "spcf": ("repro.spcf.shortpath:compute_spcf",),
    "synth.lift": ("repro.synth.collapse:circuit_to_technet",),
    "synth.collapse": ("repro.synth.collapse:collapse",),
    "synth.trial_cost": ("repro.synth.mapping:trial_cost",),
    "synth.decompose": ("repro.synth.decompose:decompose_cover",),
    "synth.global_functions": ("repro.synth.technet:TechNetwork.global_functions",),
    "synth.map": (
        "repro.synth.mapping:map_technet",
        "repro.synth.mapping:remove_buffers",
    ),
    "synth.power": ("repro.synth.power:switching_power",),
    "core.cubeselect": ("repro.core.cubeselect:select_cubes",),
    "core.careset": ("repro.core.careset:local_image_cover",),
    "core.masking": ("repro.core.masking:synthesize_masking",),
    "core.integrate": ("repro.core.integrate:build_masked_design",),
    "core.verify": ("repro.core.report:verify_masking",),
    "core.report": ("repro.core.report:overhead_report",),
    "bdd.isop": ("repro.bdd.isop:isop", "repro.bdd.isop:isop_function"),
    "analysis.verify": ("repro.analysis.verify:assert_verified",),
    "sim.eventsim": ("repro.sim.eventsim:two_vector_waveforms",),
    "sim.faults": ("repro.sim.faults:eval_with_faults",),
    "campaign.shard": ("repro.campaign.shard:run_shard",),
    "campaign.checkpoint": ("repro.campaign.checkpoint:CheckpointWriter.shard_done",),
    "campaign.aggregate": ("repro.campaign.aggregate:aggregate_results",),
}

#: Child layer whose absence from a call marks a cache hit of the parent.
HIT_PROBES: dict[str, str] = {"synth.trial_cost": "synth.decompose"}

class Tracer:
    """Per-layer self time and call counts over a stack of open calls.

    ``clock`` is injectable so that the arithmetic can be tested on a
    synthetic call tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: (parent, child) -> parent calls that made at least one child call.
        self.reached: Counter[tuple[str, str]] = Counter()
        # Open frames: [layer, start, time in child calls, child layers].
        self._stack: list[list[Any]] = []

    @property
    def current(self) -> str | None:
        """Innermost open layer, or None outside every layer."""
        return self._stack[-1][0] if self._stack else None

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, self.clock(), 0.0, None]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - frame[1]
            stack.pop()
            self.self_s[layer] += duration - frame[2]
            self.calls[layer] += 1
            if frame[3]:
                for child in frame[3]:
                    self.reached[(layer, child)] += 1
            if stack:
                parent = stack[-1]
                parent[2] += duration
                if parent[3] is None:
                    parent[3] = {layer}
                else:
                    parent[3].add(layer)

    def hit_rate(self, layer: str) -> float:
        """Share of ``layer``'s calls that made no call into its probe layer."""
        calls = self.calls[layer]
        if not calls:
            return 0.0
        return 1.0 - self.reached[(layer, HIT_PROBES[layer])] / calls


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``module:qualname`` -> (owner, attribute, original)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def install(
    tracer: Tracer,
    layers: dict[str, tuple[str, ...]] = LAYERS,
    package: str = "repro",
) -> Callable[[], None]:
    """Wrap every binding of every layer function; returns an undo callable.

    Modules imported later copy the wrapped binding from the module that
    defines it, so they need no scan.
    """
    undo: list[tuple[Any, str, Any]] = []
    for layer, targets in layers.items():
        for target in targets:
            owner, attr, original = _resolve(target)
            wrapped = _wrapper(tracer, layer, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (
                    mod_name == package or mod_name.startswith(package + ".")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _wrapper(tracer: Tracer, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    call = tracer.call

    @wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return call(layer, fn, *args, **kwargs)

    return traced


class BddCounter:
    """Exact BDD work per manager, attributed to the layer that built it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.managers = 0
        self.nodes = 0
        self.op_calls = 0
        self.hits = 0
        self.misses = 0
        self.by_layer: Counter[str] = Counter()
        self._unread: set[int] = set()
        self._alive: weakref.WeakValueDictionary[int, Any] = (
            weakref.WeakValueDictionary()
        )

    def install(self) -> Callable[[], None]:
        from repro.bdd.manager import BddManager

        original_init = BddManager.__init__
        counter = self

        def counting_init(mgr: Any, *args: Any, **kwargs: Any) -> None:
            original_init(mgr, *args, **kwargs)
            mgr.enable_op_counting()
            counter._unread.add(id(mgr))
            counter._alive[id(mgr)] = mgr
            counter.managers += 1
            layer = counter.tracer.current
            if layer is not None:
                counter.by_layer[layer] += 1

        def reading_del(mgr: Any) -> None:
            counter.read(mgr)

        BddManager.__init__ = counting_init  # type: ignore[method-assign]
        BddManager.__del__ = reading_del  # type: ignore[attr-defined]

        def restore() -> None:
            BddManager.__init__ = original_init  # type: ignore[method-assign]
            del BddManager.__del__  # type: ignore[attr-defined]

        return restore

    def read(self, mgr: Any) -> None:
        """Fold one manager's counters in; a manager is read at most once."""
        if id(mgr) not in self._unread:
            return
        self._unread.discard(id(mgr))
        stats = mgr.stats()
        self.nodes += stats["nodes"]
        self.op_calls += sum(stats["op_calls"].values())
        for entry in stats["computed_table"].values():
            self.hits += entry["hits"]
            self.misses += entry["misses"]

    def finish(self) -> None:
        """Collect dropped managers, then read the ones still referenced."""
        gc.collect()
        for mgr in list(self._alive.values()):
            self.read(mgr)
        if self._unread:
            raise RuntimeError(f"{len(self._unread)} BDD managers were never read")
