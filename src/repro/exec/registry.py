"""Task-kind registry: the name -> runner-function indirection.

Tasks cross process boundaries as JSON, so a task cannot carry its code;
it carries a *kind* string that both sides resolve through this registry.
Entries are lazy ``"module:attr"`` references — registering a kind costs
nothing until a task of that kind actually runs, and the worker subprocess
imports only what its tasks need.

A kind may also name a *worker-span factory*: a function that, given the
payload and attempt number, returns ``(category, name, attrs)`` for the
span the subprocess worker opens around the runner call (e.g. the
campaign's ``campaign.worker_shard``).  The inline backend opens no
worker spans — there is no worker process whose timeline needs
stitching.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Mapping

from repro.errors import ExecError

#: Runner signature: JSON payload in, JSON-serializable result out.
TaskFn = Callable[[dict], Any]
#: Worker-span factory: ``(payload, attempt) -> (category, name, attrs)``.
SpanFn = Callable[[dict, int], tuple[str, str, Mapping[str, Any]]]


@dataclass(frozen=True)
class TaskKind:
    """One registry entry: lazy references to runner and span factory."""

    runner: str
    span: str | None = None


_KINDS: dict[str, TaskKind] = {
    # Built-in kinds.  Values are import strings so this module stays free
    # of heavyweight imports; consumers register their own kinds at import
    # time via register_task_kind().
    "exec.probe": TaskKind(runner="repro.exec.drills:run_probe"),
    "campaign.shard": TaskKind(
        runner="repro.campaign.worker:run_shard_task",
        span="repro.campaign.worker:shard_task_span",
    ),
}


def register_task_kind(
    kind: str, runner: str, span: str | None = None, replace: bool = False
) -> None:
    """Register (or with ``replace=True`` override) a task kind.

    ``runner`` and ``span`` are ``"module:attr"`` import strings resolved
    on first use in whichever process runs the task.
    """
    if not kind:
        raise ExecError("task kind must be a non-empty string")
    if kind in _KINDS and not replace:
        raise ExecError(f"task kind {kind!r} is already registered")
    for ref in (runner, span):
        if ref is not None and ":" not in ref:
            raise ExecError(
                f"import reference {ref!r} must look like 'module:attr'"
            )
    _KINDS[kind] = TaskKind(runner=runner, span=span)


def registered_kinds() -> tuple[str, ...]:
    """All registered kind names, sorted."""
    return tuple(sorted(_KINDS))


def _import_ref(ref: str, kind: str) -> Any:
    module_name, _, attr = ref.partition(":")
    try:
        module = import_module(module_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ExecError(
            f"task kind {kind!r} resolves to unloadable {ref!r}: {exc}"
        ) from exc


def resolve(kind: str) -> TaskFn:
    """The runner function for ``kind`` (imports it on first use)."""
    entry = _KINDS.get(kind)
    if entry is None:
        raise ExecError(
            f"unknown task kind {kind!r}; registered: "
            f"{', '.join(registered_kinds())}"
        )
    fn = _import_ref(entry.runner, kind)
    if not callable(fn):
        raise ExecError(f"runner for task kind {kind!r} is not callable")
    return fn


def resolve_span(kind: str) -> SpanFn | None:
    """The worker-span factory for ``kind``, or None if it has none."""
    entry = _KINDS.get(kind)
    if entry is None or entry.span is None:
        return None
    fn = _import_ref(entry.span, kind)
    return fn if callable(fn) else None


__all__ = [
    "TaskKind",
    "TaskFn",
    "SpanFn",
    "register_task_kind",
    "registered_kinds",
    "resolve",
    "resolve_span",
]
