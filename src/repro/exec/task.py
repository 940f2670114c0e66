"""Work units of the execution substrate.

A :class:`Task` is a self-describing, JSON-serializable unit of work: a
registered *kind* (see :mod:`repro.exec.registry`) plus the payload its
runner function receives.  Because the payload must survive the
JSON-over-stdio worker protocol unchanged, a task is also
**content-addressed**: :meth:`Task.fingerprint` hashes the canonical JSON
of ``(kind, payload)``, so two tasks with equal fingerprints are the same
computation — the identity that deterministic retry jitter, journals, and
caches key on.

Display/telemetry hints (``span_name`` and friends) are deliberately
*excluded* from the fingerprint: how a task is traced must never change
what it is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from repro.errors import ExecError


def canonical_json(data: Any) -> str:
    """Stable JSON rendering (sorted keys, no whitespace) for hashing."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Task:
    """One unit of work for an :class:`~repro.exec.Executor`.

    Parameters
    ----------
    kind:
        Registered task kind; resolves to a runner function on whichever
        side (inline, thread, or worker subprocess) executes the task.
    payload:
        JSON-serializable mapping handed to the runner function.
    key:
        Caller-chosen identifier, unique within one ``Executor.run`` call;
        results are reported back under it.
    span_name / span_category / span_attrs:
        Optional tracing hints: when set, the executor wraps the task's
        whole retry loop in a span of this name (category = tracer
        subsystem), with ``outcome``/``attempts`` set at completion.
    attempt_attrs:
        Extra attributes for the per-attempt spans (e.g. ``{"shard": 3}``).
    """

    kind: str
    payload: Mapping[str, Any]
    key: int | str
    span_name: str | None = None
    span_category: str = "exec"
    span_attrs: Mapping[str, Any] = field(default_factory=dict)
    attempt_attrs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ExecError("task kind must be a non-empty string")

    def fingerprint(self) -> str:
        """SHA-256 of the canonical ``(kind, payload)`` JSON."""
        try:
            text = canonical_json([self.kind, dict(self.payload)])
        except (TypeError, ValueError) as exc:
            raise ExecError(
                f"task payload for kind {self.kind!r} is not "
                f"JSON-serializable: {exc}"
            ) from exc
        return hashlib.sha256(text.encode()).hexdigest()

    @cached_property
    def payload_json(self) -> str:
        """The payload's wire encoding, computed once per task.

        The payload is sent on every attempt; caching the encoding turns
        the per-attempt cost into a string splice.
        """
        try:
            return json.dumps(dict(self.payload))
        except (TypeError, ValueError) as exc:
            raise ExecError(
                f"task payload for kind {self.kind!r} is not "
                f"JSON-serializable: {exc}"
            ) from exc


@dataclass
class TaskResult:
    """Terminal state of one task after its retry loop.

    ``outcome`` is one of

    * ``"done"`` — the runner returned; ``value`` holds its result,
    * ``"quarantined"`` — every attempt failed (or the failure was
      deterministic); ``error`` holds the last failure message,
    * ``"stopped"`` — the executor's circuit breaker tripped before the
      task could finish; the task was *not* run to completion and is
      neither a success nor a quarantine.

    ``attempts`` counts attempts actually started; ``wall_seconds`` spans
    the whole retry loop including backoff sleeps.  ``worker_obs`` is the
    raw telemetry payload shipped back by a subprocess worker (``None``
    for inline/thread execution or when observability is off).
    """

    task: Task
    outcome: str
    value: Any = None
    attempts: int = 0
    error: str | None = None
    failures: tuple[str, ...] = ()
    wall_seconds: float = 0.0
    worker_obs: dict | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "done"


__all__ = ["Task", "TaskResult", "canonical_json"]
