"""Persistent generic task worker: line-delimited JSON over stdio.

Runs as ``python -m repro.exec.worker``.  The worker stays alive and
serves one request line after another — the process pool reuses it
across tasks, amortizing interpreter/import startup and letting
per-process caches (compiled circuits, masked designs) survive between
tasks of the same run.

Protocol, one JSON document per line in each direction.  The worker
speaks first, once its imports are done, so the parent can bound
start-up separately from each task::

    <- {"schema": 1, "ready": true}
    -> {"schema": 1, "kind": "...", "payload": {...}, "key": ...,
        "attempt": 0, "sabotage": null, "corr": "<fingerprint>"?}
    <- {"schema": 1, "key": ..., "result": ..., "wall_seconds": ...,
        "obs": {...}?}              # success
    <- {"schema": 1, "key": ..., "error": "SpcfError: ..."}  # deterministic

Deterministic failures (a :class:`~repro.errors.ReproError` or common
programming error inside the runner) come back as *data* and keep the
worker alive; anything else — a crash, an OOM kill, sabotage — costs the
whole process, which the executor observes as EOF and treats as a
retryable environmental failure.

Observability crosses the protocol with **delta semantics**: when
``REPRO_OBS`` is on, each response carries the spans and metric increments
recorded *since the previous response* (the registry is reset after every
reply), so the parent can merge snapshots commutatively without
double-counting a long-lived worker.

The ``sabotage`` directive is the built-in fault drill (SIGKILL self,
hang, exit nonzero), applied per attempt before the task runs.  It is an
executor option, never part of the task payload, so fingerprints and
journals are untouched by drills.
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO

from repro import obs
from repro.errors import ExecError
from repro.exec.protocol import (
    DETERMINISTIC_ERRORS,
    EXEC_SCHEMA,
    READY,
    SABOTAGE_MODES,
    apply_sabotage,
)
from repro.exec.registry import resolve, resolve_span

__all__ = [
    "EXEC_SCHEMA",
    "SABOTAGE_MODES",
    "DETERMINISTIC_ERRORS",
    "apply_sabotage",
    "serve_request",
    "serve",
    "main",
]


def _respond(out: IO[str], response: dict) -> None:
    out.write(json.dumps(response) + "\n")
    out.flush()


def serve_request(request: dict) -> dict:
    """Run one request to a response document (no I/O; testable inline)."""
    key = request.get("key")
    attempt = int(request.get("attempt", 0))
    kind = request.get("kind")
    payload = request.get("payload")
    started = time.perf_counter()
    try:
        if not isinstance(kind, str):
            raise ExecError(f"request kind must be a string, got {kind!r}")
        if not isinstance(payload, dict):
            raise ExecError("request payload must be a JSON object")
        runner = resolve(kind)
        span_fn = resolve_span(kind)
        if span_fn is not None:
            category, name, attrs = span_fn(payload, attempt)
            with obs.get_tracer(category).span(name, **dict(attrs)):
                result = runner(payload)
        else:
            result = runner(payload)
    except DETERMINISTIC_ERRORS as exc:
        return {
            "schema": EXEC_SCHEMA,
            "key": key,
            "error": f"{type(exc).__name__}: {exc}",
        }
    wall = time.perf_counter() - started
    response: dict = {
        "schema": EXEC_SCHEMA,
        "key": key,
        "result": result,
        "wall_seconds": round(wall, 6),
    }
    if obs.enabled():
        response["obs"] = {
            "wall_seconds": round(wall, 6),
            "spans": obs.span_records(),
            "metrics": obs.metrics_snapshot(),
        }
    return response


def serve(stdin: IO[str], stdout: IO[str]) -> int:
    """Serve requests until EOF on stdin.  Returns the exit code."""
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            _respond(stdout, {
                "schema": EXEC_SCHEMA,
                "key": None,
                "error": "worker request is not valid JSON",
            })
            continue
        apply_sabotage(request.get("sabotage"), int(request.get("attempt", 0)))
        # The parent's correlation id (task fingerprint) crosses the
        # protocol in the request so this worker's spans and log records
        # join the fleet-wide telemetry on the same key.
        corr = request.get("corr")
        with obs.correlation(corr if isinstance(corr, str) else None):
            _respond(stdout, serve_request(request))
        if obs.enabled():
            # Delta semantics: the next response must carry only what the
            # next task records.
            obs.reset()
            obs.configure(enabled=True)
    return 0


def main() -> int:
    _respond(sys.stdout, READY)
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
