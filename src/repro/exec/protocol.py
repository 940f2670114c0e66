"""Wire-protocol constants and the sabotage drill.

Kept out of :mod:`repro.exec.worker` so that importing the package (which
happens inside every worker subprocess) never imports the module that
``python -m repro.exec.worker`` is about to execute — runpy would warn
about the double life otherwise.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro.errors import ReproError

#: Protocol version of the request/response documents.
EXEC_SCHEMA = 1

#: The first line a persistent worker writes, once its imports are done.
READY = {"schema": EXEC_SCHEMA, "ready": True}

#: Sabotage directives the drill understands.
SABOTAGE_MODES = ("kill", "hang", "exit")

#: Exceptions a runner can raise that mark the *task* (not the
#: environment) as broken: reported as data, never retried.
DETERMINISTIC_ERRORS = (ReproError, KeyError, TypeError, ValueError)


def apply_sabotage(directive: dict | None, attempt: int) -> None:
    """Carry out a fault drill if it applies to this attempt."""
    if not directive:
        return
    if attempt >= int(directive.get("attempts", 1 << 30)):
        return
    mode = directive.get("mode")
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(float(directive.get("seconds", 3600.0)))
    elif mode == "exit":
        sys.exit(int(directive.get("code", 3)))
    else:
        raise ValueError(
            f"unknown sabotage mode {mode!r}; choose from {SABOTAGE_MODES}"
        )


__all__ = [
    "EXEC_SCHEMA",
    "READY",
    "SABOTAGE_MODES",
    "DETERMINISTIC_ERRORS",
    "apply_sabotage",
]
