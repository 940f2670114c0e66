"""Campaign shard task: the ``campaign.shard`` runner for repro.exec.

:func:`run_shard_task` / :func:`shard_task_span` are the registry entries
the generic execution substrate resolves — the persistent worker pool
(:mod:`repro.exec.worker`) and the queue workers call them for every
``campaign.shard`` task, wrapping the run in a ``campaign.worker_shard``
span.  Sabotage drills (SIGKILL self, hang, exit nonzero) live in
:mod:`repro.exec.protocol`.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.campaign.shard import run_shard
from repro.campaign.spec import ShardSpec
from repro.errors import ReproError

__all__ = [
    "run_shard_task",
    "shard_task_span",
]


def run_shard_task(payload: dict) -> dict:
    """Registry runner for ``campaign.shard``: payload holds the shard JSON."""
    return run_shard(ShardSpec.from_json(payload["shard"]))


def shard_task_span(
    payload: dict, attempt: int
) -> tuple[str, str, Mapping[str, Any]]:
    """Worker-span factory for ``campaign.shard`` tasks."""
    shard = payload.get("shard") or {}
    attrs: dict[str, Any] = {
        "shard": shard.get("index"),
        "circuit": shard.get("circuit"),
        "attempt": attempt,
    }
    try:
        attrs["mode"] = ShardSpec.from_json(shard).mode_key
    except ReproError:
        pass
    return ("campaign", "campaign.worker_shard", attrs)
