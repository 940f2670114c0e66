"""Observability handles for the execution substrate.

One module owns the tracer and instruments so every backend agrees on
names and labels:

* ``repro_exec_tasks_total{backend, outcome}`` — tasks finished, by
  terminal outcome (``done`` / ``quarantined`` / ``stopped``),
* ``repro_exec_task_wall_seconds{backend}`` — wall seconds per finished
  task, including retries and backoff sleeps,
* ``repro_exec_respawns_total{backend, outcome}`` — worker subprocess
  respawns (``respawned``) and failed spawn attempts (``spawn-failed``),
* ``repro_exec_spawn_seconds{backend}`` — wall seconds from starting a
  pool worker subprocess to its ``ready`` line (successful spawns only),
* ``repro_exec_telemetry_drops_total{backend}`` — worker telemetry
  payloads dropped because they would not ingest (the task result is
  kept; only the spans/metrics are lost),
* the queue backend's protocol counters
  (``repro_exec_queue_{claims,steals,dedups,divergences}_total``) and the
  per-worker ``repro_exec_queue_heartbeat_age_seconds{worker}`` gauge,
* the live-telemetry digest the queue coordinator republishes from the
  tailed worker streams: ``repro_fleet_rate_tasks_per_second{worker}``,
  ``repro_fleet_eta_seconds``, ``repro_fleet_worker_straggler{worker}``,
  and ``repro_exec_flight_dumps_total{trigger}``.

All are published by the executor on the parent side regardless of
backend, so worker metric snapshots merge commutatively on top without
double-counting (workers never run an executor themselves).
"""

from __future__ import annotations

from repro import obs

TRACER = obs.get_tracer("exec")
METER = obs.get_meter()

TASKS = METER.counter(
    "repro_exec_tasks_total",
    "tasks finished by the execution substrate (labels: backend, outcome)",
)
TASK_SECONDS = METER.histogram(
    "repro_exec_task_wall_seconds",
    "wall seconds per finished task, retries and backoff included",
)
RESPAWNS = METER.counter(
    "repro_exec_respawns_total",
    "worker subprocess respawns (labels: backend, outcome = "
    "respawned / spawn-failed)",
)
SPAWN_SECONDS = METER.histogram(
    "repro_exec_spawn_seconds",
    "wall seconds from starting a worker subprocess to its ready line "
    "(label: backend)",
)
TELEMETRY_DROPS = METER.counter(
    "repro_exec_telemetry_drops_total",
    "worker telemetry payloads that failed to ingest and were dropped "
    "(label: backend); the task result is unaffected",
)
QUEUE_CLAIMS = METER.counter(
    "repro_exec_queue_claims_total",
    "work-queue tasks claimed via atomic rename",
)
QUEUE_STEALS = METER.counter(
    "repro_exec_queue_steals_total",
    "expired leases reclaimed from dead or wedged workers "
    "(label: action = requeued / quarantined)",
)
QUEUE_DEDUPS = METER.counter(
    "repro_exec_queue_dedups_total",
    "duplicate completions absorbed by first-write-wins result dedup",
)
QUEUE_DIVERGENCES = METER.counter(
    "repro_exec_queue_divergences_total",
    "duplicate completions whose canonical result payload differed "
    "(determinism bug, surfaced not overwritten)",
)
QUEUE_HEARTBEAT_AGE = METER.gauge(
    "repro_exec_queue_heartbeat_age_seconds",
    "seconds since each queue worker's last heartbeat (label: worker)",
)
FLEET_RATE = METER.gauge(
    "repro_fleet_rate_tasks_per_second",
    "trailing-window task throughput (label: worker; unlabelled = fleet)",
)
FLEET_ETA = METER.gauge(
    "repro_fleet_eta_seconds",
    "estimated seconds to drain the queue at the current fleet rate",
)
FLEET_STRAGGLER = METER.gauge(
    "repro_fleet_worker_straggler",
    "1 when the worker's p90 wall exceeds 2x the fleet p90 (label: worker)",
)
FLIGHT_DUMPS = METER.counter(
    "repro_exec_flight_dumps_total",
    "flight-recorder dumps written (label: trigger = quarantine / "
    "breaker / crash)",
)
