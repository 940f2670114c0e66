"""The executor backends: retry loop, drills, breaker, pool reuse, obs.

Process-pool cases spawn real worker subprocesses; the drills SIGKILL,
hang, and exit them for real — the suite is the executor's crash-isolation
contract, mirroring what the campaign resilience tests prove end-to-end.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.errors import ExecError
from repro.exec import (
    BreakerPolicy,
    InlineExecutor,
    ProcessPoolExecutor,
    RetryPolicy,
    Task,
    available_backends,
    default_worker_count,
    make_executor,
    validated_jobs,
)
from repro.exec.executors import SPAWN_TIMEOUT

NO_BACKOFF = RetryPolicy(max_retries=3, backoff_base=0.0, backoff_jitter=0.0)


def probe(key, **payload) -> Task:
    return Task(kind="exec.probe", payload=payload, key=key)


@pytest.fixture
def pool():
    executor = ProcessPoolExecutor(
        workers=1, retry=NO_BACKOFF, task_timeout=60.0
    )
    yield executor
    executor.close()


class TestConfiguration:
    def test_available_backends(self):
        assert available_backends() == ("inline", "process", "queue")

    def test_default_worker_count_positive_and_capped(self):
        assert 1 <= default_worker_count() <= 8

    def test_validated_jobs(self):
        assert validated_jobs(0) == 0
        assert validated_jobs(3) == 3
        with pytest.raises(ExecError, match="must be >= 0"):
            validated_jobs(-1)
        with pytest.raises(ExecError, match="must be an integer"):
            validated_jobs("many")

    def test_make_executor_mapping(self, tmp_path):
        with make_executor(0) as ex:
            assert isinstance(ex, InlineExecutor)
        with make_executor(2) as ex:
            assert isinstance(ex, ProcessPoolExecutor)
            assert ex.workers == 2
        with make_executor(
            1, backend="queue", queue_dir=tmp_path / "q"
        ) as ex:
            from repro.exec import QueueExecutor

            assert isinstance(ex, QueueExecutor)
        with pytest.raises(ExecError):
            make_executor(-2)
        with pytest.raises(ExecError, match="queue_dir"):
            make_executor(1, backend="queue")
        for unknown in ("thread", "carrier-pigeon"):
            with pytest.raises(ExecError, match="unknown executor backend"):
                make_executor(1, backend=unknown)

    def test_bad_worker_counts(self):
        with pytest.raises(ExecError):
            ProcessPoolExecutor(workers=0)

    def test_bad_timeout(self):
        with pytest.raises(ExecError, match="must be positive"):
            InlineExecutor(task_timeout=0.0)


class TestInline:
    def test_runs_in_this_process(self):
        with InlineExecutor() as ex:
            report = ex.run([probe("a", value=1), probe("b", value=2)])
        assert report.complete
        assert report.results["a"].value["value"] == 1
        assert report.results["a"].value["pid"] == os.getpid()
        assert report.attempts == 2

    def test_duplicate_keys_rejected(self):
        with InlineExecutor() as ex:
            with pytest.raises(ExecError, match="unique"):
                ex.run([probe("a"), probe("a")])

    def test_sabotage_rejected(self):
        with InlineExecutor() as ex:
            with pytest.raises(ExecError, match="process backend"):
                ex.run([probe("a")], sabotage={"a": {"mode": "kill"}})

    def test_deterministic_error_quarantines_without_retry(self):
        settled = []
        with InlineExecutor(retry=NO_BACKOFF) as ex:
            report = ex.run(
                [probe("bad", **{"raise": "boom"}), probe("good", value=7)],
                on_result=settled.append,
            )
        bad = report.results["bad"]
        assert bad.outcome == "quarantined"
        assert bad.attempts == 1
        assert "ExecError: boom" in bad.error
        assert report.results["good"].ok
        assert not report.complete
        assert report.quarantined.keys() == {"bad"}
        assert [r.task.key for r in settled] == ["bad", "good"]

    def test_breaker_stops_dispatch(self):
        events = []
        ex = InlineExecutor(
            retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(max_consecutive_failures=2),
            events=lambda ev, task, msg, info: events.append((ev, task.key)),
        )
        tasks = [probe(i, **{"raise": "bad env"}) for i in range(4)]
        report = ex.run(tasks)
        assert report.breaker_reason is not None
        assert "2 consecutive" in report.breaker_reason
        # The first two tasks fail and quarantine; the trip stops dispatch
        # before tasks 2 and 3 ever start.
        assert report.results[0].outcome == "quarantined"
        assert report.results[1].outcome == "quarantined"
        assert 2 not in report.results and 3 not in report.results
        assert ("breaker", 1) in events

    def test_success_resets_breaker_streak(self):
        ex = InlineExecutor(
            retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(max_consecutive_failures=2),
        )
        tasks = [
            probe("f1", **{"raise": "x"}),
            probe("ok", value=1),
            probe("f2", **{"raise": "x"}),
            probe("tail", value=2),
        ]
        report = ex.run(tasks)
        assert report.breaker_reason is None
        assert report.results["tail"].ok


class TestProcessPool:
    def test_worker_reused_across_tasks(self, pool):
        report = pool.run([probe(i, value=i) for i in range(4)])
        assert report.complete
        pids = {r.value["pid"] for r in report.results.values()}
        assert len(pids) == 1
        assert os.getpid() not in pids

    def test_kill_drill_retries_then_succeeds(self, pool):
        events = []
        pool.events = lambda ev, task, msg, info: events.append(ev)
        report = pool.run(
            [probe("a", value=1)],
            sabotage={"a": {"mode": "kill", "attempts": 1}},
        )
        result = report.results["a"]
        assert result.ok
        assert result.attempts == 2
        assert "killed by signal 9" in result.failures[0]
        assert events == [
            "attempt-started", "attempt-failed", "retry",
            "attempt-started", "task-done",
        ]

    def test_exit_drill_reports_code(self, pool):
        report = pool.run(
            [probe("a", value=1)],
            sabotage={"a": {"mode": "exit", "code": 7, "attempts": 1}},
        )
        result = report.results["a"]
        assert result.ok and result.attempts == 2
        assert "exited 7" in result.failures[0]

    def test_hang_drill_times_out_then_succeeds(self, pool):
        pool.task_timeout = 0.5
        report = pool.run(
            [probe("a", value=1)],
            sabotage={"a": {"mode": "hang", "seconds": 60, "attempts": 1}},
        )
        result = report.results["a"]
        assert result.ok and result.attempts == 2
        assert "timed out after 0.5s" in result.failures[0]

    def test_task_timeout_excludes_worker_startup(self):
        # The clock starts at the worker's ready line: a budget far below
        # interpreter start-up still fits a task that itself is instant.
        with ProcessPoolExecutor(
            workers=1, retry=NO_BACKOFF, task_timeout=0.05
        ) as ex:
            report = ex.run([probe("a", value=1)])
        result = report.results["a"]
        assert result.ok and result.attempts == 1

    def test_unrelenting_failure_quarantines(self, pool):
        pool.retry = RetryPolicy(
            max_retries=1, backoff_base=0.0, backoff_jitter=0.0
        )
        report = pool.run(
            [probe("a", value=1)], sabotage={"a": {"mode": "kill"}}
        )
        result = report.results["a"]
        assert result.outcome == "quarantined"
        assert result.attempts == 2
        assert "killed by signal 9" in result.error

    def test_deterministic_error_keeps_worker_alive(self, pool):
        first = pool.run([probe("warm", value=0)])
        pid = first.results["warm"].value["pid"]
        report = pool.run([probe("bad", **{"raise": "nope"})])
        bad = report.results["bad"]
        assert bad.outcome == "quarantined"
        assert bad.attempts == 1
        assert "ExecError: nope" in bad.error
        again = pool.run([probe("after", value=1)])
        assert again.results["after"].value["pid"] == pid

    def test_closed_pool_rejected(self):
        ex = ProcessPoolExecutor(workers=1)
        ex.close()
        with pytest.raises(ExecError, match="closed"):
            ex.run([probe("a")])
        ex.close()  # idempotent


class TestRespawnBackoff:
    """Worker respawns back off exponentially and are metered."""

    def test_delay_schedule_follows_retry_policy(self):
        retry = RetryPolicy(
            max_retries=3, backoff_base=0.1, backoff_cap=0.4,
            backoff_jitter=0.0,
        )
        ex = ProcessPoolExecutor(workers=1, retry=retry)
        try:
            delays = []
            for n in range(5):
                ex._respawns[0] = n
                delays.append(ex._respawn_delay(0))
        finally:
            ex.close()
        # First spawn free, then base * 2^(n-1) capped at backoff_cap.
        assert delays == [0.0, 0.1, 0.2, 0.4, 0.4]

    def test_spawn_failure_is_a_metered_retryable_attempt(self, monkeypatch):
        obs.configure(enabled=True)

        def exploding_handle(*args, **kwargs):
            raise OSError("out of file descriptors")

        monkeypatch.setattr(
            "repro.exec.executors._WorkerHandle", exploding_handle
        )
        with ProcessPoolExecutor(
            workers=1, retry=NO_BACKOFF, task_timeout=10.0
        ) as ex:
            report = ex.run([probe("a", value=1)])
        result = report.results["a"]
        assert result.outcome == "quarantined"
        assert "worker spawn failed" in result.error
        assert result.attempts == NO_BACKOFF.max_retries + 1
        snap = obs.metrics_snapshot()
        respawns = snap["metrics"]["repro_exec_respawns_total"]["series"]
        assert respawns["backend=process,outcome=spawn-failed"] == (
            NO_BACKOFF.max_retries + 1
        )

    def test_worker_missing_ready_bound_is_a_spawn_failure(self, monkeypatch):
        obs.configure(enabled=True)
        monkeypatch.setattr("repro.exec.executors.SPAWN_TIMEOUT", 1e-6)
        retry = RetryPolicy(max_retries=1, backoff_base=0.0, backoff_jitter=0.0)
        with ProcessPoolExecutor(workers=1, retry=retry) as ex:
            report = ex.run([probe("a", value=1)])
            assert ex._handles == [None]
        result = report.results["a"]
        assert result.outcome == "quarantined"
        assert result.attempts == 2
        assert "worker spawn failed: worker not ready after" in result.error
        snap = obs.metrics_snapshot()
        respawns = snap["metrics"]["repro_exec_respawns_total"]["series"]
        assert respawns["backend=process,outcome=spawn-failed"] == 2

    def test_respawn_after_kill_is_metered_and_resets(self, pool):
        obs.configure(enabled=True)
        report = pool.run(
            [probe("a", value=1)],
            sabotage={"a": {"mode": "kill", "attempts": 1}},
        )
        assert report.results["a"].ok
        snap = obs.metrics_snapshot()
        respawns = snap["metrics"]["repro_exec_respawns_total"]["series"]
        assert respawns["backend=process,outcome=respawned"] == 1
        # A healthy attempt resets the backoff streak.
        assert pool._respawns == [0]


class TestObservability:
    def _series(self, snapshot, name):
        return snapshot["metrics"][name]["series"]

    def test_inline_counters_and_histogram(self):
        obs.configure(enabled=True)
        with InlineExecutor(retry=NO_BACKOFF) as ex:
            ex.run([probe("a", value=1), probe("bad", **{"raise": "x"})])
        snap = obs.metrics_snapshot()
        tasks = self._series(snap, "repro_exec_tasks_total")
        assert tasks["backend=inline,outcome=done"] == 1
        assert tasks["backend=inline,outcome=quarantined"] == 1
        wall = self._series(snap, "repro_exec_task_wall_seconds")
        assert wall["backend=inline"]["count"] == 2

    def test_process_pool_merges_worker_telemetry(self):
        obs.configure(enabled=True)
        with ProcessPoolExecutor(
            workers=1, retry=NO_BACKOFF, task_timeout=60.0
        ) as ex:
            report = ex.run([probe("a", value=1)])
        result = report.results["a"]
        assert result.worker_obs is not None
        assert "metrics" in result.worker_obs
        snap = obs.metrics_snapshot()
        tasks = self._series(snap, "repro_exec_tasks_total")
        assert tasks["backend=process,outcome=done"] == 1

    def test_process_pool_meters_spawn_to_ready(self):
        obs.configure(enabled=True)
        with ProcessPoolExecutor(
            workers=1, retry=NO_BACKOFF, task_timeout=60.0
        ) as ex:
            report = ex.run(
                [probe("a", value=1)],
                sabotage={"a": {"mode": "kill", "attempts": 1}},
            )
        assert report.results["a"].ok
        spawn = self._series(obs.metrics_snapshot(), "repro_exec_spawn_seconds")
        # The first worker and its respawn after the kill.
        assert list(spawn) == ["backend=process"]
        assert spawn["backend=process"]["count"] == 2
        assert 0 < spawn["backend=process"]["sum"] < 2 * SPAWN_TIMEOUT

    def test_spawn_is_not_metered_when_disabled(self, pool):
        report = pool.run([probe("a", value=1)])
        assert report.results["a"].ok
        assert "repro_exec_spawn_seconds" not in obs.metrics_snapshot()["metrics"]

    def test_malformed_worker_telemetry_never_fails_the_task(self):
        obs.configure(enabled=True)
        events = []
        with InlineExecutor(retry=NO_BACKOFF) as ex:
            ex.events = lambda *a: events.append(a)
            # Spans that are not a list and metrics whose series are not
            # mappings: both must be swallowed, counted, and surfaced as
            # a telemetry-drop event — never raised.
            ex._ingest_worker_obs(probe("a"), {"spans": 42})
            ex._ingest_worker_obs(
                probe("b"), {"metrics": {"bogus": 7}}
            )
        snap = obs.metrics_snapshot()
        drops = self._series(snap, "repro_exec_telemetry_drops_total")
        assert drops["backend=inline"] == 2
        assert [e[0] for e in events] == ["telemetry-drop", "telemetry-drop"]

    def test_task_spans_record_outcome(self):
        obs.configure(enabled=True)
        with InlineExecutor(retry=NO_BACKOFF) as ex:
            ex.run([
                Task(
                    kind="exec.probe",
                    payload={"value": 1},
                    key="a",
                    span_name="test.task",
                    span_attrs={"flavor": "plain"},
                )
            ])
        spans = [
            r for r in obs.span_records() if r["name"] == "test.task"
        ]
        assert len(spans) == 1
        assert spans[0]["args"]["outcome"] == "done"
        assert spans[0]["args"]["attempts"] == 1
        assert spans[0]["args"]["flavor"] == "plain"
