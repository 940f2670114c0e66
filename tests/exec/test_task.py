"""Tasks, fingerprints, policies, and the kind registry."""

from __future__ import annotations

import pytest

from repro.errors import ExecError
from repro.exec import (
    BreakerPolicy,
    RetryPolicy,
    Task,
    canonical_json,
    register_task_kind,
    registered_kinds,
    resolve,
    resolve_span,
)


def probe(value=None, **extra) -> Task:
    payload = {"value": value, **extra}
    return Task(kind="exec.probe", payload=payload, key=str(value))


class TestFingerprint:
    def test_content_addressed(self):
        a = Task(kind="exec.probe", payload={"value": 1}, key="a")
        b = Task(kind="exec.probe", payload={"value": 1}, key="b")
        assert a.fingerprint() == b.fingerprint()

    def test_payload_changes_it(self):
        a = Task(kind="exec.probe", payload={"value": 1}, key="a")
        b = Task(kind="exec.probe", payload={"value": 2}, key="a")
        assert a.fingerprint() != b.fingerprint()

    def test_kind_changes_it(self):
        a = Task(kind="exec.probe", payload={}, key="a")
        b = Task(kind="campaign.shard", payload={}, key="a")
        assert a.fingerprint() != b.fingerprint()

    def test_display_hints_excluded(self):
        plain = Task(kind="exec.probe", payload={"value": 1}, key="a")
        traced = Task(
            kind="exec.probe",
            payload={"value": 1},
            key="a",
            span_name="fancy",
            span_category="spcf",
            span_attrs={"output": "y"},
            attempt_attrs={"shard": 3},
        )
        assert plain.fingerprint() == traced.fingerprint()

    def test_key_order_irrelevant(self):
        a = Task(kind="exec.probe", payload={"a": 1, "b": 2}, key="k")
        b = Task(kind="exec.probe", payload={"b": 2, "a": 1}, key="k")
        assert a.fingerprint() == b.fingerprint()

    def test_unserializable_payload_rejected(self):
        task = Task(kind="exec.probe", payload={"bad": object()}, key="k")
        with pytest.raises(ExecError, match="JSON-serializable"):
            task.fingerprint()

    def test_empty_kind_rejected(self):
        with pytest.raises(ExecError, match="non-empty"):
            Task(kind="", payload={}, key="k")


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ExecError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ExecError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ExecError):
            RetryPolicy(backoff_jitter=-1.0)

    def test_delay_deterministic(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_jitter=0.25)
        task = probe(1)
        assert policy.delay(task, 0) == policy.delay(task, 0)

    def test_delay_bounds_and_growth(self):
        policy = RetryPolicy(
            backoff_base=0.5, backoff_cap=2.0, backoff_jitter=0.25
        )
        task = probe(1)
        for attempt, base in enumerate((0.5, 1.0, 2.0, 2.0)):
            delay = policy.delay(task, attempt)
            assert base <= delay <= base * 1.25

    def test_zero_base_means_no_sleep(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.delay(probe(1), 3) == 0.0


class TestBreakerPolicy:
    def test_validation(self):
        with pytest.raises(ExecError):
            BreakerPolicy(max_consecutive_failures=0)

    def test_trip_threshold(self):
        policy = BreakerPolicy(max_consecutive_failures=3)
        assert policy.trip_reason(2, "boom") is None
        reason = policy.trip_reason(3, "boom")
        assert reason is not None
        assert "3 consecutive" in reason and "boom" in reason


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_kinds()
        assert "exec.probe" in kinds
        assert "campaign.shard" in kinds
        assert list(kinds) == sorted(kinds)

    def test_resolve_runner_and_span(self):
        assert callable(resolve("exec.probe"))
        assert resolve_span("exec.probe") is None
        assert callable(resolve_span("campaign.shard"))

    def test_unknown_kind(self):
        with pytest.raises(ExecError, match="unknown task kind"):
            resolve("no.such.kind")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExecError, match="already registered"):
            register_task_kind("exec.probe", "repro.exec.drills:run_probe")

    def test_bad_import_reference_rejected(self):
        with pytest.raises(ExecError, match="module:attr"):
            register_task_kind("test.bad", "not-an-import-string")

    def test_register_and_replace(self):
        register_task_kind(
            "test.echo", "repro.exec.drills:run_probe", replace=True
        )
        assert callable(resolve("test.echo"))
        register_task_kind(
            "test.echo", "repro.exec.drills:run_probe", replace=True
        )

    def test_unloadable_reference_reported(self):
        register_task_kind(
            "test.ghost", "repro.no_such_module:fn", replace=True
        )
        with pytest.raises(ExecError, match="unloadable"):
            resolve("test.ghost")
