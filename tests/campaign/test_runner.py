"""The resilient runner: isolation, retries, quarantine, crash recovery.

Subprocess tests use the real persistent worker pool
(`python -m repro.exec.worker` running `campaign.shard` tasks) and real
SIGKILLs via the runner's sabotage drills, but keep specs tiny so
each worker attempt is cheap.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    CampaignSpec,
    RunnerConfig,
    load_journal,
    render_campaign_json,
    resume_campaign,
    run_campaign,
)
from repro.errors import CampaignError, CheckpointError

FAST = RunnerConfig(
    workers=1,
    task_timeout=60.0,
    max_retries=2,
    backoff_base=0.01,
    backoff_cap=0.05,
)
INLINE = RunnerConfig(workers=0, max_retries=0)


def tiny_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        circuits=("comparator2",),
        modes=({"kind": "seu"},),
        shards_per_cell=2,
        vectors_per_shard=6,
        seed=13,
        clock_fraction=0.9,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def test_inline_run_completes(tmp_path):
    outcome = run_campaign(tiny_spec(), tmp_path / "c.jsonl", INLINE)
    assert outcome.complete
    assert outcome.aggregate["shards_done"] == 2
    assert outcome.aggregate["incomplete_shards"] == []
    assert outcome.stats["attempts"] == 2
    assert outcome.stats["aborted"] is None


def test_subprocess_matches_inline_bit_for_bit(tmp_path):
    spec = tiny_spec()
    inline = run_campaign(spec, tmp_path / "inline.jsonl", INLINE)
    isolated = run_campaign(spec, tmp_path / "isolated.jsonl", FAST)
    assert isolated.complete
    assert render_campaign_json(isolated.aggregate) == render_campaign_json(
        inline.aggregate
    )


def test_run_refuses_existing_checkpoint(tmp_path):
    path = tmp_path / "c.jsonl"
    run_campaign(tiny_spec(), path, INLINE)
    with pytest.raises(CheckpointError, match="already exists"):
        run_campaign(tiny_spec(), path, INLINE)


def test_sabotage_requires_isolation(tmp_path):
    with pytest.raises(CampaignError, match="isolated workers"):
        run_campaign(
            tiny_spec(), tmp_path / "c.jsonl", INLINE,
            sabotage={0: {"mode": "kill"}},
        )


def test_retry_absorbs_one_worker_sigkill(tmp_path):
    outcome = run_campaign(
        tiny_spec(), tmp_path / "c.jsonl", FAST,
        sabotage={0: {"mode": "kill", "attempts": 1}},
    )
    assert outcome.complete
    assert outcome.stats["attempts"] == 3  # one killed + two clean


def test_persistent_crash_quarantines_not_fails(tmp_path):
    outcome = run_campaign(
        tiny_spec(), tmp_path / "c.jsonl",
        RunnerConfig(workers=1, max_retries=1, backoff_base=0.01,
                     backoff_cap=0.02),
        sabotage={1: {"mode": "kill"}},
    )
    assert not outcome.complete
    assert outcome.stats["shards_quarantined"] == 1
    (entry,) = outcome.aggregate["incomplete_shards"]
    assert entry["shard"] == 1
    assert entry["status"] == "quarantined"
    assert entry["attempts"] == 2  # initial try + one retry
    assert "signal 9" in entry["error"]
    # The journal remembers the quarantine across processes.
    state = load_journal(tmp_path / "c.jsonl")
    assert 1 in state.quarantined


def test_timeout_kills_hung_worker(tmp_path):
    outcome = run_campaign(
        tiny_spec(), tmp_path / "c.jsonl",
        RunnerConfig(workers=1, task_timeout=1.5, max_retries=0),
        sabotage={0: {"mode": "hang"}},
    )
    assert not outcome.complete
    (entry,) = outcome.aggregate["incomplete_shards"]
    assert "timed out" in entry["error"]


def test_deterministic_shard_error_skips_retries(tmp_path):
    spec = tiny_spec(circuits=("comparator2", "no-such-circuit"))
    outcome = run_campaign(
        spec, tmp_path / "c.jsonl",
        RunnerConfig(workers=1, max_retries=3, backoff_base=0.01,
                     backoff_cap=0.02),
    )
    assert not outcome.complete
    bad = [e for e in outcome.aggregate["incomplete_shards"]
           if e["circuit"] == "no-such-circuit"]
    assert len(bad) == 2
    for entry in bad:
        assert entry["attempts"] == 1  # no retry budget burned on determinism
        assert "no-such-circuit" in entry["error"]


def test_circuit_breaker_aborts_broken_environment(tmp_path):
    outcome = run_campaign(
        tiny_spec(shards_per_cell=4), tmp_path / "c.jsonl",
        RunnerConfig(workers=1, max_retries=3, backoff_base=0.01,
                     backoff_cap=0.02, max_consecutive_failures=3),
        sabotage={i: {"mode": "kill"} for i in range(4)},
    )
    assert not outcome.complete
    assert outcome.stats["aborted"] is not None
    assert "circuit breaker" in outcome.stats["aborted"]
    assert outcome.stats["attempts"] <= 4  # breaker stopped the spin


def test_resume_after_worker_sigkill_is_bit_identical(tmp_path):
    """The headline guarantee: quarantine a SIGKILLed shard, resume, and
    the aggregate matches an uninterrupted campaign byte for byte."""
    spec = tiny_spec()
    baseline = run_campaign(spec, tmp_path / "baseline.jsonl", FAST)
    assert baseline.complete

    wounded = run_campaign(
        spec, tmp_path / "wounded.jsonl",
        RunnerConfig(workers=1, max_retries=0),
        sabotage={1: {"mode": "kill"}},
    )
    assert not wounded.complete

    healed = resume_campaign(tmp_path / "wounded.jsonl", FAST)
    assert healed.complete
    assert healed.stats["shards_previously_done"] == 1
    assert healed.stats["shards_run"] == 1
    assert render_campaign_json(healed.aggregate) == render_campaign_json(
        baseline.aggregate
    )


def test_resume_of_complete_campaign_runs_nothing(tmp_path):
    path = tmp_path / "c.jsonl"
    first = run_campaign(tiny_spec(), path, INLINE)
    again = resume_campaign(path, INLINE)
    assert again.complete
    assert again.stats["shards_run"] == 0
    assert render_campaign_json(again.aggregate) == render_campaign_json(
        first.aggregate
    )


_DRIVER = """
import sys
from repro.campaign import CampaignSpec, RunnerConfig, run_campaign

spec = CampaignSpec(**{spec!r})
run_campaign(
    spec,
    {checkpoint!r},
    RunnerConfig(workers=1, max_retries=0, task_timeout=120.0),
    sabotage={{2: {{"mode": "hang", "seconds": 60.0}}}},
)
"""


def test_resume_after_whole_process_sigkill_is_bit_identical(tmp_path):
    """SIGKILL the *campaign process* mid-run (not just a worker); the
    fsync'd journal must carry the finished shards into a resumed run whose
    aggregate is byte-identical to an uninterrupted one."""
    spec = tiny_spec(shards_per_cell=3)
    baseline = run_campaign(spec, tmp_path / "baseline.jsonl", FAST)
    assert baseline.complete

    checkpoint = tmp_path / "killed.jsonl"
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    driver = subprocess.Popen(
        [sys.executable, "-c",
         _DRIVER.format(spec=spec.to_json(), checkpoint=str(checkpoint))],
        env=env,
    )
    try:
        # Shards 0 and 1 complete; the drill hangs the worker on shard 2,
        # pinning the driver mid-campaign with real progress journaled.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if checkpoint.exists():
                done = sum(
                    1 for line in checkpoint.read_text().splitlines()
                    if '"kind":"shard"' in line
                )
                if done >= 2:
                    break
            time.sleep(0.05)
        else:
            pytest.fail("driver never journaled the first two shards")
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=30)
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait(timeout=30)

    state = load_journal(checkpoint)
    assert len(state.results) >= 2

    healed = resume_campaign(checkpoint, FAST)
    assert healed.complete
    assert render_campaign_json(healed.aggregate) == render_campaign_json(
        baseline.aggregate
    )


def test_aggregate_json_is_canonical(tmp_path):
    outcome = run_campaign(tiny_spec(), tmp_path / "c.jsonl", INLINE)
    text = render_campaign_json(outcome.aggregate)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
