"""Distributed campaigns: queue backend, live status, adaptive sizing.

The invariant under test throughout: however the fleet behaves —
coordinator-inline, subprocess workers, workers SIGKILLed mid-lease —
the campaign aggregate is byte-identical to a plain single-host run.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro import obs
from repro.campaign import (
    CAMPAIGN_BACKENDS,
    CampaignSpec,
    RunnerConfig,
    ShardTiming,
    autoshard_spec,
    campaign_status,
    render_campaign_json,
    render_status_text,
    run_campaign,
    shard_timing,
    suggest_spec,
    watch_status,
)
from repro.campaign.checkpoint import load_journal
from repro.errors import CampaignError
from repro.exec import WorkQueue


def tiny_spec(**overrides) -> CampaignSpec:
    base = dict(
        circuits=("comparator2",),
        modes=({"kind": "delay"},),
        shards_per_cell=2,
        vectors_per_shard=8,
        seed=3,
        clock_fraction=0.9,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def queue_config(queue_dir, workers=0, **overrides) -> RunnerConfig:
    base = dict(
        workers=workers,
        task_timeout=30.0,
        max_retries=3,
        backoff_base=0.05,
        backoff_cap=0.2,
        backend="queue",
        queue_dir=str(queue_dir),
        lease_ttl=1.0,
    )
    base.update(overrides)
    return RunnerConfig(**base)


class TestRunnerConfigValidation:
    def test_queue_backend_requires_queue_dir(self):
        with pytest.raises(CampaignError, match="queue_dir"):
            RunnerConfig(backend="queue")

    def test_unknown_backend_rejected(self):
        for unknown in ("thread", "smoke-signals"):
            with pytest.raises(CampaignError, match="backend"):
                RunnerConfig(backend=unknown)

    def test_bad_lease_ttl_rejected(self):
        with pytest.raises(CampaignError, match="lease_ttl"):
            RunnerConfig(backend="queue", queue_dir="/q", lease_ttl=0.0)

    def test_backend_catalog(self):
        assert CAMPAIGN_BACKENDS == ("auto", "inline", "process", "queue")


class TestQueueBackendCampaign:
    def test_coordinator_inline_matches_plain_inline(self, tmp_path):
        spec = tiny_spec()
        inline = run_campaign(
            spec, tmp_path / "inline.ckpt.jsonl", RunnerConfig(workers=0)
        )
        queued = run_campaign(
            spec, tmp_path / "queued.ckpt.jsonl",
            queue_config(tmp_path / "q"),
        )
        assert inline.complete and queued.complete
        assert render_campaign_json(queued.aggregate) == render_campaign_json(
            inline.aggregate
        )
        assert queued.stats["backend"] == "queue"

    @pytest.mark.slow
    def test_mid_run_kill_still_byte_identical(self, tmp_path):
        spec = tiny_spec(shards_per_cell=3)
        inline = run_campaign(
            spec, tmp_path / "inline.ckpt.jsonl", RunnerConfig(workers=0)
        )
        chaotic = run_campaign(
            spec, tmp_path / "chaos.ckpt.jsonl",
            queue_config(tmp_path / "q", workers=2, task_timeout=10.0),
            sabotage={1: {"mode": "kill", "attempts": 1}},
        )
        assert chaotic.complete
        assert chaotic.aggregate["incomplete_shards"] == []
        assert render_campaign_json(
            chaotic.aggregate
        ) == render_campaign_json(inline.aggregate)
        counters = WorkQueue.open(tmp_path / "q").scan().counters
        assert counters["steals"] >= 1

    def test_sabotage_still_requires_isolated_workers(self, tmp_path):
        with pytest.raises(CampaignError, match="workers"):
            run_campaign(
                tiny_spec(), tmp_path / "c.ckpt.jsonl",
                queue_config(tmp_path / "q", workers=0),
                sabotage={0: {"mode": "kill"}},
            )


class TestCampaignStatus:
    def test_journal_only_status(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0))
        status = campaign_status(tmp_path / "c.ckpt.jsonl")
        assert status["shards_done"] == status["shards_total"] == 2
        assert status["percent"] == 100.0
        assert status["queue"] is None
        text = render_status_text(status)
        assert "2/2 shards done" in text
        assert "no queue directory" in text

    def test_queue_status_after_distributed_run(self, tmp_path):
        run_campaign(
            tiny_spec(), tmp_path / "c.ckpt.jsonl",
            queue_config(tmp_path / "q"),
        )
        status = campaign_status(tmp_path / "c.ckpt.jsonl", tmp_path / "q")
        queue = status["queue"]
        assert queue["results"] == 2
        assert queue["stopped"] is True
        assert queue["counters"]["claims"] >= 2
        # The coordinator-inline participant heartbeats like any worker.
        assert all(
            info["state"] in ("live", "exited")
            for info in queue["workers"].values()
        )
        text = render_status_text(status)
        assert "[stopped]" in text
        assert "counters:" in text

    def test_shard_indices_resolved_from_fingerprints(self, tmp_path):
        # Claim a shard by hand and check status names it by index.
        from repro.campaign.runner import _shard_task
        from repro.campaign.spec import plan_campaign
        from repro.exec.queuedir import QueuePolicy

        spec = tiny_spec()
        run_campaign(spec, tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0))
        queue = WorkQueue.create(tmp_path / "q", QueuePolicy(lease_ttl=5.0))
        shard = plan_campaign(spec)[1]
        fp = queue.publish_task(_shard_task(shard))
        queue.try_claim(fp, "w1", 0)
        queue.write_heartbeat("w1", "busy", current=fp)
        status = campaign_status(tmp_path / "c.ckpt.jsonl", tmp_path / "q")
        assert status["queue"]["leases"][0]["shard"] == 1
        assert status["queue"]["workers"]["w1"]["current_shard"] == 1
        assert "shard 1" in render_status_text(status)

    def test_watch_status_returns_when_settled(self, tmp_path, capsys):
        run_campaign(
            tiny_spec(), tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0)
        )
        assert watch_status(
            tmp_path / "c.ckpt.jsonl", None, interval=0.01, max_rounds=3
        ) == 0
        assert "2/2 shards done" in capsys.readouterr().out

    def test_watch_rejects_bad_interval(self, tmp_path):
        with pytest.raises(CampaignError, match="interval"):
            watch_status(tmp_path / "c.ckpt.jsonl", None, interval=0.0)

    # -- live telemetry and worker classification -------------------------

    def _telemetry_line(self, worker, seq, ts, done, walls=(), current=None):
        return json.dumps({
            "schema": 1, "ts": ts, "worker": worker, "seq": seq,
            "tasks_done": done, "walls": list(walls), "current": current,
            "delta": {"schema": 1, "metrics": {}},
        }) + "\n"

    def _crafted_queue(self, tmp_path):
        """Journal plus a hand-built queue: one claimed shard and two
        telemetry streams — w1 fast and steady, w2 slow (a straggler)."""
        from repro.campaign.runner import _shard_task
        from repro.campaign.spec import plan_campaign
        from repro.exec.queuedir import QueuePolicy

        spec = tiny_spec()
        ckpt = tmp_path / "c.ckpt.jsonl"
        run_campaign(spec, ckpt, RunnerConfig(workers=0))
        queue = WorkQueue.create(tmp_path / "q", QueuePolicy(lease_ttl=5.0))
        fp = queue.publish_task(_shard_task(plan_campaign(spec)[0]))
        queue.try_claim(fp, "w1", 0)
        queue.write_heartbeat("w1", "busy", tasks_done=40, current=fp)
        queue.write_heartbeat("w2", "idle", tasks_done=3)
        now = time.time()
        tdir = queue.root / "telemetry"
        tdir.mkdir(exist_ok=True)
        (tdir / "w1.jsonl").write_text(
            self._telemetry_line("w1", 1, now - 20.0, 0)
            + self._telemetry_line("w1", 2, now - 10.0, 20, walls=[1.0] * 20)
            + self._telemetry_line("w1", 3, now, 40, walls=[1.0] * 20,
                                   current=fp)
        )
        (tdir / "w2.jsonl").write_text(
            self._telemetry_line("w2", 1, now - 20.0, 0)
            + self._telemetry_line("w2", 2, now, 3, walls=[30.0] * 3)
        )
        return ckpt, queue

    def test_status_folds_live_telemetry(self, tmp_path):
        ckpt, queue = self._crafted_queue(tmp_path)
        status = campaign_status(ckpt, queue.root)
        telemetry = status["queue"]["telemetry"]
        # w1: 40 tasks over the 20s of samples; w2: 3 over the same span.
        assert telemetry["workers"]["w1"]["rate_per_second"] \
            == pytest.approx(2.0, rel=0.05)
        assert telemetry["workers"]["w1"]["straggler"] is False
        assert telemetry["workers"]["w2"]["straggler"] is True
        assert telemetry["fleet"]["stragglers"] == ["w2"]
        assert telemetry["fleet"]["remaining"] == 1  # the claimed shard
        assert telemetry["fleet"]["eta_seconds"] == pytest.approx(
            1 / telemetry["fleet"]["rate_per_second"], rel=1e-3
        )
        # Per-worker rows inherit rate and straggler flags.
        assert status["queue"]["workers"]["w1"]["rate_per_second"] \
            == telemetry["workers"]["w1"]["rate_per_second"]
        assert status["queue"]["workers"]["w2"]["straggler"] is True

    def test_status_text_renders_rate_eta_and_straggler_columns(
        self, tmp_path
    ):
        ckpt, queue = self._crafted_queue(tmp_path)
        text = render_status_text(campaign_status(ckpt, queue.root))
        assert "telemetry: throughput 2.15/s" in text
        assert ", eta " in text
        assert "stragglers: w2" in text
        w1_row = next(ln for ln in text.splitlines() if ln.strip()
                      .startswith("w1"))
        w2_row = next(ln for ln in text.splitlines() if ln.strip()
                      .startswith("w2"))
        assert "rate  2.00/s" in w1_row
        assert "STRAGGLER" not in w1_row
        assert "rate  0.15/s" in w2_row
        assert w2_row.rstrip().endswith("STRAGGLER")

    def test_status_without_telemetry_has_no_section(self, tmp_path):
        # REPRO_OBS off: no telemetry files, no telemetry line.
        run_campaign(
            tiny_spec(), tmp_path / "c.ckpt.jsonl",
            queue_config(tmp_path / "q"),
        )
        status = campaign_status(tmp_path / "c.ckpt.jsonl", tmp_path / "q")
        assert status["queue"]["telemetry"] is None
        assert "telemetry:" not in render_status_text(status)

    def test_watch_status_shows_telemetry(self, tmp_path, capsys):
        ckpt, queue = self._crafted_queue(tmp_path)
        assert watch_status(
            ckpt, queue.root, interval=0.01, max_rounds=1
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry: throughput" in out
        assert "STRAGGLER" in out

    def test_worker_classification_golden_text(self, tmp_path):
        from repro.campaign.runner import _shard_task
        from repro.campaign.spec import plan_campaign
        from repro.exec.queuedir import QueuePolicy

        spec = tiny_spec()
        ckpt = tmp_path / "c.ckpt.jsonl"
        run_campaign(spec, ckpt, RunnerConfig(workers=0))
        queue = WorkQueue.create(
            tmp_path / "q",
            QueuePolicy(lease_ttl=5.0, clock_skew_grace=0.5),
        )
        fp = queue.publish_task(_shard_task(plan_campaign(spec)[0]))
        queue.try_claim(fp, "live-w", 0)
        queue.write_heartbeat("live-w", "busy", current=fp)
        # Heartbeating, thinks it runs fp — but live-w holds the lease.
        queue.write_heartbeat("wedged-w", "busy", current=fp)
        # Heartbeat older than ttl+grace but younger than max_lease_age.
        queue.write_heartbeat("stale-w", "idle")
        hb = queue.root / "workers" / "stale-w.json"
        doc = json.loads(hb.read_text())
        doc["time"] = time.time() - 10.0
        hb.write_text(json.dumps(doc))

        status = campaign_status(ckpt, queue.root)
        workers = status["queue"]["workers"]
        assert workers["live-w"]["state"] == "live"
        assert workers["wedged-w"]["state"] == "wedged"
        assert workers["stale-w"]["state"] == "stale"
        text = render_status_text(status)
        lines = text.splitlines()
        start = next(i for i, ln in enumerate(lines)
                     if ln.startswith("workers ("))
        rows = [ln for ln in lines[start + 1:start + 4]]
        # Healthiest first, and each row names its classification.
        assert [row.split()[0] for row in rows] == [
            "live-w", "wedged-w", "stale-w"
        ]
        assert "live" in rows[0] and "wedged" in rows[1] \
            and "stale" in rows[2]


class TestAdaptiveSizing:
    def _timing(self, p50=1.0, p90=2.0, vectors=16) -> ShardTiming:
        return ShardTiming(
            samples=10, vectors_per_shard=vectors,
            p50_seconds=p50, p90_seconds=p90,
        )

    def test_journal_without_telemetry_is_an_error(self, tmp_path):
        run_campaign(
            tiny_spec(), tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0)
        )
        with pytest.raises(CampaignError, match="telemetry"):
            shard_timing(load_journal(tmp_path / "c.ckpt.jsonl"))

    def test_resize_preserves_total_work_exactly(self):
        spec = tiny_spec(shards_per_cell=4, vectors_per_shard=24)
        timing = self._timing(p90=4.8, vectors=24)  # p90 rate 0.2 s/vector
        resized = suggest_spec(spec, timing, target_shard_seconds=1.2)
        assert (
            resized.shards_per_cell * resized.vectors_per_shard
            == spec.shards_per_cell * spec.vectors_per_shard
        )
        # Ideal is 6 vectors/shard (1.2s / 0.2 s-per-vector); 6 divides
        # the 96-vector total exactly.
        assert resized.vectors_per_shard == 6
        assert resized.shards_per_cell == 16

    def test_resize_picks_nearest_divisor(self):
        spec = tiny_spec(shards_per_cell=2, vectors_per_shard=10)
        timing = self._timing(p90=10.0, vectors=10)  # 1 s/vector
        # Ideal 7 vectors is not a divisor of 20; nearest by log distance
        # among {1,2,4,5,10,20} is 5 (7/5 = 1.4 < 10/7 = 1.43).
        resized = suggest_spec(spec, timing, target_shard_seconds=7.0)
        assert resized.vectors_per_shard == 5

    def test_bad_target_rejected(self):
        with pytest.raises(CampaignError, match="positive"):
            suggest_spec(tiny_spec(), self._timing(), 0.0)

    def test_autoshard_from_obs_enabled_donor(self, tmp_path):
        obs.configure(enabled=True)
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "donor.ckpt.jsonl",
                     RunnerConfig(workers=0))
        # A huge target coalesces every cell into one maximal shard.
        resized, timing = autoshard_spec(
            spec, tmp_path / "donor.ckpt.jsonl",
            target_shard_seconds=3600.0,
        )
        assert timing.samples == 2
        assert timing.p90_seconds >= timing.p50_seconds > 0
        assert resized.vectors_per_shard == 16
        assert resized.shards_per_cell == 1
        # The resized spec is a valid spec (frozen dataclass round trip).
        assert dataclasses.replace(resized).fingerprint() == resized.fingerprint()
