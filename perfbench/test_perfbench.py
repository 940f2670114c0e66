"""Tests of the benchmark's own code.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------- self time


def test_self_time_on_nested_and_recursive_calls():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def leaf():
        clock.tick(2.0)

    def recursive(depth):
        clock.tick(1.0)
        if depth:
            t.call("rec", recursive, depth - 1)  # re-entry: merged, counted once
        else:
            t.call("leaf", leaf)

    def outer():
        clock.tick(0.5)
        t.call("rec", recursive, 2)
        t.call("leaf", leaf)
        clock.tick(0.25)

    t.call("outer", outer)
    assert t.calls == {"outer": 1, "rec": 1, "leaf": 2}
    assert t.self_s["outer"] == pytest.approx(0.75)
    assert t.self_s["rec"] == pytest.approx(3.0)
    assert t.self_s["leaf"] == pytest.approx(4.0)
    # Self times add up to the wall time of the root call, with no overlap.
    assert sum(t.self_s.values()) == pytest.approx(clock.now)
    assert t.reached[("outer", "rec")] == 1
    assert t.reached[("rec", "leaf")] == 1


def test_indirect_reentry_is_a_separate_frame():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def a(depth):
        clock.tick(1.0)
        if depth:
            t.call("b", b, depth)

    def b(depth):
        clock.tick(10.0)
        t.call("a", a, depth - 1)

    t.call("a", a, 1)
    assert t.calls == {"a": 2, "b": 1}
    assert t.self_s["a"] == pytest.approx(2.0)
    assert t.self_s["b"] == pytest.approx(10.0)


def test_exceptions_close_the_frame():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def boom():
        clock.tick(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        t.call("x", boom)
    assert t.current is None
    assert t.self_s["x"] == pytest.approx(1.0)


def test_hit_rate_counts_calls_without_the_probe_layer():
    t = tracer.Tracer(FakeClock())
    probe_parent, probe_child = next(iter(tracer.HIT_PROBES.items()))
    t.call(probe_parent, lambda: None)
    t.call(probe_parent, lambda: t.call(probe_child, lambda: None))
    t.call(probe_parent, lambda: None)
    t.call(probe_parent, lambda: None)
    assert t.hit_rate(probe_parent) == pytest.approx(0.75)


def test_install_wraps_every_binding_and_methods():
    pkg = types.ModuleType("fakepkg")
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Thing:
        def method(self):
            return user.work(1)

    base.work = work
    base.Thing = Thing
    user.work = work  # as ``from fakepkg.base import work`` would bind it
    modules = {"fakepkg": pkg, "fakepkg.base": base, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        t = tracer.Tracer()
        restore = tracer.install(
            t,
            layers={"w": ("fakepkg.base:work",), "m": ("fakepkg.base:Thing.method",)},
            package="fakepkg",
        )
        assert user.work(1) == 2 and base.work(2) == 3
        assert Thing().method() == 2
        assert t.calls == {"w": 3, "m": 1}
        restore()
        assert user.work is work and base.work is work
        assert Thing.__dict__["method"].__name__ == "method"
    finally:
        for name in modules:
            del sys.modules[name]


def test_bdd_counter_attributes_managers_to_the_innermost_layer():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.bdd.manager import BddManager
    finally:
        sys.path.remove(str(ROOT / "src"))
    t = tracer.Tracer()
    counter = tracer.BddCounter(t)
    restore = counter.install()
    try:
        def build():
            mgr = BddManager(["a", "b"])
            return mgr.var("a") & mgr.var("b")

        kept = t.call("outer", lambda: t.call("inner", build))
        dropped = BddManager(["c"])
        del dropped
        gc.collect()
        counter.finish()
    finally:
        restore()
    assert counter.managers == 2
    assert counter.by_layer == {"inner": 1}
    assert counter.nodes == kept.manager.num_nodes + 3
    assert counter.op_calls > 0
    assert not hasattr(BddManager, "__del__")


# --------------------------------------------------------------- correctness


class FakeReport:
    critical_outputs = 1
    critical_minterms = 12
    slack_percent = 96.648045123
    area_overhead_percent = 0.481540931
    power_overhead_percent = -8.456265848531248e-14
    coverage_percent = 100.0


def test_table2_rows_are_rounded_and_float_residues_vanish():
    row = workloads.table2_row(FakeReport())
    assert row["power_pct"] == 0.0 and str(row["power_pct"]) == "0.0"
    assert row["slack_pct"] == 96.648045
    assert workloads.row_problems("c", row, {"c": dict(row)}) == []


@pytest.mark.parametrize(
    "column, value",
    [("critical_outputs", 2), ("critical_minterms", 13), ("area_pct", 0.481542),
     ("coverage_pct", 99.0)],
)
def test_a_perturbed_table2_row_is_detected(column, value):
    recorded = workloads.load_expected()["table2"]
    name = "C2670"
    row = dict(recorded[name])
    row[column] = value
    problems = workloads.row_problems(name, row, recorded)
    assert len(problems) == 1 and column in problems[0]
    assert workloads.row_problems("nope", row, recorded)


def test_recorded_rows_cover_every_workload_circuit():
    expected = workloads.load_expected()
    for workload in workloads.WORKLOADS:
        for name in workloads.mask_order(workload, 0):
            assert name in expected["table2"]
    assert expected["campaign_seed"] == workloads.RECORDED_SEED


def test_a_perturbed_campaign_group_fails_its_shards():
    recorded = workloads.load_expected()["campaign_aggregate"]
    assert workloads.aggregate_problems(recorded, recorded) == ([], 0)
    changed = json.loads(json.dumps(recorded))
    changed["groups"][3]["masked_errors"] += 1
    problems, bad_shards = workloads.aggregate_problems(changed, recorded)
    assert len(problems) == 1
    assert bad_shards == recorded["groups"][3]["shards_total"]


def test_mask_order_is_a_seeded_permutation():
    assert workloads.mask_order("mask_suite", 3) == workloads.mask_order("mask_suite", 3)
    assert sorted(workloads.mask_order("mask_suite", 3)) == sorted(workloads.SUITE)
    assert workloads.mask_order("mask_suite", 3) != workloads.mask_order("mask_suite", 4)


# ------------------------------------------------------------------- metrics


def _benchmark() -> dict:
    return json.loads(run.BENCHMARK_PATH.read_text(encoding="utf-8"))


def test_metric_and_workload_names_use_the_allowed_characters():
    doc = _benchmark()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _fake_pass(wall: float) -> dict:
    return {
        "setup_s": 0.5, "wall_s": wall, "peak_rss_mb": 80.0, "attempted": 2,
        "failed": 0, "problems": [],
        "quality": {"area_overhead_pct": 30.0, "power_overhead_pct": 25.0},
        "layers": {"self_s": {"sta": 1.5, "synth.collapse": 6.0},
                   "calls": {"sta": 10, "synth.collapse": 1},
                   "hit_rate": {layer: 0.5 for layer in tracer.HIT_PROBES}},
        "bdd": {"managers": 3, "nodes": 40, "op_calls": 100, "hits": 6,
                "misses": 4, "by_layer": {"synth.collapse": 3}},
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_one_report_prints_every_metric_by_name_with_its_unit(trace, capsys):
    units = run.declared_metrics(bool(trace))
    if trace:
        fake = _fake_pass(8.0)
        values = run.per_layer_metrics(
            {"passes": [fake], "plain": fake, "base": fake, "traced": fake, "counts": [fake, fake],
             "spawn_s": 0.4, "cli_s": 0.5},
            attempted=10, failed=0,
        )
        assert values["trace.layer_share"] == pytest.approx(7.5 / 8.0)
        assert values["bdd.cache_hit_rate"] == pytest.approx(0.6)
    else:
        values = run.end_to_end_metrics([_fake_pass(w) for w in (9.0, 7.0, 8.0)], [0.5] * 5)
        assert values["wall_s"] == 8.0
    doc = run.result_document(values, units, correct=True, attempted=10, failed=0)
    run.print_report(doc, [])
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == doc
    table = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    assert table == units


def test_counts_that_do_not_repeat_are_reported():
    a, b = _fake_pass(1.0), _fake_pass(1.0)
    assert run.count_problems([a, b], a) == []
    b["bdd"] = dict(b["bdd"], nodes=41)
    assert run.count_problems([a, b], a)


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mask_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
