"""Tests of the benchmark itself, on worlds small enough to run in seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import tracer
import worker

TINY = {"tiny-synth": run.Workload(16, "publish_synthetic"),
        "tiny-kanon": run.Workload(16, "k_anonymity", worlds=2),
        "tiny-features": run.Workload(16, worker.FEATURES)}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "N_DAYS", 7)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def bench(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_prints_every_end_to_end_metric(tiny, capsys, name):
    code, lines, result = bench(capsys, "--workload", name, "--seed", "1",
                                "--seconds", "0", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    synth_only = {"similarity_jsd_mean", "social_jaccard"}
    report_only = {"raw_auc", "defense_f1_drop"}
    expected = [m for m in run.END_TO_END
                if (name == "tiny-synth" or m not in synth_only)
                and (name != "tiny-features" or m not in report_only)]
    for metric in expected:
        unit = run.END_TO_END[metric][0]
        assert any(line.startswith(f"{name} {metric} = ")
                   and f" {unit}  n=" in line for line in lines), metric
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", ["tiny-kanon", "tiny-features"])
def test_smoke_traced_prints_every_per_layer_metric(tiny, capsys, name):
    code, lines, result = bench(capsys, "--workload", name, "--seed",
                                "1", "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["core.parse_stays.calls"]["value"] == 1
    for key in ("colocation.extract_coevents.s",
                "features.compute_features.s", "colocation.pairs"):
        assert result["metrics"][key]["value"] > 0, key
    if name == "tiny-kanon":
        assert f"{name} anonymize.k_anonymize.calls = 16 count  n=2" in lines
    else:
        assert result["metrics"]["colocation.pairs"]["value"] == 16 * 15 / 2
    for m in BENCHMARK["per_layer"]:
        assert any(line.startswith(f"{name} {m['name']} = ")
                   for line in lines), m["name"]


@pytest.mark.parametrize("pipeline", ["publish_synthetic", "k_anonymity",
                                      worker.FEATURES])
def test_tracing_leaves_report_byte_identical(tiny, pipeline):
    pkg = worker.load_trajpriv(run.ROOT)
    world = pkg.generate_world(pkg.WorldConfig(n_users=16, n_days=7, seed=2))
    run.write_world(pkg, world, tiny / "world")
    originals = {name: getattr(pkg.harness, name) for name in
                 ("extract_coevents", "run_attack", "compute_features")}
    bench_run = worker.Run(pkg, [str(tiny / "world")], pipeline)
    bench_run.measure(setups=1, seconds=0, trace=True)
    assert bench_run.failures == []
    [digests] = bench_run.digests
    assert len(digests) == 2
    assert digests[0] == digests[1]
    assert bench_run.wall_s and bench_run.traced_wall_s
    for name, fn in originals.items():
        assert getattr(pkg.harness, name) is fn
    calls = bench_run.layers[0]["harness.run_attack.calls"][0]
    assert calls == (0 if pipeline == worker.FEATURES else 2)


def test_worlds_of_a_run_come_from_its_seed(tiny, capsys):
    assert run.world_seeds(5, 1) == [5]
    assert run.world_seeds(5, 2) == [10, 11]
    code, lines, _ = bench(capsys, "--workload", "tiny-kanon", "--seed", "5",
                           "--seconds", "0", "--trace", "0")
    assert code == 0
    for world_seed in (10, 11):
        assert any(line.startswith("tiny-kanon input world_seed="
                                   f"{world_seed} users=16")
                   for line in lines)
        assert any(line.endswith(f"world_seed={world_seed}")
                   and "report sha256" in line for line in lines)
    assert "tiny-kanon wall_s" in "\n".join(lines)


def test_forced_exception_counts_in_fail_rate(tiny, capsys, monkeypatch):
    """A stay just south of the grid origin makes publish_synthetic raise
    OutOfGridError; the run reports it and exits non-zero."""
    pkg = worker.load_trajpriv(run.ROOT)
    generate = pkg.generate_world

    def with_stay_off_grid(cfg):
        world = generate(cfg)
        traj = world.trajectories[world.users[0]]
        s = traj.stays[0]
        south = world.grid.origin_lat - 1e-4
        traj.stays[0] = dataclasses.replace(s, start_lat=south,
                                            stop_lat=south)
        return world

    monkeypatch.setattr(pkg, "generate_world", with_stay_off_grid)
    code, lines, result = bench(capsys, "--workload", "tiny-synth", "--seed",
                                "1", "--seconds", "0", "--trace", "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "tiny-synth fail_rate = 1 ratio  n=1  (lower is better)" in lines
    assert any("FAILED OutOfGridError" in line for line in lines)
    assert any("stays_outside_grid=1" in line for line in lines)


def test_check_features_flags_engine_that_drops_events(tiny):
    pkg = worker.load_trajpriv(run.ROOT)
    world = pkg.generate_world(pkg.WorldConfig(n_users=16, n_days=7, seed=2))
    text, events = worker.features_csv(pkg, world)
    assert worker.check_features(pkg, world, text, events) == []
    dropped = {pair: evs[1:] for pair, evs in events.items()}
    bad = worker.check_features(pkg, world, text, dropped)
    assert bad and all(b.endswith("differ from the nested-loop definition")
                       for b in bad)


def test_host_clock_ticks_inside_a_timed_step_and_leaves_no_timer():
    before = signal.getsignal(signal.SIGALRM)
    clock = worker.HostClock()
    with clock:
        t0 = time.perf_counter()
        _, elapsed, tick = clock.time(time.sleep, 0.3)
        wall = time.perf_counter() - t0
    assert len(clock.ticks) >= 3
    assert tick == pytest.approx(sum(clock.ticks) / len(clock.ticks))
    assert elapsed == pytest.approx(wall - clock.busy_s, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_median_scales_each_step_by_its_own_ticks():
    tick = run.REF_TICK_S
    summary = {"ticks": [tick / 2], "wall_s": [2.0, 4.0, 9.0],
               "wall_tick_s": [2 * tick, 4 * tick, 3 * tick]}
    assert run.scaled_median(summary, "wall_s") == pytest.approx(1.0)
    summary.update(wall_s=[0.25], wall_tick_s=[None])   # run's mean tick
    assert run.scaled_median(summary, "wall_s") == pytest.approx(0.5)


def test_check_report_flags_out_of_range_and_weak_defense():
    row = {"subset": "all", "semantic": False, "precision": 0.9,
           "recall": 0.9, "f1": 0.9, "auc": 0.95}
    weak = {"raw": [row], "defended": [dict(row, f1=0.88, auc=1.5)]}
    bad = worker.check_report(json.dumps(weak), "k_anonymity")
    assert any("auc=1.5" in b for b in bad)
    assert any("defense_f1_drop" in b for b in bad)
    synth = {"raw": [row], "defended": [row],
             "similarity": {"spatial_jsd": 0.2, "temporal_jsd": -0.1,
                            "semantic_jsd": 0.3, "social_jaccard": 0.5}}
    bad = worker.check_report(json.dumps(synth), "publish_synthetic")
    assert bad == ["similarity temporal_jsd=-0.1 outside [0, 1]"]


def test_layer_metrics_split_self_time():
    def span(name, parent, start, end):
        s = tracer.Span(name, parent, start)
        s.end = end
        if parent is not None:
            parent.child_s += end - start
        return s

    outer = span("publish.similarity_report", None, 0.0, 0.0)
    inner = span("colocation.extract_coevents", outer, 1.0, 3.0)
    outer.end = 5.0
    inner.attrs = {"pairs": 6, "events": 4, "all_pairs": True}
    m = tracer.layer_metrics([outer, inner])
    assert m["publish.similarity_report.s"] == (5.0, "s")
    assert m["publish.similarity_report.self_s"] == (3.0, "s")
    assert m["colocation.extract_coevents.calls"] == (1, "count")
    assert m["colocation.pairs"] == (6, "count")


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
