"""Benchmark of the `trajpriv report` pipeline.

    python3 perfbench/run.py --workload kanon-64 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --table --seed 42              # stage table

For one workload it generates the workload's worlds from the seed with
`generate_world`, writes them in the on-disk form `trajpriv report --world`
reads, and starts one measuring process (`worker.py`) on them. That process
loads a world (`setup_s`) and runs the report on it in a closed loop with
one client (`wall_s`). The `features-*` workloads run what `trajpriv
features` does instead of a report: the six pair metrics of every user
pair. With `--trace 1` the run also traces each module's public functions
and prints per-layer metrics and the tracing overhead instead of the
end-to-end metrics.

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The exit code is
0 only when every report ran and passed its output checks. See README.md in
this directory for the workloads, the metrics and how to compare commits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

N_DAYS = 14
SETUP_REPEATS = 9
# `setup_s` and `wall_s` are scaled to one host speed (see
# `worker.HostClock`): each load or report's seconds times REF_TICK_S over
# the mean `worker.reference_tick()` seconds while it ran. REF_TICK_S is
# about the tick's mean time on the host this benchmark was written on.
# The measured times are printed too, as `setup_raw_s` and `wall_raw_s`.
REF_TICK_S = 0.0012


@dataclasses.dataclass(frozen=True)
class Workload:
    users: int
    pipeline: str       # a `--defense` of `trajpriv report`, or "features"
    # A run of a BENCHMARK.json workload must end within 180 s; the
    # 256-user ones take up to two 50 s reports in a traced turn.
    timeout_s: int = 165
    # Worlds per run, generated from `world_seeds(seed, worlds)` and taken
    # in rotation; more than one evens out how much work a seed's world
    # happens to hold.
    worlds: int = 1


# Why each workload is here: README.md in this directory.
WORKLOADS = {
    "kanon-64": Workload(64, "k_anonymity", worlds=4),
    "kanon-256": Workload(256, "k_anonymity", 600),
    "features-64": Workload(64, worker.FEATURES),
    "synth-64": Workload(64, "publish_synthetic"),
    "synth-256": Workload(256, "publish_synthetic", 600),
}

# name -> (unit, better); printed with --trace 0, in this order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "setup_raw_s": ("s", "lower"),
    "wall_raw_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "raw_auc": ("ratio", "higher"),
    "fail_rate": ("ratio", "lower"),
    "defense_f1_drop": ("ratio", "higher"),
    "similarity_jsd_mean": ("bits", "lower"),
    "social_jaccard": ("ratio", "higher"),
}
# The subsets the last JSON line carries. End to end: measured on every
# workload, never 0. Per layer: layers every workload of BENCHMARK.json
# calls, so that no time reads 0 on every run of one of them.
GATED = ("setup_s", "wall_s", "peak_rss_mb")
GATED_LAYERS = tuple(
    f"{layer}.{kind}"
    for layer in ("core.parse_stays", "colocation.extract_coevents",
                  "features.compute_features")
    for kind in ("s", "self_s", "calls")) + (
    "colocation.pairs", "colocation.events", "trace_overhead_s")


def thread_env():
    """Environment for the measuring process: no more BLAS threads than
    CPUs."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        have = env.get(var, "")
        if not have.isdigit() or not 0 < int(have) <= nproc:
            env[var] = str(nproc)
    return env


def world_seeds(seed, worlds):
    """World seeds of a run: `seed` itself for one world, else `worlds`
    consecutive seeds that no other `--seed` shares."""
    if worlds == 1:
        return [seed]
    return [seed * worlds + i for i in range(worlds)]


def input_counters(pkg, world):
    to_cell, OutOfGridError = pkg.core.to_cell, pkg.core.OutOfGridError
    outside = 0
    for u in world.users:
        for s in world.trajectories[u]:
            try:
                to_cell(s.lat, s.lon, world.grid)
            except OutOfGridError:
                outside += 1
    return {
        "world_seed": world.cfg.seed,
        "users": len(world.users),
        "stays": sum(len(world.trajectories[u]) for u in world.users),
        "labelled_pairs": 2 * len(world.friend_edges),
        "stays_outside_grid": outside,
    }


def write_world(pkg, world, directory):
    """The files `trajpriv simulate` writes and `trajpriv report` reads."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "stays.csv").write_text(world.stays_csv())
    (directory / "edges.csv").write_text(world.edges_csv())
    (directory / "config.json").write_text(
        pkg.harness.report_json(dataclasses.asdict(world.cfg)))


def start_worker(spec, timeout):
    """Run worker.py on `spec`; return its result, or one that records why
    the process gave none."""
    out = Path(spec["out"])
    spec_path = out.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=thread_env(), cwd=ROOT, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        failure = {"type": "TimeoutExpired",
                   "message": f"measuring process ran over {timeout} s"}
    else:
        if proc.returncode == 0:
            result = json.loads(out.read_text())
            out.unlink()
            return result
        failure = {"type": "WorkerExited",
                   "message": f"exit code {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}"}
    finally:
        spec_path.unlink()
    return {"setup_s": [], "setup_tick_s": [], "wall_s": [],
            "wall_tick_s": [], "traced_wall_s": [], "traced_wall_tick_s": [],
            "ticks": [], "layers": [],
            "layer_units": {}, "spans": [], "attempted": 1,
            "failures": [failure], "digests": [], "reports": [],
            "peak_rss_mb": None, "environment": {}}


def run_workload(pkg, name, workload, seed, seconds, trace):
    """Generate, write and measure one workload; return a summary dict."""
    worlds = [pkg.generate_world(pkg.WorldConfig(
        n_users=workload.users, n_days=N_DAYS, seed=s))
        for s in world_seeds(seed, workload.worlds)]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    world_dirs = [OUT / "worlds" / tag / str(w.cfg.seed) for w in worlds]
    for world, world_dir in zip(worlds, world_dirs):
        write_world(pkg, world, world_dir)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    spec = {"root": str(ROOT), "world_dirs": [str(d) for d in world_dirs],
            "pipeline": workload.pipeline, "setups": SETUP_REPEATS,
            "seconds": seconds, "trace": bool(trace),
            "out": str(OUT / "results" / f"{tag}.worker.json")}
    try:
        res = start_worker(spec, workload.timeout_s)
    finally:
        shutil.rmtree(OUT / "worlds" / tag, ignore_errors=True)
    summary = {"workload": name, "seed": seed, "trace": bool(trace),
               "inputs": [input_counters(pkg, w) for w in worlds], **res}
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True))
    return summary


def scaled_median(summary, key):
    """Median over the run's steps of `key` (`setup_s`, `wall_s` or
    `traced_wall_s`), each step's seconds scaled by REF_TICK_S over the mean
    tick seconds while it ran; a step no tick fell in takes the run's mean
    tick."""
    ticks = summary["ticks"]
    fallback = sum(ticks) / len(ticks) if ticks else REF_TICK_S
    return statistics.median(
        t * REF_TICK_S / (tick or fallback)
        for t, tick in zip(summary[key], summary[key[:-2] + "_tick_s"]))


def end_to_end(summary):
    """{metric: (value, unit, samples)} for the metrics this run measured,
    in `END_TO_END` order."""
    found = {}
    for key in ("setup_s", "wall_s"):
        if summary[key]:
            n = len(summary[key])
            found[key] = (scaled_median(summary, key), n)
            found[key[:-2] + "_raw_s"] = (statistics.median(summary[key]), n)
    if summary["peak_rss_mb"] is not None:
        found["peak_rss_mb"] = (summary["peak_rss_mb"], 1)
    found["fail_rate"] = (len(summary["failures"]) / summary["attempted"],
                          summary["attempted"])
    reports = [rep for rep in summary["reports"] if rep is not None]

    def mean_over_worlds(key, value):
        values = [value(rep) for rep in reports]
        found[key] = (sum(values) / len(values), len(values))

    if reports:
        mean_over_worlds("raw_auc", lambda rep: next(
            r for r in rep["raw"] if r["subset"] == "all")["auc"])
        mean_over_worlds("defense_f1_drop", worker.f1_drop)
    if reports and "similarity" in reports[0]:
        mean_over_worlds("similarity_jsd_mean", lambda rep: sum(
            rep["similarity"][k] for k in ("spatial_jsd", "temporal_jsd",
                                           "semantic_jsd")) / 3)
        mean_over_worlds("social_jaccard",
                         lambda rep: rep["similarity"]["social_jaccard"])
    return {key: (found[key][0], unit, found[key][1])
            for key, (unit, _) in END_TO_END.items() if key in found}


def per_layer(summary):
    """{metric: (value, unit, samples)}: medians over the traced reports,
    and the tracing overhead as the scaled traced minus the scaled
    untraced median report time."""
    layers = summary["layers"]
    out = {}
    for key, unit in summary["layer_units"].items():
        out[key] = (statistics.median(lay[key] for lay in layers), unit,
                    len(layers))
    if summary["wall_s"] and summary["traced_wall_s"]:
        out["trace_overhead_s"] = (
            scaled_median(summary, "traced_wall_s")
            - scaled_median(summary, "wall_s"), "s",
            min(len(summary["wall_s"]), len(summary["traced_wall_s"])))
    return out


def print_summary(summary, metrics):
    name, seed = summary["workload"], summary["seed"]
    print(f"== {name} seed={seed} trace={int(summary['trace'])} "
          f"worlds={len(summary['inputs'])}")
    for counters in summary["inputs"]:
        print(f"{name} input " + " ".join(f"{k}={v}"
                                          for k, v in counters.items()))
    for key, (value, unit, n) in metrics.items():
        direction = END_TO_END.get(key, (None, ""))[1]
        hint = f"  ({direction} is better)" if direction else ""
        print(f"{name} {key} = {value:.6g} {unit}  n={n}{hint}")
    if summary["ticks"]:
        ticks = summary["ticks"]
        print(f"{name} host tick = {sum(ticks) / len(ticks):.6g} s  "
              f"n={len(ticks)}  (scaled to {REF_TICK_S} s)")
    for counters, digests in zip(summary["inputs"], summary["digests"]):
        if digests:
            print(f"{name} report sha256 = {digests[0]}  "
                  f"world_seed={counters['world_seed']}")
    for f in summary["failures"]:
        print(f"{name} FAILED {f['type']}: {f['message']}")


def result_line(summaries, metric_sets, keys, prefix):
    failed = sum(len(s["failures"]) for s in summaries)
    metrics = {}
    for s, m in zip(summaries, metric_sets):
        for key in keys:
            if key in m:
                name = f"{s['workload']}.{key}" if prefix else key
                metrics[name] = {"value": m[key][0], "unit": m[key][1]}
    return {"correct": failed == 0,
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": failed, "metrics": metrics}


# (stage, row label) of the stage table, in its order.
STAGES = (
    ("all_pairs", "`extract_coevents` over all pairs"),
    ("similarity_report", "`similarity_report`"),
    ("fit_world_models", "`fit_world_models`"),
    ("k_anonymize_world", "`k_anonymize_world`"),
    ("publish_synthetic", "`publish_synthetic`"),
    ("build_pair_dataset", "`build_pair_dataset`"),
    ("run_attack", "`run_attack` (one subset)"),
)


def stage_seconds(spans):
    """Stage seconds from one traced report's spans. Where a stage runs on
    the raw and on the defended world, the raw-world (first) call counts."""
    def first(name, parent=None):
        return next((i for i, s in enumerate(spans) if s["name"] == name
                     and (parent is None or s["parent"] == parent)), None)

    def seconds(i):
        return None if i is None else spans[i]["end_s"] - spans[i]["start_s"]

    out = {}
    for stage in ("fit_world_models", "k_anonymize_world",
                  "publish_synthetic"):
        out[stage] = seconds(first(f"harness.{stage}"))
    sim = first("publish.similarity_report")
    out["similarity_report"] = seconds(sim)
    if sim is not None:
        out["all_pairs"] = seconds(first("colocation.extract_coevents", sim))
    attack = first("harness.run_attack")
    if attack is not None:
        build = seconds(first("harness.build_pair_dataset", attack))
        out["build_pair_dataset"] = build
        out["run_attack"] = seconds(attack) - build
    return out


def stage_table(pkg, seed):
    """The ROADMAP stage table at 64 and 256 users, from one traced turn of
    each defense; also checks traced and untraced reports are identical."""
    cols, ok = {}, True
    for users in (64, 256):
        cols[users] = {}
        for defense in ("k_anonymity", "publish_synthetic"):
            s = run_workload(pkg, f"table-{defense}-{users}",
                             Workload(users, defense, 900), seed, 0, True)
            print_summary(s, per_layer(s))
            ok &= not s["failures"] and all(
                len(set(d)) == 1 for d in s["digests"])
            found = stage_seconds(s["spans"])
            cols[users].update({k: v for k, v in found.items()
                                if v is not None})

    def cell(users, stage):
        value = cols[users].get(stage)
        return "failed" if value is None else f"{value:.2f} s"

    lines = [f"Stage seconds, world seed {seed}, {N_DAYS} days, one traced "
             "report per defense:", "",
             "| Stage | 64 users | 256 users |", "| --- | --- | --- |"]
    lines += [f"| {label} | {cell(64, stage)} | {cell(256, stage)} |"
              for stage, label in STAGES]
    lines += ["", "traced report sha256 equals the untraced one in every "
              "run: " + ("yes" if ok else "NO")]
    return "\n".join(lines), ok


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=42,
                   help="seed the workload's worlds are generated from")
    p.add_argument("--seconds", type=float, default=15,
                   help="measuring time; at least one report runs on "
                        "each world")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--table", action="store_true",
                   help="print the stage table at 64 and 256 users instead")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        pkg = worker.load_trajpriv(ROOT)
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.table:
        table, ok = stage_table(pkg, args.seed)
        print(table)
        return 0 if ok else 1
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries, metric_sets = [], []
    for name in names:
        s = run_workload(pkg, name, WORKLOADS[name], args.seed, args.seconds,
                         args.trace)
        m = per_layer(s) if args.trace else end_to_end(s)
        print_summary(s, m)
        summaries.append(s)
        metric_sets.append(m)
    env = summaries[0]["environment"]
    if env:
        print("environment: " + json.dumps(env, sort_keys=True))
    line = result_line(summaries, metric_sets,
                       GATED_LAYERS if args.trace else GATED,
                       len(names) > 1)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
