"""The measured process of the benchmark.

It does what `trajpriv report --world <dir> --defense <d>` (or, for the
`features` pipeline, `trajpriv features --world <dir>`) does, split so the
two parts can be timed apart: in a closed loop with one client, each turn
loads a world from disk (`setup_s`) and runs `run_defense` + `report_json`
(or the all-pairs feature export) on it (`wall_s`), until the measuring time
is spent. Turns take the run's worlds in rotation. With tracing on, each
turn then runs one traced load and report as well. Every report is
checked; exceptions and failed checks are recorded, never retried around.
A `HostClock` samples the host's speed throughout, so that `run.py` can
scale the times to one host speed.

    python3 perfbench/worker.py SPEC.json

SPEC.json names the checkout root, the world directories, the pipeline, the
number of loads, the measuring seconds, the trace flag and the path the
result JSON is written to. `run.py` starts this process; see its docstring.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer

DEFENSE_SEED = 7
MIN_F1_DROP = 0.05        # acceptance criterion 7: the defense must bite
FEATURES = "features"     # the `trajpriv features` pipeline; else a defense
ORACLE_PAIRS = 48         # pairs checked against the nested-loop definition


def load_trajpriv(root):
    """Import trajpriv from `<root>/src` and nowhere else."""
    src = Path(root).resolve() / "src"
    if not (src / "trajpriv" / "__init__.py").is_file():
        raise ImportError(f"no trajpriv sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("trajpriv")
    if Path(pkg.__file__).resolve().parent != src / "trajpriv":
        raise ImportError(f"trajpriv imported from {pkg.__file__}, not {src}")
    importlib.import_module("trajpriv.cli")
    return pkg


def check_report(text, defense):
    """Messages of the output checks that `text`, a report JSON, fails."""
    rep = json.loads(text)
    bad = []
    for side in ("raw", "defended"):
        for row in rep[side]:
            for key in ("precision", "recall", "f1", "auc"):
                if not 0.0 <= row[key] <= 1.0:
                    bad.append(f"{side} {row['subset']} {key}={row[key]} "
                               "outside [0, 1]")
    if defense == "k_anonymity":
        drop = f1_drop(rep)
        if drop < MIN_F1_DROP:
            bad.append(f"defense_f1_drop={drop} below {MIN_F1_DROP}")
    if defense == "publish_synthetic":
        for key, value in sorted(rep["similarity"].items()):
            if not 0.0 <= value <= 1.0:
                bad.append(f"similarity {key}={value} outside [0, 1]")
    return bad


def features_csv(pkg, world):
    """What `trajpriv features --world <dir>` writes with its default
    arguments: the six metrics of every user pair. Returns the CSV text and
    the co-occurrence events it was computed from."""
    events = pkg.colocation.extract_coevents(
        world.trajectories, pkg.colocation.CoLocationConfig(), world.grid)
    ent = pkg.features.cell_visit_entropy(world.trajectories, world.grid)
    rows = [pkg.features.compute_features(evs, ent, pair=pair,
                                          label=pair in world.friend_edges)
            for pair, evs in sorted(events.items())]
    return pkg.features.features_to_csv(rows), events


def check_features(pkg, world, text, events):
    """Messages of the output checks that a feature CSV fails: one row per
    user pair, finite metrics, one positive label per friend edge, and the
    events of `ORACLE_PAIRS` pairs equal to the nested-loop definition."""
    users = sorted(world.users)
    n_pairs = len(users) * (len(users) - 1) // 2
    rows = list(csv.DictReader(io.StringIO(text)))
    bad = []
    if len(rows) != n_pairs or len(events) != n_pairs:
        bad.append(f"{len(rows)} feature rows and {len(events)} event lists "
                   f"for {n_pairs} pairs")
    names = pkg.features.FEATURE_NAMES
    if any(not math.isfinite(float(r[n])) for r in rows for n in names):
        bad.append("feature value not finite")
    positives = sum(r["label"] == "1" for r in rows)
    if positives != len(world.friend_edges):
        bad.append(f"{positives} positive labels for "
                   f"{len(world.friend_edges)} friend edges")
    pairs = sorted(events)
    step = max(1, len(pairs) // ORACLE_PAIRS)
    cfg = pkg.colocation.CoLocationConfig()
    for a, b in pairs[::step][:ORACLE_PAIRS]:
        got = sorted((e.overlap_start, e.overlap_end, round(e.weight, 12))
                     for e in events[(a, b)])
        want = nested_loop_coevents(pkg, world.trajectories[a],
                                    world.trajectories[b], cfg)
        if got != want:
            bad.append(f"events of pair {(a, b)} differ from the "
                       "nested-loop definition")
    return bad


def nested_loop_coevents(pkg, traj_a, traj_b, cfg):
    """(overlap start, overlap end, weight) of every co-occurrence event of
    two trajectories, from the definition: every stay against every stay."""
    out = []
    for sa in traj_a.stays:
        for sb in traj_b.stays:
            d = pkg.core.haversine_m(sa.lat, sa.lon, sb.lat, sb.lon)
            gap = max(0, max(sa.start_time, sb.start_time)
                      - min(sa.stop_time, sb.stop_time))
            w = cfg.spatial_weight(d) * cfg.temporal_weight(gap)
            if w > 0:
                lo = max(sa.start_time, sb.start_time)
                hi = min(sa.stop_time, sb.stop_time)
                out.append((min(lo, hi), hi, round(w, 12)))
    return sorted(out)


def f1_drop(rep):
    """Raw minus defended F1 on the `all` feature subset."""
    raw = next(r for r in rep["raw"] if r["subset"] == "all")
    defended = next(r for r in rep["defended"] if r["subset"] == "all")
    return raw["f1"] - defended["f1"]


def peak_rss_mb():
    """Peak resident memory of this process since it started.

    Read from VmHWM, which belongs to the address space made at exec.
    `getrusage(...).ru_maxrss` would not do: Linux carries it over exec,
    so it starts at the resident size of the process that spawned this one.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# Fixed inputs of `reference_tick`: stay-like (lat, lon, start, stop)
# tuples, and a small matrix.
REF_STAYS = [(40.0 + (i * 37 % 101) / 1000.0, 116.0 + (i * 53 % 97) / 1000.0,
              i * 600, i * 600 + (i * 71 % 50) * 60) for i in range(20)]
REF_X = np.linspace(0.1, 1.0, 300).reshape(100, 3)
TICK_INTERVAL_S = 0.05


def reference_tick():
    """Seconds that one small fixed piece of work (about a millisecond)
    takes in this process.

    The work is of the two kinds the program spends its time on: a
    pure-Python loop of distances and interval gaps between stays, like the
    co-occurrence engine, and arithmetic on small numpy arrays, like the
    mixture EM. Its code and inputs never change, so its time follows only
    the speed the host gives the process at that moment.
    """
    t0 = time.perf_counter()
    near = 0
    for lat_a, lon_a, start_a, stop_a in REF_STAYS:
        for lat_b, lon_b, start_b, stop_b in REF_STAYS:
            pa, pb = math.radians(lat_a), math.radians(lat_b)
            h = (math.sin((pb - pa) / 2) ** 2 + math.cos(pa) * math.cos(pb)
                 * math.sin(math.radians(lon_b - lon_a) / 2) ** 2)
            dist = 2 * 6371000.0 * math.asin(math.sqrt(h))
            gap = max(0, max(start_a, start_b) - min(stop_a, stop_b))
            near += dist <= 250.0 and gap <= 1800
    x = REF_X
    for _ in range(5):
        logp = -0.5 * ((x[:, None, :] - x[None, :3, :]) ** 2).sum(-1)
        resp = np.exp(logp - logp.max(1, keepdims=True))
        resp /= resp.sum(1, keepdims=True)
        x = np.tanh((resp.T @ x)[np.arange(100) % 3] * 0.5 + x * 0.5)
    elapsed = time.perf_counter() - t0
    if not (near > 0 and np.isfinite(x).all()):
        raise RuntimeError("reference work gave a wrong result")
    return elapsed


class HostClock:
    """Samples the host's speed all through a run.

    The host this benchmark was written on switches between a fast and a
    slow speed (about 1.8x apart) every few seconds, so a step's time says
    as much about the host as about the program. While the clock is
    entered, a SIGALRM timer runs `reference_tick()` every
    `TICK_INTERVAL_S` seconds in the measured thread, between two bytecodes
    of whatever runs, so the ticks fall inside the steps being timed.
    """

    def __init__(self):
        self.ticks = []
        self.busy_s = 0.0       # time spent in the signal handler
        self._old_handler = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()            # the program's heap must not slow the tick
        try:
            self.ticks.append(reference_tick())
        finally:
            if enabled:
                gc.enable()
            self.busy_s += time.perf_counter() - t0

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def time(self, fn, *args):
        """`fn(*args)`, its seconds without the time spent in ticks, and the
        mean tick seconds while it ran (None if no tick fell inside it)."""
        n, busy = len(self.ticks), self.busy_s
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0 - (self.busy_s - busy)
        ticks = self.ticks[n:]
        return result, elapsed, sum(ticks) / len(ticks) if ticks else None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


class Run:
    """Samples, failures and report digests of one measuring run."""

    def __init__(self, pkg, world_dirs, pipeline):
        self.pkg = pkg
        self.world_dirs = world_dirs
        self.pipeline = pipeline
        self.clock = HostClock()
        self.setup_s = []
        self.setup_tick_s = []  # mean tick seconds during each load
        self.wall_s = []
        self.wall_tick_s = []   # mean tick seconds during each report
        self.traced_wall_s = []
        self.traced_wall_tick_s = []
        self.layers = []        # per traced report: {metric: (value, unit)}
        self.spans = []         # spans of the last traced report
        self.attempted = 0
        self.failures = []
        self.digests = [[] for _ in world_dirs]     # per world, per report
        self.reports = [None] * len(world_dirs)     # first report per world

    def _fail(self, kind, message):
        """Record one failed report attempt."""
        self.failures.append({"type": kind, "message": message})

    def load(self, i):
        """World `i`, its load seconds and the mean tick seconds meanwhile."""
        return self.clock.time(self.pkg.cli._load_world, self.world_dirs[i])

    def produce(self, world):
        """The report text and, for the features pipeline, the events."""
        if self.pipeline == FEATURES:
            return features_csv(self.pkg, world)
        harness = self.pkg.harness
        return harness.report_json(harness.run_defense(
            world, defense=self.pipeline, seed=DEFENSE_SEED)), None

    def report_once(self, i, world, extra_checks=None):
        """Time one report on world `i` and check it; `extra_checks()`
        returns more failed check messages. Returns the seconds and the mean
        tick seconds meanwhile, or None if the attempt failed."""
        self.attempted += 1
        try:
            (text, events), elapsed, tick = self.clock.time(self.produce,
                                                            world)
        except Exception as e:      # counted, with its type and message
            self._fail(type(e).__name__, "".join(
                traceback.format_exception_only(type(e), e)).strip())
            return None
        digests = self.digests[i]
        if self.pipeline != FEATURES:
            bad = check_report(text, self.pipeline)
        elif not digests:       # later reports must match this one
            bad = check_features(self.pkg, world, text, events)
        else:
            bad = []
        if extra_checks is not None:
            bad += extra_checks()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digests and digest != digests[0]:
            bad.append(f"report sha256 {digest} differs from the first "
                       f"report's {digests[0]} on the same world")
        digests.append(digest)
        if self.reports[i] is None and self.pipeline != FEATURES:
            self.reports[i] = json.loads(text)
        if bad:
            self._fail("CheckFailed", "; ".join(bad))
            return None
        return elapsed, tick

    def traced_report(self, i):
        audit = self.pkg.anonymize.audit_anonymity_set

        def audits():
            failed = [aset.real.user_id for aset, policy, model
                      in tr.anonymity_sets if not audit(aset, policy, model)]
            return [f"anonymity sets failing audit_anonymity_set: {failed}"
                    ] if failed else []

        with tracer.Tracer(self.pkg) as tr:
            world, _, _ = self.load(i)
            timed = self.report_once(i, world, audits)
        if timed is not None:
            self.traced_wall_s.append(timed[0])
            self.traced_wall_tick_s.append(timed[1])
            self.layers.append(tracer.layer_metrics(tr.spans))
            self.spans = tracer.spans_to_json(tr.spans)

    def timed_load(self, i):
        """Load world `i` as one `setup_s` sample; None if loading failed."""
        try:
            world, elapsed, tick = self.load(i)
        except Exception as e:      # counted as a failed report attempt
            self.attempted += 1
            self._fail(type(e).__name__, str(e))
            return None
        self.setup_s.append(elapsed)
        self.setup_tick_s.append(tick)
        return world

    def measure(self, setups, seconds, trace):
        """Turns of load + report, on the worlds in rotation, until the next
        turn would overrun `seconds` (at least one turn per world), then
        more loads up to `setups` samples. Loading inside each turn spreads
        the `setup_s` samples over the same span of time as the `wall_s`
        ones. The host clock ticks all the while."""
        with self.clock:
            self._measure(setups, seconds, trace)

    def _measure(self, setups, seconds, trace):
        start = time.perf_counter()
        n = len(self.world_dirs)
        turns = 0
        while True:
            i = turns % n
            world = self.timed_load(i)
            if world is None:
                return
            timed = self.report_once(i, world)
            if timed is not None:
                self.wall_s.append(timed[0])
                self.wall_tick_s.append(timed[1])
            if trace:
                self.traced_report(i)
            turns += 1
            spent = time.perf_counter() - start
            if turns >= n and spent + spent / turns > seconds:
                break
        while (len(self.setup_s) < setups
               and self.timed_load(len(self.setup_s) % n) is not None):
            pass

    def result(self):
        return {
            "setup_s": self.setup_s,
            "setup_tick_s": self.setup_tick_s,
            "wall_s": self.wall_s,
            "wall_tick_s": self.wall_tick_s,
            "traced_wall_s": self.traced_wall_s,
            "traced_wall_tick_s": self.traced_wall_tick_s,
            "ticks": self.clock.ticks,
            "layers": [{k: v for k, (v, _) in lay.items()}
                       for lay in self.layers],
            "layer_units": ({k: u for k, (_, u) in self.layers[0].items()}
                            if self.layers else {}),
            "spans": self.spans,
            "attempted": self.attempted,
            "failures": self.failures,
            "digests": self.digests,
            "reports": self.reports,
            "peak_rss_mb": peak_rss_mb(),
            "environment": environment(),
        }


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    pkg = load_trajpriv(spec["root"])
    run = Run(pkg, spec["world_dirs"], spec["pipeline"])
    run.measure(spec["setups"], spec["seconds"], spec["trace"])
    Path(spec["out"]).write_text(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
