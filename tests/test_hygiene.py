"""Source hygiene of the package: every import at module level, every
import used, no module importing another's private names, no public
name that only unit tests use, and no name the benchmark tracer wraps
that the package lacks, one co-location config for the whole package,
one definition of each geometric formula on the earth's radius, no stay
column rebuilt from rows outside core, no stay record built by
the world loader and a bound on its heap peak, no csv.reader for plain
stays text, no co-occurrence event
object built by the all-pairs feature export, one metric pass for all its
pairs and no metric row built by a Python __new__, no exact distance
taken for a pair far from the indicator threshold, no scipy loaded by
the package, no bare np.unique nor numpy.ma loaded by the synthetic
release's stay rows, two generator calls per dummy, whatever its
stay count, and one social pull per friend model in a world's
k-anonymity run."""

import ast
import csv
import dataclasses
import importlib
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trajpriv
from trajpriv import anonymize, cli, colocation, core, harness, mobility
from trajpriv.colocation import CoEvent
from trajpriv.core import StayRecord

MODULES = sorted(Path(trajpriv.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(node):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_import(path):
    local = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(parse(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = parse(path)
    bound = {name: node.lineno for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in imported_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(bound) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_from_another_module(path):
    private = [f"{node.module}.{a.name}:{node.lineno}"
               for node in ast.walk(parse(path))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.split(".")[0] == "trajpriv")
               for a in node.names if a.name.startswith("_")]
    assert private == []


def test_checks_catch_what_they_look_for(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import json\nimport math\n\n\ndef f():\n"
                    "    import os\n    return math.pi\n")
    with pytest.raises(AssertionError):
        test_no_function_local_import(path)
    with pytest.raises(AssertionError):
        test_no_unused_import(path)
    path.write_text("from .core import _typed\n")
    with pytest.raises(AssertionError):
        test_no_private_import_from_another_module(path)


ROOT = Path(__file__).resolve().parents[1]
# what a public name must be used by: the package itself, the demos, the
# benchmark and the acceptance contracts, not the unit tests alone
USERS = ([p for p in MODULES if p.name != "__init__.py"]
         + sorted((ROOT / "demos").glob("*.py"))
         + sorted((ROOT / "perfbench").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])


def unreferenced(modules, users):
    """Public module-level functions and classes of `modules` that no name
    or attribute in `users` refers to, outside their own definition."""
    uses = [(path, getattr(stmt, "name", None),
             {n.id if isinstance(n, ast.Name) else n.attr
              for n in ast.walk(stmt)
              if isinstance(n, (ast.Name, ast.Attribute))})
            for path in users for stmt in parse(path).body]
    return [f"{path.stem}.{stmt.name}" for path in modules
            for stmt in parse(path).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and not any(stmt.name in names for p, owner, names in uses
                        if (p, owner) != (path, stmt.name))]


def test_every_public_name_has_a_user_beyond_unit_tests():
    assert unreferenced(MODULES, USERS) == []


def test_unreferenced_names_are_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def unused():\n    return unused()\n\n\n"
                    "def used():\n    return 1\n\n\nclass Orphan:\n"
                    "    size = used()\n")
    assert unreferenced([path], [path]) == ["m.unused", "m.Orphan"]


def traced_names():
    """The (module, name) pairs of the benchmark tracer's `TRACED`, read
    from its source."""
    tree = parse(ROOT / "perfbench" / "tracer.py")
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets]
               == ["TRACED"]]
    return ast.literal_eval(value)


def test_every_traced_name_resolves():
    # the tracer wraps these by name: a rename here would leave its layer
    # silently unmeasured
    names = traced_names()
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"trajpriv.{module}"),
                              name)]
    assert missing == []


def colocation_configs(modules):
    """(module, bound name) of every `CoLocationConfig(...)` call in
    `modules`: the name when a module-level assignment binds the call,
    else None."""
    found = []
    for path in modules:
        tree = parse(path)
        bound = {id(stmt.value): stmt.targets[0].id for stmt in tree.body
                 if isinstance(stmt, ast.Assign)
                 and isinstance(stmt.targets[0], ast.Name)}
        found += [(path.stem, bound.get(id(node)))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id",
                              getattr(node.func, "attr", None))
                  == "CoLocationConfig"]
    return found


def test_one_colocation_config():
    # every pipeline and command meets pairs under harness.COLOCATION
    assert colocation_configs(MODULES) == [("harness", "COLOCATION")]


def test_colocation_check_catches_a_second_call(tmp_path):
    harness = tmp_path / "harness.py"
    harness.write_text((MODULES[0].parent / "harness.py").read_text())
    cli = tmp_path / "cli.py"
    cli.write_text("from . import colocation\n\n\ndef f(d):\n"
                   "    return colocation.CoLocationConfig(alpha_d_m=d)\n")
    assert colocation_configs([harness, cli]) == [("harness", "COLOCATION"),
                                                  ("cli", None)]


# the module-level names that may read EARTH_RADIUS_M: the haversine, the
# planar projection, the indicator kernel's numpy filter of the haversine
# and the reach of its bound, and the spatial hash's bin size
EARTH_RADIUS_READERS = ["colocation._FILTER_REACH_M",
                        "colocation._candidate_pairs",
                        "colocation._filter_distances_m",
                        "core.LocalProjection", "core.haversine_m"]


def earth_radius_readers(modules):
    """module.name of every module-level function, class or assignment in
    `modules` that reads EARTH_RADIUS_M, by name or as an attribute."""
    found = []
    for path in modules:
        for stmt in parse(path).body:
            targets = [t.id for t in getattr(stmt, "targets", [])
                       if isinstance(t, ast.Name)]
            reads = any(
                isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and n.id == "EARTH_RADIUS_M"
                or isinstance(n, ast.Attribute) and n.attr == "EARTH_RADIUS_M"
                for n in ast.walk(stmt))
            if reads:
                found += [f"{path.stem}.{name}" for name in
                          targets or [getattr(stmt, "name", None)]]
    return sorted(found)


def test_one_definition_per_geometric_formula():
    # the exact co-occurrence distance is haversine_m and the grid's plane
    # is LocalProjection: no second copy of either formula
    assert earth_radius_readers(MODULES) == EARTH_RADIUS_READERS


def test_radius_check_catches_a_planted_copy(tmp_path):
    core_copy = tmp_path / "core.py"
    core_copy.write_text((MODULES[0].parent / "core.py").read_text()
                         + "\n\ndef _grid_xy_m(lat, lon, grid):\n"
                         "    return lat * EARTH_RADIUS_M\n")
    other = tmp_path / "features.py"
    other.write_text("from . import core\n\nSCALE = core.EARTH_RADIUS_M\n")
    assert earth_radius_readers([core_copy, other]) == [
        "core.LocalProjection", "core._grid_xy_m", "core.haversine_m",
        "features.SCALE"]


# what a stay row holds per stay; the user id is one per trajectory too
STAY_ATTRIBUTES = (set(StayRecord._fields) - {"user_id"}) | {
    name for name, value in vars(StayRecord).items()
    if isinstance(value, property)}


def per_stay_comprehensions(modules):
    """module:line of every comprehension `[s.<stay attribute> for s in
    ...]` (or its generator form) in `modules`: a column rebuilt from
    stay rows, one object at a time."""
    return [f"{path.stem}:{node.lineno}" for path in modules
            for node in ast.walk(parse(path))
            if isinstance(node, (ast.ListComp, ast.GeneratorExp))
            and isinstance(node.elt, ast.Attribute)
            and node.elt.attr in STAY_ATTRIBUTES
            and isinstance(node.elt.value, ast.Name)
            and any(getattr(g.target, "id", None) == node.elt.value.id
                    for g in node.generators)]


def test_no_stay_column_rebuilt_outside_core():
    # a trajectory holds its stays as columns: read them, not its rows
    assert per_stay_comprehensions(
        [p for p in MODULES if p.name != "core.py"]) == []


def test_per_stay_check_catches_a_rebuilt_column(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\n\n\ndef f(traj, events):\n"
                    "    lat = np.array([s.lat for s in traj])\n"
                    "    hours = sum(s.duration_s for s in traj)\n"
                    "    return [e.weight for e in events], lat, hours\n")
    assert STAY_ATTRIBUTES >= {"start_time", "stop_lon", "lat", "duration_s"}
    assert per_stay_comprehensions([path]) == ["m:5", "m:6"]


def coevents_built(fn):
    """The number of CoEvent rows built while `fn()` runs: every one is
    made by CoEvent.__new__, which this counts."""
    made = []
    new = CoEvent.__new__

    def counting(cls, *args):
        made.append(args)
        return new(cls, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(CoEvent, "__new__", counting)
        fn()
    return len(made)


@pytest.fixture(scope="module")
def world16():
    return harness.generate_world(harness.WorldConfig(n_users=16, seed=3))


def test_all_pairs_features_build_no_event_objects(world16):
    # the metrics read the event table's columns, not one object per event
    rows, _ = harness.pair_dataset(world16)
    assert sum(r.f_fre for r in rows) > 0
    assert coevents_built(lambda: harness.pair_dataset(world16)) == 0


def test_event_count_catches_a_built_row(world16, monkeypatch):
    compute = harness.compute_features
    monkeypatch.setattr(harness, "compute_features",
                        lambda events, *args, **kw: compute(
                            list(events), *args, **kw))
    assert coevents_built(lambda: harness.pair_dataset(world16)) > 0


def stay_records_built(fn):
    """The number of StayRecord rows built while `fn()` runs: by
    StayRecord.__new__, which checks its row, or by core._row, which does
    not; this counts both."""
    made = []
    new, row = StayRecord.__new__, core._row

    def counting_new(cls, *args):
        made.append(args)
        return new(cls, *args)

    def counting_row(values):
        made.append(values)
        return row(values)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(StayRecord, "__new__", counting_new)
        m.setattr(core, "_row", counting_row)
        fn()
    return len(made)


@pytest.fixture(scope="module")
def world16_dir(world16, tmp_path_factory):
    d = tmp_path_factory.mktemp("world16")
    (d / "stays.csv").write_text(world16.stays_csv())
    (d / "edges.csv").write_text(world16.edges_csv())
    (d / "config.json").write_text(
        harness.report_json(dataclasses.asdict(world16.cfg)))
    return d


def test_world_load_builds_no_stay_records(world16_dir):
    # the parser and the grouping keep the stays as columns
    world = cli._load_world(world16_dir)
    assert sum(map(len, world.trajectories.values())) > 1000
    assert stay_records_built(lambda: cli._load_world(world16_dir)) == 0


def test_record_count_catches_a_built_row(world16_dir, monkeypatch):
    group = cli.group_trajectories
    monkeypatch.setattr(cli, "group_trajectories",
                        lambda stays: group(list(stays)))
    assert stay_records_built(lambda: cli._load_world(world16_dir)) > 1000


def test_record_count_catches_a_checked_row():
    assert stay_records_built(lambda: StayRecord("u", 0, 1, 0.0, 0.0, 0.0,
                                                 0.0)) == 1


def csv_readers_made(fn):
    """The number of csv.reader objects made while `fn()` runs."""
    made = []
    reader = csv.reader

    def counting_reader(*args, **kwargs):
        made.append(args)
        return reader(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(csv, "reader", counting_reader)
        fn()
    return len(made)


def test_plain_stays_csv_is_read_without_csv_reader(world16_dir):
    # text with no quote, CR or NUL is split with str methods
    text = (world16_dir / "stays.csv").read_text()
    assert len(core.parse_stays(text)) > 1000
    assert csv_readers_made(lambda: core.parse_stays(text)) == 0


def test_reader_count_catches_a_quoted_stays_csv(world16_dir):
    text = (world16_dir / "stays.csv").read_text()
    header, body = text.split("\n", 1)
    quoted = header + "\n" + re.sub(r"(?m)^([^,\n]*),", r'"\1",', body)
    assert quoted.count('"') == 2 * len(core.parse_stays(text))
    assert csv_readers_made(lambda: core.parse_stays(quoted)) == 1

    def trajectories(text):
        return [(u, [getattr(t, n).tolist() for n in core.COLUMNS])
                for u, t in core.group_trajectories(
                    core.parse_stays(text)).items()]

    assert trajectories(quoted) == trajectories(text)


def test_world_load_heap_peak(tmp_path):
    # csv.reader reads the lines of the text, not an io.StringIO copy of
    # it in 4-byte characters (a 4.8 MB peak on this world when it did)
    world = harness.generate_world(harness.WorldConfig(n_users=64, seed=42))
    (tmp_path / "stays.csv").write_text(world.stays_csv())
    (tmp_path / "edges.csv").write_text(world.edges_csv())
    (tmp_path / "config.json").write_text(
        harness.report_json(dataclasses.asdict(world.cfg)))
    cli._load_world(tmp_path)
    tracemalloc.start()
    try:
        cli._load_world(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_world_models_heap_peak():
    # The EM work queue keeps its (component, point) rows within
    # mobility.EM_ENTRIES entries: 2.18 MB on this world. The bound leaves
    # 0.82 MB (38%) above that and stays 1.19 MB under the 4.19 MB of the
    # stacked blocks of 16 users it replaced.
    world = harness.generate_world(harness.WorldConfig(n_users=64, seed=42))
    harness.fit_world_models(world, seed=7)
    tracemalloc.start()
    try:
        harness.fit_world_models(world, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def metric_rows_built(fn):
    """The number of pair metric rows built through the NamedTuple's
    Python `_PairMetrics.__new__` while `fn()` runs."""
    made = []
    new = colocation._PairMetrics.__new__

    def counting(cls, *args):
        made.append(args)
        return new(cls, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(colocation._PairMetrics, "__new__", counting)
        fn()
    return len(made)


def test_all_pairs_features_build_metric_rows_in_c(world16):
    # the metric pass makes its rows with tuple.__new__
    assert metric_rows_built(lambda: harness.pair_dataset(world16)) == 0


def test_row_count_catches_a_python_built_row(world16, monkeypatch):
    run = colocation._pair_metrics
    monkeypatch.setattr(colocation, "_pair_metrics", lambda table: [
        colocation._PairMetrics(*row) for row in run(table)])
    assert metric_rows_built(lambda: harness.pair_dataset(world16)) > 50


def metric_passes(fn):
    """The number of event-table metric passes run while `fn()` runs."""
    passes = []
    run = colocation._pair_metrics

    def counting(table):
        passes.append(len(table.bounds) - 1)
        return run(table)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(colocation, "_pair_metrics", counting)
        fn()
    return len(passes)


def test_all_pairs_features_run_one_metric_pass(world16):
    # the event table computes every pair's metrics in one batched pass
    assert metric_passes(lambda: harness.pair_dataset(world16)) == 1


def test_pass_count_catches_a_per_pair_recomputation(world16, monkeypatch):
    compute = harness.compute_features
    monkeypatch.setattr(harness, "compute_features",
                        lambda events, *args, **kw: compute(
                            list(events), *args, **kw))
    assert metric_passes(lambda: harness.pair_dataset(world16)) > 1


def exact_distances_off_the_band(fn, alpha):
    """The number of distances that the co-occurrence engine takes with
    the exact `haversine_m` while `fn()` runs and that lie outside the
    recheck band alpha (1 +- colocation._RECHECK)."""
    off = []
    exact = colocation.haversine_m

    def counting(*args):
        d = exact(*args)
        if abs(d - alpha) > colocation._RECHECK * alpha:
            off.append(d)
        return d

    with pytest.MonkeyPatch.context() as m:
        m.setattr(colocation, "haversine_m", counting)
        fn()
    return len(off)


def test_only_pairs_near_the_threshold_take_the_exact_distance(world16):
    # numpy's distances decide the indicator kernel's other pairs
    alpha = harness.COLOCATION.alpha_d_m
    assert exact_distances_off_the_band(
        lambda: harness.pair_dataset(world16), alpha) == 0
    assert exact_distances_off_the_band(lambda: colocation.stay_participation(
        world16.trajectories, harness.COLOCATION), alpha) == 0


def test_band_check_catches_an_all_pairs_exact_distance(world16,
                                                        monkeypatch):
    def all_exact(lat, lon, i, j, cfg):
        return colocation._kernel_weights(colocation._exact_distances_m(
            lat, lon, i, j), cfg.alpha_d_m, cfg.spatial_kernel)

    monkeypatch.setattr(colocation, "_spatial_weights", all_exact)
    assert exact_distances_off_the_band(
        lambda: harness.pair_dataset(world16),
        harness.COLOCATION.alpha_d_m) > 0


def bare_uniques(modules):
    """module:line of every `np.unique(...)` call in `modules` that asks
    for none of its return_* arrays."""
    return [f"{path.stem}:{node.lineno}" for path in modules
            for node in ast.walk(parse(path))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and not any((k.arg or "").startswith("return_")
                        for k in node.keywords)]


def test_no_bare_np_unique():
    # a bare np.unique(x) imports numpy.ma (about 1 MB resident) for its
    # masked-array check; with a return_* flag it does not
    assert bare_uniques(MODULES) == []


def test_bare_unique_check_catches_a_planted_call(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\n\n\ndef f(x):\n"
                    "    a = np.unique(x, return_counts=True)\n"
                    "    return a, np.unique(x)\n")
    assert bare_uniques([path]) == ["m:6"]


def loaded_modules(root, then=""):
    """Names in `sys.modules` of a fresh interpreter once it has run
    `import trajpriv, trajpriv.cli`, and then the code `then`, with the
    package found under `root`."""
    code = ("import sys, trajpriv, trajpriv.cli\n" + then +
            "\nprint(trajpriv.__file__); print(*sorted(sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    origin, names = out.stdout.splitlines()
    assert Path(origin).resolve().parent == (root / "trajpriv").resolve()
    return names.split()


def scipy_modules(names):
    return [name for name in names
            if name == "scipy" or name.startswith("scipy.")]


def test_the_package_loads_no_scipy():
    # the library runs on numpy alone; scipy is a test-only oracle
    assert scipy_modules(loaded_modules(MODULES[0].parents[1])) == []


def test_scipy_check_catches_a_planted_import(tmp_path):
    shutil.copytree(MODULES[0].parent, tmp_path / "trajpriv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fusion = tmp_path / "trajpriv" / "fusion.py"
    fusion.write_text(fusion.read_text() + "\nimport scipy.stats\n")
    assert "scipy.stats" in scipy_modules(loaded_modules(tmp_path))


# one stay_rows call on a trajectory of three stays over two days
STAY_ROWS = """
from trajpriv.core import GridSpec, StayRecord, Trajectory
from trajpriv.publish import stay_rows
stays = [StayRecord("a", t, t + 600, 28.001, 112.901, 28.001, 112.901)
         for t in (0, 3600, 86400)]
days = stay_rows(Trajectory("a", stays),
                 [(0, 0)], GridSpec(28.0, 112.9, 250.0, 40, 40, 60), 16)
assert [len(rows) for rows in days.values()] == [2, 1], days
"""


def test_stay_rows_loads_no_numpy_ma():
    # a bare np.unique(x) imports numpy.ma (about 1 MB resident) for its
    # masked-array check; the synthetic release needs no masked arrays
    assert "numpy.ma" not in loaded_modules(MODULES[0].parents[1], STAY_ROWS)


def test_numpy_ma_check_catches_a_planted_unique(tmp_path):
    shutil.copytree(MODULES[0].parent, tmp_path / "trajpriv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    publish = tmp_path / "trajpriv" / "publish.py"
    text = publish.read_text()
    day = "    day = traj.start // 86400"
    assert text.count(day) == 1
    publish.write_text(text.replace(day, "    np.unique(traj.start)\n" + day))
    assert "numpy.ma" in loaded_modules(tmp_path, STAY_ROWS)


class CountingGenerator(np.random.Generator):
    """A generator that counts its `random` and `standard_normal` calls."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = {"random": 0, "standard_normal": 0}

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return super().random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls["standard_normal"] += 1
        return super().standard_normal(*args, **kwargs)


def dummy_generator_calls(n):
    """The generator calls of one `generate_dummy` over n stays."""
    model = mobility.MobilityModel3D(
        "u", core.LocalProjection(28.04, 112.92),
        np.array([[0.0, 0.0], [900.0, -400.0]]), np.tile(np.eye(2), (2, 1, 1)),
        np.array([0.5, 0.5]), np.full((24, 2), 0.5))
    t = 1568592000 + 3600 * np.arange(n)
    lat, lon = np.full(n, 28.04), np.full(n, 112.92)
    template = core.Trajectory.from_columns("u", t, t + 600, lat, lon, lat,
                                            lon)
    rng = CountingGenerator(n)
    anonymize.generate_dummy(model, template, harness.WorldConfig().grid, rng)
    return rng.calls


@pytest.mark.parametrize("n", [1, 2, 84, 500])
def test_a_dummy_takes_two_generator_blocks(n):
    # its n uniforms, then its n pairs of normals: no per-stay draw loop
    assert dummy_generator_calls(n) == {"random": 1, "standard_normal": 1}


def test_call_count_catches_a_per_stay_draw(monkeypatch):
    def per_stay(self, slots, rng, count):
        u = np.array([[rng.random() for _ in slots] for _ in range(count)])
        z = np.array([[rng.standard_normal(2) for _ in slots]
                      for _ in range(count)])
        j = np.sum(self.cdf[slots] <= u[:, :, None], axis=2)
        return self.means[j] + (self.chol[j] @ z[..., None])[..., 0]

    monkeypatch.setattr(mobility.LocationSampler, "draws", per_stay)
    assert dummy_generator_calls(84) == {"random": 84, "standard_normal": 84}


def social_influence_calls(fn):
    """The user of each friend model that `mobility.social_influence` is
    called with while `fn()` runs, through any name the package holds it
    by."""
    users = []
    orig = mobility.social_influence

    def counting(friend_model, *args):
        users.append(friend_model.user_id)
        return orig(friend_model, *args)

    with pytest.MonkeyPatch.context() as m:
        for name, mod in list(sys.modules.items()):
            if name == "trajpriv" or name.startswith("trajpriv."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        m.setattr(mod, attr, counting)
        fn()
    return users


def k_anonymity_pulls(world):
    models = harness.fit_world_models(world, seed=7)
    policy = anonymize.AnonymityPolicy(l=0.9)
    return social_influence_calls(
        lambda: harness.k_anonymize_world(world, models, policy))


def test_each_friend_model_pulls_once(world16):
    # one pass over every user's cluster centers, not one call per
    # (user, friend)
    users = k_anonymity_pulls(world16)
    assert 0 < len(users) == len(set(users))


def test_pull_count_catches_a_per_user_pass(world16, monkeypatch):
    def per_user(models, friends, slot):
        return {u: mobility.friend_influence(models, {u: fs}, slot)[u]
                for u, fs in friends.items()}

    monkeypatch.setattr(harness, "friend_influence", per_user)
    users = k_anonymity_pulls(world16)
    assert len(users) > len(set(users))
