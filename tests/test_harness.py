import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import mannwhitneyu

from trajpriv import anonymize, fusion, harness
from trajpriv.anonymize import AnonymityPolicy, InsufficientCandidatesError
from trajpriv.cli import _load_world, main as cli_main
from trajpriv.colocation import CoLocationConfig, coevent_score, \
    extract_coevents
from trajpriv.core import (EARTH_RADIUS_M, Cell, GridSpec, StayRecord,
                           Trajectory, cell_center, format_timestamp,
                           group_trajectories, parse_stays, parse_timestamp,
                           to_cell)
from trajpriv.features import features_to_csv
from trajpriv.harness import (DEFENSES, EPOCH_MONDAY, World, WorldConfig,
                              build_pair_dataset, coevent_participation,
                              fit_world_models,
                              fit_world_semantic, generate_world,
                              k_anonymize_world, pair_dataset,
                              publish_synthetic, release_similarity,
                              report_json, report_rows_csv, run_attack,
                              run_defense, sample_negative_pairs)
from trajpriv.mobility import (fit_mobility_model, fit_spatial,
                               friend_influence, project_stays,
                               temporal_influence)
from trajpriv.publish import (embed_trajectory, similarity_report,
                              stay_rows, top_cells)


def small_cfg(**kw):
    base = dict(n_users=24, n_days=7, seed=11)
    base.update(kw)
    return WorldConfig(**base)


@pytest.fixture(scope="module")
def small_world():
    return generate_world(small_cfg())


def pair_scores(world, pairs):
    cfg = CoLocationConfig()
    events = extract_coevents(world.trajectories, cfg, world.grid,
                              pairs=pairs)
    return [coevent_score(events[tuple(sorted(p))]) for p in pairs]


class TestWorldGeneration:
    def test_same_seed_byte_identical(self):
        a = generate_world(small_cfg())
        b = generate_world(small_cfg())
        assert a.stays_csv() == b.stays_csv()
        assert a.edges_csv() == b.edges_csv()

    def test_different_seed_differs(self):
        a = generate_world(small_cfg())
        b = generate_world(small_cfg(seed=12))
        assert a.stays_csv() != b.stays_csv()

    def test_dense_meetings_every_friend_pair_cooccurs(self, monkeypatch):
        monkeypatch.setattr(harness, "P_MEET_LO", 1.0)
        monkeypatch.setattr(harness, "P_MEET_HI", 1.0)
        world = generate_world(small_cfg())
        scores = pair_scores(world, sorted(world.friend_edges))
        assert all(s > 0 for s in scores)

    def test_no_meetings_makes_friends_indistinguishable(self, monkeypatch):
        monkeypatch.setattr(harness, "P_MEET_LO", 0.0)
        monkeypatch.setattr(harness, "P_MEET_HI", 0.0)
        world = generate_world(small_cfg(seed=3))
        pos = sorted(world.friend_edges)
        neg = sample_negative_pairs(world.users, world.friend_edges,
                                    len(pos), np.random.default_rng(1))
        s_pos = pair_scores(world, pos)
        s_neg = pair_scores(world, neg)
        _, p = mannwhitneyu(s_pos, s_neg, alternative="two-sided")
        assert p > 0.01

    def test_trajectories_cover_all_users(self, small_world):
        assert len(small_world.users) == 24
        for u in small_world.users:
            assert len(small_world.trajectories[u]) > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(n_users=1)
        for days in (0, -2):
            with pytest.raises(ValueError, match="at least one day"):
                WorldConfig(n_days=days)

    @pytest.mark.parametrize("key, value, message", [
        ("cell_size_m", math.nan, "cell_size_m must be finite, got nan"),
        ("origin_lat", math.inf, "origin_lat must be finite, got inf"),
        ("origin_lon", -math.inf, "origin_lon must be finite, got -inf"),
        ("cell_size_m", -5.0, "cell_size_m must be positive"),
        ("time_slot_minutes", 7, "time_slot_minutes must divide 1440"),
    ])
    def test_config_checks_its_grid(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WorldConfig(**{key: value})
        grid = dataclasses.asdict(WorldConfig().grid)
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSpec(**{**grid, key: value})

    def test_edges_past_u999_are_stored_in_id_order(self):
        # "u1000" sorts before "u998": the simulator's index order is not
        # the id order its edges must be stored in
        cfg = small_cfg(n_users=1001, n_days=1, seed=0)
        world = World(cfg, {}, {("u998", "u1000"), ("u999", "u1000")})
        assert world.friend_edges == {("u1000", "u998"), ("u1000", "u999")}
        edges = generate_world(cfg).friend_edges
        assert all(a < b for a, b in edges)
        assert any("u1000" in e for e in edges)

    def test_hand_built_world_past_u999_labels_its_pair(self):
        world = hand_built_world({"u999": [((1, 1), 0, 2)],
                                  "u1000": [((1, 1), 1, 3)]},
                                 [("u999", "u1000")])
        rows, _ = pair_dataset(world)
        assert [(f.user_a, f.user_b, f.label) for f in rows] == [
            ("u1000", "u999", True)]


class TestNegativeSampling:
    def test_never_emits_friend_edge(self, small_world):
        for seed in range(10):
            neg = sample_negative_pairs(small_world.users,
                                        small_world.friend_edges, 30,
                                        np.random.default_rng(seed))
            assert not set(neg) & small_world.friend_edges
            assert len(neg) == len(set(neg)) == 30

    def test_impossible_request_raises(self):
        users = ["a", "b"]
        edges = {("a", "b")}
        with pytest.raises(ValueError, match="only 0 of the 1 pairs"):
            sample_negative_pairs(users, edges, 1, np.random.default_rng(0))

    def test_count_check_makes_no_draw(self):
        users = ["a", "b", "c", "d"]
        edges = {("a", "b"), ("c", "d"), ("b", "x")}  # ("b", "x") not among
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"5 negative pairs asked for, "
                           r"but only 4 of the 6 pairs of the 4 users"):
            sample_negative_pairs(users, edges, 5, rng)
        assert rng.bit_generator.state == state
        # exactly as many non-edges as asked: each is drawn
        assert sample_negative_pairs(users, edges, 4, rng) == [
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]


class TestAttack:
    def test_report_rows_and_metric_ranges(self, small_world):
        rows = run_attack(small_world, subsets=("all", "spatial", "temporal"),
                          epochs=150)
        assert [r["subset"] for r in rows] == ["all", "spatial", "temporal"]
        for r in rows:
            for key in ("precision", "recall", "f1", "auc"):
                assert 0.0 <= r[key] <= 1.0
            if r["precision"] + r["recall"] > 0:
                assert r["f1"] == pytest.approx(
                    2 * r["precision"] * r["recall"]
                    / (r["precision"] + r["recall"]))

    def test_shuffled_labels_auc_near_half(self, small_world):
        rows_feat, _ = build_pair_dataset(small_world)
        rng = np.random.default_rng(5)
        labels = np.array([f.label for f in rows_feat])
        aucs = []
        for seed in range(5):
            shuffled = [dataclasses.replace(f, label=bool(lab))
                        for f, lab in zip(rows_feat, rng.permutation(labels))]
            rows = run_attack(small_world, dataset=(shuffled, None),
                              seed=seed, epochs=150)
            aucs.append(rows[0]["auc"])
        assert abs(np.mean(aucs) - 0.5) < 0.15

    def test_semantic_attack_needs_semantic_vectors(self, small_world):
        with pytest.raises(ValueError, match="without semantic vectors"):
            run_attack(small_world, semantic=True,
                       dataset=build_pair_dataset(small_world))

    def test_csv_report_shape(self, small_world):
        rows = run_attack(small_world, subsets=("all",), epochs=50)
        text = report_rows_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "subset,semantic,precision,recall,f1,auc"
        assert len(lines) == 2


@pytest.fixture
def train_calls(monkeypatch):
    """(nets, input width) of every fusion.train call the harness makes."""
    calls = []

    def counted(nets, X, Y, cfg):
        calls.append((len(nets), np.shape(X)[-1]))
        return fusion.train(nets, X, Y, cfg)

    monkeypatch.setattr(harness, "train", counted)
    return calls


@pytest.mark.parametrize("defense", ["none", "k_anonymity"])
def test_defense_report_trains_both_attacks_in_one_call(small_world,
                                                        train_calls, defense):
    run_defense(small_world, defense=defense, epochs=2)
    assert train_calls == [(2, 6)]


def test_defended_dataset_lists_the_raw_pairs_in_order(small_world,
                                                       monkeypatch):
    built = []

    def recorded(world, pairs=None, semantic=False):
        rows, sem = pair_dataset(world, pairs, semantic)
        built.append([(f.user_a, f.user_b, f.label) for f in rows])
        return rows, sem

    monkeypatch.setattr(harness, "pair_dataset", recorded)
    run_defense(small_world, defense="k_anonymity", epochs=2)
    raw, defended = built
    assert defended == raw
    assert raw == [(f.user_a, f.user_b, f.label)
                   for f in build_pair_dataset(small_world)[0]]
    assert sum(label for _, _, label in raw) == len(small_world.friend_edges)


@pytest.mark.parametrize("pairs", [
    [("u000", "u001"), ("u001", "u000")],
    [("u000", "u001"), ("u002", "u003"), ("u000", "u001")],
])
def test_repeated_pair_is_rejected(small_world, pairs):
    """One feature row per pair asked: a repeated pair is an error, not a
    row merged away."""
    with pytest.raises(ValueError, match=r"pair \('u00[01]', 'u00[01]'\) "
                                         "asked twice"):
        pair_dataset(small_world, pairs)


def test_reversed_edges_give_the_same_pair_dataset(small_world):
    reversed_world = World(small_world.cfg, small_world.trajectories,
                           {(b, a) for a, b in small_world.friend_edges})
    assert reversed_world.friend_edges == small_world.friend_edges
    rows, _ = build_pair_dataset(reversed_world)
    assert rows == build_pair_dataset(small_world)[0]
    assert sum(f.label for f in rows) == len(small_world.friend_edges)


def test_attack_trains_one_call_per_input_width(small_world, train_calls):
    subsets = ["all", "spatial", "temporal",
               "f_fre", "f_pop", "f_div", "f_int", "f_stay", "f_hol"]
    rows = run_attack(small_world, subsets, epochs=2)
    assert [r["subset"] for r in rows] == subsets
    assert train_calls == [(1, 6), (2, 3), (6, 1)]


class TestDefense:
    def test_noop_defense_equals_raw(self, small_world):
        out = run_defense(small_world, defense="none", epochs=100)
        assert out["raw"] == out["defended"]
        assert "similarity" not in out

    def test_unknown_defense_rejected(self, small_world):
        with pytest.raises(ValueError):
            run_defense(small_world, defense="bogus", epochs=10)


def hand_built_world(stays_by_user, edges):
    """World from {user: [((x, y), start hour, stop hour), ...]}; a cell of
    None puts the stay about 1 km south of the grid."""
    cfg = WorldConfig(n_users=len(stays_by_user), n_days=2, seed=0)
    grid = cfg.grid
    trajs = {}
    for u, stays in stays_by_user.items():
        records = []
        for cell, h0, h1 in stays:
            if cell is None:
                lat, lon = cfg.origin_lat - 0.009, cfg.origin_lon + 0.01
            else:
                lat, lon = cell_center(Cell(*cell), grid)
            records.append(StayRecord(u, EPOCH_MONDAY + h0 * 3600,
                                      EPOCH_MONDAY + h1 * 3600,
                                      lat, lon, lat, lon))
        trajs[u] = Trajectory(u, records)
    return World(cfg, trajs, set(edges))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_json_rejects_a_non_finite_value(value):
    # bare NaN or Infinity tokens are not JSON: no parser reads them back
    report = {"auc": 0.5, "rows": [{"f1": 1.0}]}
    assert json.loads(report_json(report)) == report
    report["rows"][0]["f1"] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_json(report)


def test_publish_synthetic_skips_stays_outside_grid():
    world = hand_built_world(
        {"u0": [((1, 1), 0, 8), ((5, 5), 9, 17), ((1, 1), 24, 30)],
         "u1": [((2, 2), 0, 8), ((5, 5), 9, 17), (None, 30, 32)]},
        [("u0", "u1")])
    published = publish_synthetic(world, gan_steps=20, seed=0)
    assert sorted(published) == ["u0", "u1"]
    u1 = world.trajectories["u1"]
    in_grid = Trajectory("u1", u1.stays[:2])
    assert (embed_trajectory(u1, world.grid).entries
            == embed_trajectory(in_grid, world.grid).entries)
    rep = similarity_report(world.trajectories, published, world.grid,
                            fit_world_semantic(world), CoLocationConfig())
    assert all(0.0 <= v <= 1.0 for v in rep.values())


def write_world_dir(world, d):
    """The three files of a world directory, as `trajpriv simulate` writes
    them."""
    (d / "stays.csv").write_text(world.stays_csv())
    (d / "edges.csv").write_text(world.edges_csv())
    (d / "config.json").write_text(report_json(dataclasses.asdict(world.cfg)))


def grid_point(grid, x_m, y_m):
    """(lat, lon) at x_m east and y_m north of the grid origin."""
    lat = grid.origin_lat + math.degrees(y_m / EARTH_RADIUS_M)
    lon = grid.origin_lon + math.degrees(
        x_m / (EARTH_RADIUS_M * math.cos(math.radians(grid.origin_lat))))
    return lat, lon


@pytest.fixture(scope="module")
def small_models(small_world):
    return fit_world_models(small_world, seed=3)


def test_social_flags_are_the_per_stay_participation_fractions(small_world,
                                                                 small_models):
    participation = coevent_participation(small_world)
    flagged = 0
    for i, u in enumerate(small_world.users):
        # each user fitted alone; fit_world_models fits them all in one
        # work queue
        proj, X = project_stays(small_world.trajectories[u])
        fit, = fit_spatial([X], "auto", [3 + i])
        model, assign = fit_mobility_model(small_world.trajectories[u],
                                           small_world.grid, proj, X, fit,
                                           participation[u])
        assert model.n_components == small_models[u].n_components
        hits = np.zeros(model.n_components)
        tot = np.zeros(model.n_components)
        for j, hit in zip(assign, participation[u]):
            tot[j] += 1
            hits[j] += 1 if hit else 0
        frac = np.where(tot > 0, hits / np.maximum(tot, 1), 0.0)
        assert small_models[u].social_flags.tolist() == (frac >= 0.25).tolist()
        flagged += int(small_models[u].social_flags.sum())
    assert flagged > 0


def test_fixed_m_above_a_users_stay_count_names_the_user():
    world = hand_built_world({"a": [((1, 1), 0, 2), ((4, 4), 3, 5)],
                              "b": [((1, 1), 0, 2)]}, [])
    with pytest.raises(ValueError, match=r"^user b: 2 components need at "
                                         r"least 2 stays, got 1$"):
        fit_world_models(world, m=2)


@pytest.mark.parametrize("m", [0, -1, "7x", 2.0, None])
def test_an_invalid_component_count_is_named(m):
    world = hand_built_world({"a": [((1, 1), 0, 2), ((4, 4), 3, 5)],
                              "b": [((1, 1), 0, 2), ((2, 2), 3, 5)]}, [])
    with pytest.raises(ValueError) as exc:
        fit_world_models(world, m=m)
    assert str(exc.value) == ("the component count m must be 'auto' or a "
                              f"positive integer, got {m!r}")


@pytest.mark.parametrize("m", ["auto", 1, 2])
def test_a_user_without_stays_is_named(m):
    world = hand_built_world({"a": [((1, 1), 0, 2), ((4, 4), 3, 5)],
                              "b": [], "c": [((2, 2), 0, 2)]}, [])
    with pytest.raises(ValueError, match=r"^user b has no stays$"):
        fit_world_models(world, m=m)


def test_a_users_mixture_does_not_depend_on_the_other_users():
    # the first k users keep their indices, so their seeds; the social flags
    # depend on the other users' stays, so only the mixture is compared
    world = generate_world(WorldConfig(n_users=64, seed=42))
    models = fit_world_models(world, seed=7)
    for k in (5, 17):
        users = world.users[:k]
        sub = World(world.cfg, {u: world.trajectories[u] for u in users},
                    set())
        for u, model in fit_world_models(sub, seed=7).items():
            for name in ("means", "covs", "weights"):
                assert np.array_equal(getattr(model, name),
                                      getattr(models[u], name)), (k, u, name)
            assert model.ll_trace == models[u].ll_trace, (k, u)


def scalar_social_influence(fm, point, slot):
    c1 = fm.means[int(np.argmax(fm.weights))]
    c_slot = fm.temporal_profile[slot] @ fm.means
    num = float(np.linalg.norm(np.asarray(point) - c1))
    den = max(float(np.linalg.norm(c1 - c_slot)), 1.0)
    return math.exp(-num / den)


def test_friend_influence_equals_the_cluster_by_friend_loop(small_world,
                                                            small_models):
    users = small_world.users
    # 0 to 12 friends, listed one way only, so the mean runs over short
    # and long rows
    friends = {u: (users[i + 1:] + users)[:i % 13]
               for i, u in enumerate(users)}
    for slot in (0, 8, 19):
        got = friend_influence(small_models, friends, slot)
        assert list(got) == users
        for u, fs in friends.items():
            model = small_models[u]
            want = [0.0] * model.n_components
            for j in range(model.n_components * bool(fs)):
                lat, lon = model.projection.to_latlon(model.means[j])
                want[j] = float(np.mean([
                    0.5 * scalar_social_influence(
                        fm, fm.projection.to_xy(lat, lon), slot)
                    + 0.5 * temporal_influence(fm, slot)
                    for fm in (small_models[f] for f in fs)]))
            assert got[u].tolist() == want, (slot, u)


def test_participation_uses_the_cooccurrence_distance():
    """50 m apart across a cell edge co-occurs; opposite corners of one
    cell, about 340 m apart, do not (alpha_d = 250 m)."""
    base = hand_built_world({"u0": [], "u1": [], "u2": [], "u3": []}, [])
    places = {"u0": (1375, 1490), "u1": (1375, 1540),
              "u2": (1255, 1255), "u3": (1495, 1495)}
    trajs = {}
    for u, (x, y) in places.items():
        lat, lon = grid_point(base.grid, x, y)
        h0 = 0 if u in ("u0", "u1") else 3
        trajs[u] = Trajectory(u, [StayRecord(
            u, EPOCH_MONDAY + h0 * 3600, EPOCH_MONDAY + (h0 + 1) * 3600,
            lat, lon, lat, lon)])
    world = World(base.cfg, trajs, set())
    cells = {u: to_cell(t.stays[0].lat, t.stays[0].lon, world.grid)
             for u, t in trajs.items()}
    assert cells["u0"] != cells["u1"] and cells["u2"] == cells["u3"]
    assert coevent_participation(world) == {
        "u0": [True], "u1": [True], "u2": [False], "u3": [False]}


def test_a_stay_before_the_world_epoch_keeps_its_own_day():
    world = hand_built_world({"u0": [((1, 1), -24, -20), ((2, 2), 0, 8),
                                     ((1, 1), 30, 32)], "u1": []}, [])
    traj = world.trajectories["u0"]
    days = stay_rows(traj, top_cells(traj, world.grid, 16), world.grid, 16)
    first = EPOCH_MONDAY // 86400
    # one row per day: its start slot within that day
    assert {d: rows[:, 1].tolist() for d, rows in days.items()} == {
        first - 1: [0.0], first: [0.0], first + 1: [6.0]}


def test_synthetic_release_publishes_trajectories():
    world = generate_world(WorldConfig(n_users=64, seed=42))
    published = publish_synthetic(world, seed=7)
    real = sum(len(t) for t in world.trajectories.values())
    assert sorted(published) == world.users
    assert all(len(published[u]) > 0 for u in world.users)
    assert sum(len(t) for t in published.values()) >= 0.4 * real
    for u in world.users:
        own = set(top_cells(world.trajectories[u], world.grid, 16))
        assert {(c.x, c.y) for s in published[u]
                for c in [to_cell(s.lat, s.lon, world.grid)]} <= own
    rep = release_similarity(world, published, seed=7)
    assert rep["spatial_jsd"] <= 0.3
    assert rep["temporal_jsd"] <= 0.62


class TestCli:
    def test_anonymize_matches_library(self, tmp_path):
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "16", "--days", "5",
                  "--out", str(d)])
        out = tmp_path / "anon"
        assert cli_main(["--seed", "3", "anonymize", "--world", str(d),
                         "--out", str(out)]) == 0
        world = _load_world(d)
        sets = k_anonymize_world(world, fit_world_models(world, seed=3),
                                 AnonymityPolicy(k=5, l=0.3), seed=3)
        for u in world.users:
            assert ((out / f"{u}.audit.json").read_text()
                    == report_json(sets[u].audit))
            assert (out / f"{u}.jsonl").read_text() == sets[u].to_jsonl()

    def test_anonymize_failure_names_the_user(self, tmp_path, capsys,
                                              monkeypatch):
        d = tmp_path / "w"
        cli_main(["--seed", "2", "simulate", "--users", "16", "--days", "5",
                  "--out", str(d)])
        assert cli_main(["--seed", "3", "anonymize", "--world", str(d),
                         "--l", "0.003", "--out", str(tmp_path / "a")]) == 1
        err = capsys.readouterr().err
        world = _load_world(d)
        failing = []

        def k_anonymize(real, *args, **kwargs):
            try:
                return anonymize.k_anonymize(real, *args, **kwargs)
            except InsufficientCandidatesError:
                failing.append(real.user_id)
                raise

        monkeypatch.setattr(harness, "k_anonymize", k_anonymize)
        with pytest.raises(InsufficientCandidatesError) as exc:
            k_anonymize_world(world, fit_world_models(world, seed=3),
                              AnonymityPolicy(k=5, l=0.003), seed=3)
        first = exc.value.failures[0][0]
        # not the first user, so the name comes from the failing one
        assert first != world.users[0]
        assert err == f"error: {exc.value}\n"
        assert err.startswith(f"error: user {first}: accepted ")
        assert "acceptance rate" in err
        # every user ran, and each failing one is named, in order
        assert 1 < len(failing) < len(world.users)
        assert [u for u, _, _ in exc.value.failures] == failing
        assert str(exc.value) == "; ".join(
            f"user {u}: accepted {a}/4 dummies in {n} attempts (acceptance "
            f"rate {a / n:.3f})" for u, a, n in exc.value.failures)

    @pytest.mark.parametrize("command", ["fit-mobility", "anonymize"])
    def test_a_user_id_with_a_path_separator_writes_nothing(
            self, tmp_path, capsys, command):
        world = generate_world(small_cfg(n_users=16, n_days=5, seed=9))
        names = {u: u for u in world.users}
        names[world.users[3]] = "../escaped"
        d = tmp_path / "w"
        d.mkdir()
        write_world_dir(mapped_world(world, names), d)
        out = tmp_path / "runs" / "out"
        assert cli_main([command, "--world", str(d), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: user ../escaped: an id with a path separator cannot "
            f"name a file in {out}\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("value, code, error", [
        ("0", 1, "error: the component count m must be 'auto' or a positive "
                 "integer, got 0\n"),
        ("-1", 1, "error: the component count m must be 'auto' or a "
                  "positive integer, got -1\n"),
        ("7x", 2, "argument --components: invalid auto_or_int value: "
                  "'7x'\n")])
    def test_an_invalid_component_count_is_named(self, tmp_path, capsys,
                                                 value, code, error):
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "16", "--days", "5",
                  "--out", str(d)])
        capsys.readouterr()
        out = tmp_path / "models"
        assert cli_main(["fit-mobility", "--world", str(d), "--components",
                         value, "--out", str(out)]) == code
        assert capsys.readouterr().err.endswith(error)
        assert not any(out.glob("*.json"))

    @pytest.mark.parametrize("command", ["features", "report"])
    def test_overlapping_stays_name_the_user(self, tmp_path, capsys,
                                             command):
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "8", "--days", "2",
                  "--out", str(d)])
        lines = (d / "stays.csv").read_text().splitlines(keepends=True)
        rows = [i for i, line in enumerate(lines) if line.startswith("u001,")]
        first = lines[rows[0]].split(",")
        second = lines[rows[1]].split(",")
        # the second stay of u001 now starts a minute before the first ends
        start = format_timestamp(parse_timestamp(first[4]) - 60)
        lines[rows[1]] = ",".join([second[0], start, *second[2:]])
        (d / "stays.csv").write_text("".join(lines))
        assert cli_main([command, "--world", str(d),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: user u001: stay {start} to {second[4]} overlaps stay "
            f"{first[1]} to {first[4]}\n")

    def test_similarity_matches_run_defense(self, tmp_path):
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "16", "--days", "5",
                  "--out", str(d)])
        out = tmp_path / "similarity.json"
        assert cli_main(["--seed", "3", "publish", "similarity", "--world",
                         str(d), "--out", str(out)]) == 0
        rep = run_defense(_load_world(d), defense="publish_synthetic",
                          seed=3, epochs=10)
        assert out.read_text() == report_json(rep["similarity"])

    def test_publish_synth_stays_read_back_as_the_release(self, tmp_path):
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "16", "--days", "5",
                  "--out", str(d)])
        out = tmp_path / "synth.csv"
        assert cli_main(["--seed", "3", "publish", "synth", "--world",
                         str(d), "--out", str(out)]) == 0
        published = publish_synthetic(_load_world(d), seed=3)
        release = [s for u in sorted(published) for s in published[u]]
        # Python floats, which serialize_stays writes as plain numbers
        assert {type(v) for s in release for v in s[3:]} == {float}
        assert parse_stays(out.read_text()) == release

    def test_load_world_round_trips_ids_with_commas(self, tmp_path):
        world = hand_built_world({"a,b": [((1, 1), 0, 2)],
                                  "c": [((2, 2), 0, 2)]}, [("a,b", "c")])
        write_world_dir(world, tmp_path)
        loaded = _load_world(tmp_path)
        assert loaded.friend_edges == {("a,b", "c")}
        assert loaded.users == ["a,b", "c"]

    @pytest.mark.parametrize("name, text, message", [
        ("edges.csv", "user_a,user_b\na,c\na,c,a\n",
         "edges.csv row 2: expected 2 fields, got 3"),
        ("edges.csv", "user_a,user_b\na,zz\n",
         "edges.csv row 1: user zz has no stays in stays.csv"),
        ("edges.csv", "user_a,user_b\na,c\nc, c\n",
         "edges.csv row 2: self-loop on user c"),
        ("edges.csv", "a,c\n",
         "edges.csv: expected the header user_a,user_b, found 'a,c'"),
        ("edges.csv", "",
         "edges.csv: expected the header user_a,user_b, found no header"),
        ("edges.csv", "user_a,user_b\na,c\n" + "x" * 200_000 + ",a\n",
         "edges.csv row 2: field larger than field limit (131072)"),
        ("edges.csv", "x" * 200_000 + "\na,c\n",
         "edges.csv: field larger than field limit (131072)"),
        ("config.json", '{"n_users": 2, "seed": 0, "colour": 1, "alpha": 2}',
         "config.json: unknown keys ['alpha', 'colour']"),
        ("config.json", '{"n_users": "4"}',
         "config.json: n_users must be int, got '4'"),
        ("config.json", '{"seed": true}',
         "config.json: seed must be int, got True"),
        ("config.json", '{"n_days": 7.0}',
         "config.json: n_days must be int, got 7.0"),
        ("config.json", '{"cell_size_m": "250"}',
         "config.json: cell_size_m must be float, got '250'"),
        ("config.json", "",
         "config.json: Expecting value: line 1 column 1 (char 0)"),
        ("config.json", '["n_users"]',
         "config.json: expected an object, got ['n_users']"),
        ("config.json", '{"origin_lat": NaN}',
         "config.json: origin_lat must be finite, got nan"),
        ("config.json", '{"cell_size_m": Infinity}',
         "config.json: cell_size_m must be finite, got inf"),
        ("config.json", '{"origin_lon": -Infinity}',
         "config.json: origin_lon must be finite, got -inf"),
        ("config.json", '{"cell_size_m": -5.0}',
         "config.json: cell_size_m must be positive"),
        ("config.json", '{"n_users": 1}',
         "config.json: need at least two users"),
        ("config.json", '{"graph_model": "planted-partition", "colour": 1}',
         "config.json: unknown keys ['colour']"),
    ], ids=["edge-fields", "edge-user", "edge-self-loop", "edge-no-header",
            "edge-empty", "edge-unreadable-row", "edge-unreadable-header",
            "config-key", "config-str-int", "config-bool-int",
            "config-float-int", "config-str-float", "config-empty",
            "config-list",
            "config-nan", "config-inf", "config-neg-inf", "config-negative",
            "config-one-user", "config-retired-and-unknown"])
    def test_malformed_world_fails_with_row_error(self, tmp_path, capsys,
                                                  name, text, message):
        world = hand_built_world({"a": [((1, 1), 0, 2)],
                                  "c": [((1, 1), 1, 3)]}, [("a", "c")])
        write_world_dir(world, tmp_path)
        (tmp_path / name).write_text(text)
        assert cli_main(["features", "--world", str(tmp_path),
                         "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_float_field_takes_an_int(self, tmp_path):
        world = hand_built_world({"a": [((1, 1), 0, 2)],
                                  "c": [((1, 1), 1, 3)]}, [("a", "c")])
        write_world_dir(world, tmp_path)
        (tmp_path / "config.json").write_text('{"cell_size_m": 100}')
        assert _load_world(tmp_path).cfg.cell_size_m == 100

    def test_config_without_the_world_size_takes_it_from_the_data(
            self, tmp_path):
        world = hand_built_world({"a": [((1, 1), 0, 2)],
                                  "c": [((1, 1), 1, 3), ((2, 2), 30, 31)]},
                                 [("a", "c")])
        write_world_dir(world, tmp_path)
        (tmp_path / "config.json").write_text('{"cell_size_m": 100}')
        cfg = _load_world(tmp_path).cfg
        assert (cfg.n_users, cfg.n_days) == (2, 2)
        (tmp_path / "config.json").write_text('{"n_days": 9}')
        cfg = _load_world(tmp_path).cfg
        assert (cfg.n_users, cfg.n_days) == (2, 9)

    def test_world_of_one_user_is_rejected(self, tmp_path, capsys):
        world = hand_built_world({"a": [((1, 1), 0, 2)],
                                  "c": [((1, 1), 1, 3)]}, [])
        write_world_dir(world, tmp_path)
        rows = (tmp_path / "stays.csv").read_text().splitlines()
        (tmp_path / "stays.csv").write_text("\n".join(rows[:2]) + "\n")
        (tmp_path / "config.json").write_text("{}")
        assert cli_main(["features", "--world", str(tmp_path),
                         "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: stays.csv: a world needs at least two users, found 1\n")

    def test_row_order_of_the_world_files_changes_no_output(self, tmp_path):
        # shuffled stays.csv and edges.csv rows load to the same features
        # CSV and defense reports
        d, e = tmp_path / "w", tmp_path / "shuffled"
        assert cli_main(["--seed", "9", "simulate", "--users", "16",
                         "--days", "5", "--out", str(d)]) == 0
        e.mkdir()
        rng = np.random.default_rng(0)
        for name in ("stays.csv", "edges.csv"):
            header, *rows = (d / name).read_text().splitlines()
            rows = [rows[k] for k in rng.permutation(len(rows))]
            (e / name).write_text("\n".join([header, *rows]) + "\n")
        (e / "config.json").write_text((d / "config.json").read_text())
        assert (e / "stays.csv").read_text() != (d / "stays.csv").read_text()
        outputs = []
        for w in (d, e):
            assert cli_main(["features", "--world", str(w),
                             "--out", str(w / "f.csv")]) == 0
            world = _load_world(w)
            outputs.append([(w / "f.csv").read_text()] + [
                report_json(run_defense(world, defense=defense, seed=3,
                                        epochs=10))
                for defense in ("k_anonymity", "publish_synthetic")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("config, message", [
        ({"n_users": 3}, "n_users is 3, but stays.csv holds 16 users"),
        ({"n_days": 1}, "n_days is 1, but stays in stays.csv start on 5 "
                        "distinct UTC days"),
        ({"n_users": 3, "n_days": 1},
         "n_users is 3, but stays.csv holds 16 users"),
    ], ids=["users", "days", "both"])
    def test_config_that_contradicts_the_stays_is_rejected(
            self, tmp_path, capsys, config, message):
        # a 16-user, 5-day world whose config.json says fewer
        d = tmp_path / "w"
        assert cli_main(["--seed", "9", "simulate", "--users", "16",
                         "--days", "5", "--out", str(d)]) == 0
        full = json.loads((d / "config.json").read_text())
        (d / "config.json").write_text(json.dumps({**full, **config}))
        assert cli_main(["features", "--world", str(d),
                         "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == f"error: config.json: {message}\n"
        # more days than the stays start on is a world with quiet days
        (d / "config.json").write_text(json.dumps({**full, "n_days": 6}))
        assert _load_world(d).cfg.n_days == 6

    def test_config_with_the_retired_simulator_keys_loads(self, tmp_path):
        # the 23 keys `trajpriv simulate` wrote while the simulator's
        # settings were config fields; a loaded world never read the 15
        # that are now constants of the simulator
        d = tmp_path / "w"
        assert cli_main(["--seed", "9", "simulate", "--users", "16",
                         "--days", "5", "--out", str(d)]) == 0
        world = _load_world(d)
        retired = {
            "graph_model": "ring-rewire", "ws_neighbors": 4,
            "ws_rewire_p": 0.1, "pp_groups": 4, "pp_p_in": 0.3,
            "pp_p_out": 0.01, "n_workplaces": 8, "n_social_venues": 24,
            "venues_per_pair": 2, "p_meet_lo": 0.1, "p_meet_hi": 0.4,
            "weekend_multiplier": 1.6, "p_two_slot_meeting": 0.3,
            "p_solo_jump": 0.05, "noise_sigma_m": 30.0}
        config = {**dataclasses.asdict(world.cfg), **retired}
        assert len(config) == 23
        for changed in ({}, {"graph_model": "planted-partition",
                             "noise_sigma_m": -1.0, "p_meet_lo": 2}):
            (d / "config.json").write_text(json.dumps({**config, **changed}))
            loaded = _load_world(d)
            assert loaded.cfg == world.cfg
            assert loaded.friend_edges == world.friend_edges
            assert loaded.stays_csv() == world.stays_csv()

    def test_simulate_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        for d in (d1, d2):
            assert cli_main(["--seed", "9", "simulate", "--users", "16",
                             "--days", "5", "--out", str(d)]) == 0
        assert (d1 / "stays.csv").read_bytes() == \
            (d2 / "stays.csv").read_bytes()
        assert (d1 / "edges.csv").read_bytes() == \
            (d2 / "edges.csv").read_bytes()
        cfg = json.loads((d1 / "config.json").read_text())
        assert cfg["n_users"] == 16

    def test_attack_row_count(self, tmp_path, capsys):
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "16", "--days", "5",
                  "--out", str(d)])
        out = tmp_path / "attack.csv"
        code = cli_main(["attack", "--world", str(d),
                         "--subsets", "all,spatial", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3     # header + one row per subset

    def test_ingest_roundtrip(self, tmp_path):
        # ingest of a world's stays.csv writes it again, byte for byte
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "4", "--days", "2",
                  "--out", str(d)])
        out = tmp_path / "stays.csv"
        assert cli_main(["ingest", "--input", str(d / "stays.csv"),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (d / "stays.csv").read_bytes()

    def test_ingest_skip_bad_rows_writes_the_valid_stays(self, tmp_path,
                                                         capsys):
        # with planted bad rows, --skip-bad-rows writes a file that parses
        # strictly to the stays that the skipping parse kept
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "4", "--days", "2",
                  "--out", str(d)])
        lines = (d / "stays.csv").read_text().split("\n")
        good = lines[1].split(",")
        lines[2:2] = [",".join(["u 9", *good[1:4], "not-a-time", *good[5:]]),
                      ",".join(['"a\rb"', *good[1:]]), ",".join(good[:6]),
                      ",".join([" u9", *good[1:]])]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        out = tmp_path / "stays.csv"
        capsys.readouterr()
        assert cli_main(["ingest", "--input", str(bad), "--out", str(out),
                         "--skip-bad-rows"]) == 0
        kept, errors = parse_stays(bad.read_text(), strict=False)
        assert [e.row for e in errors] == [2, 3, 4]
        assert capsys.readouterr().err == "".join(
            f"skipped {e}\n" for e in errors)
        assert parse_stays(out.read_text()) == kept
        assert "u9" in kept.users

    def test_ingest_names_a_row_csv_cannot_read(self, tmp_path, capsys):
        # a user id over csv's field size limit is a bad row: an error
        # with its row number, or a skipped row with --skip-bad-rows
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "4", "--days", "2",
                  "--out", str(d)])
        lines = (d / "stays.csv").read_text().split("\n")
        lines[3] = "x" * 200_000 + lines[3][lines[3].index(","):]
        (d / "stays.csv").write_text("\n".join(lines))
        out = tmp_path / "stays.csv"
        args = ["ingest", "--input", str(d / "stays.csv"), "--out", str(out)]
        capsys.readouterr()
        assert cli_main(args) == 1
        reason = "row 3: field larger than field limit (131072)"
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()
        assert cli_main(args + ["--skip-bad-rows"]) == 0
        assert capsys.readouterr().err == f"skipped {reason}\n"
        # the header and every stay but the bad one
        assert out.read_text().count("\n") == len(lines) - 2

    @pytest.mark.parametrize("flags", [[], ["--skip-bad-rows"]])
    def test_ingest_rejects_a_user_whose_stays_overlap(self, tmp_path,
                                                       capsys, flags):
        # rows that each parse, but a user's stays the loader rejects
        raw = tmp_path / "raw.csv"
        stay = "u1,16/09/2019 {}:00,28.0,113.0,16/09/2019 {}:00,28.0,113.0"
        raw.write_text(
            "ID,Start time,Start lat,Start lon,Stop time,Stop lat,Stop lon\n"
            + stay.format("10:00", "11:00") + "\n"
            + stay.format("10:30", "12:00") + "\n")
        out = tmp_path / "stays.csv"
        assert cli_main(["ingest", "--input", str(raw), "--out", str(out),
                         *flags]) == 1
        with pytest.raises(ValueError) as exc:
            group_trajectories(parse_stays(raw.read_text()))
        assert "overlaps" in str(exc.value)
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, out, reason", [
        (["simulate", "--users", "8"], "a_file", "a_file is not a directory"),
        (["ingest", "--input", "w/stays.csv"], "a_dir", "is a directory"),
        (["features", "--world", "w"], "no_dir/x", "no directory no_dir"),
        (["attack", "--world", "w"], "a_dir", "is a directory"),
        (["fit-mobility", "--world", "w"], "a_file",
         "a_file is not a directory"),
        (["anonymize", "--world", "w"], "a_file/x",
         "a_file is not a directory"),
        (["publish", "synth", "--world", "w"], "a_dir", "is a directory"),
        (["publish", "similarity", "--world", "w"], "no_dir/x",
         "no directory no_dir"),
        (["report", "--world", "w"], "a_dir", "is a directory")])
    def test_an_unusable_out_is_named_before_any_work(
            self, tmp_path, capsys, monkeypatch, argv, out, reason):
        monkeypatch.chdir(tmp_path)
        cli_main(["--seed", "9", "simulate", "--users", "16", "--days", "5",
                  "--out", "w"])
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("taken\n")
        capsys.readouterr()
        assert cli_main(argv + ["--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: --out {out}: {reason}\n")
        assert (tmp_path / "a_file").read_text() == "taken\n"
        assert not any((tmp_path / "a_dir").iterdir())

    def test_an_input_that_cannot_be_read_is_named(self, tmp_path, capsys):
        # any OSError of a command is an error line, not a traceback
        code = cli_main(["ingest", "--input", str(tmp_path),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    def test_missing_input_exit_1(self, tmp_path, capsys):
        code = cli_main(["ingest", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "missing input file" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, capsys):
        assert cli_main(["simulate", "--bogus-flag", "1"]) == 2

    def test_features_has_no_colocation_flags(self, tmp_path, capsys):
        # features uses the one co-location config of every command
        for flag in ("--alpha-d", "--alpha-t", "--kernel"):
            value = "exponential" if flag == "--kernel" else "100"
            assert cli_main(["features", "--world", str(tmp_path),
                             "--out", str(tmp_path / "f.csv"),
                             flag, value]) == 2

    def test_features_writes_the_pair_dataset_of_every_pair(self, tmp_path,
                                                            capsys):
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "8", "--days", "3",
                  "--out", str(d)])
        out = tmp_path / "f.csv"
        assert cli_main(["features", "--world", str(d),
                         "--out", str(out)]) == 0
        rows, sem = pair_dataset(_load_world(d))
        assert sem is None and len(rows) == 8 * 7 // 2
        assert out.read_text() == features_to_csv(rows)

    def test_report_names_the_pair_counts_of_a_too_small_world(
            self, tmp_path, capsys):
        # the ring friend graph of 8 users has 16 edges of 28 pairs: a 1:1
        # attack dataset would need 16 non-edges, and 12 exist
        for users in ("8", "9"):
            cli_main(["--seed", "9", "simulate", "--users", users, "--days",
                      "3", "--out", str(tmp_path / users)])
        capsys.readouterr()
        assert cli_main(["report", "--world", str(tmp_path / "8"), "--out",
                         str(tmp_path / "r8.json")]) == 1
        assert capsys.readouterr().err == (
            "error: 16 negative pairs asked for, but only 12 of the 28 "
            "pairs of the 8 users are not friend edges\n")
        assert not (tmp_path / "r8.json").exists()
        assert cli_main(["report", "--world", str(tmp_path / "9"), "--out",
                         str(tmp_path / "r9.json")]) == 0
        assert json.loads((tmp_path / "r9.json").read_text())["raw"]

    def test_similarity_of_a_world_off_the_grid_names_the_measure(
            self, tmp_path, capsys):
        d = tmp_path / "w"
        cli_main(["--seed", "3", "simulate", "--users", "12", "--days", "3",
                  "--out", str(d)])
        off_the_grid(d, stay_table(d), set(_load_world(d).users))
        capsys.readouterr()
        for argv in (["publish", "similarity"],
                     ["report", "--defense", "publish_synthetic"]):
            assert cli_main([*argv, "--world", str(d),
                             "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == (
                "error: spatial JSD: the real world has no stay on the "
                "grid\n")

    def test_an_attack_split_without_a_class_names_the_friend_edges(
            self, tmp_path, capsys):
        d = tmp_path / "w"
        cli_main(["--seed", "0", "simulate", "--users", "9", "--days", "3",
                  "--out", str(d)])
        (d / "edges.csv").write_text("user_a,user_b\nu000,u001\n")
        capsys.readouterr()
        assert cli_main(["report", "--world", str(d), "--defense", "none",
                         "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            "error: degenerate split: the attack's 1 test pairs hold no "
            "non-friend pair; 1 of its 2 pairs are friend edges\n")

    def test_missing_subcommand_exit_2(self, capsys):
        assert cli_main([]) == 2


def world_outputs(world, names=None):
    """The features CSV and the k_anonymity and publish_synthetic reports
    of a world. With `names`, the renaming that made the world from
    another, the features CSV names each user as that other world does."""
    rows, _ = pair_dataset(world)
    if names:
        back = {new: old for old, new in names.items()}
        rows = [dataclasses.replace(r, user_a=back[r.user_a],
                                    user_b=back[r.user_b]) for r in rows]
    return [features_to_csv(rows)] + [
        report_json(run_defense(world, defense=defense, seed=3, epochs=10))
        for defense in ("k_anonymity", "publish_synthetic")]


def mapped_world(world, names, shift=0):
    """The world with each user u renamed names[u] and every stay moved by
    `shift` seconds."""
    trajectories = {names[u]: Trajectory.from_columns(
        names[u], t.start + shift, t.stop + shift, t.start_lat, t.start_lon,
        t.stop_lat, t.stop_lon) for u, t in world.trajectories.items()}
    return World(world.cfg, trajectories,
                 {(names[a], names[b]) for a, b in world.friend_edges})


# from 9 users on: an 8-user world has too few non-friend pairs for the
# attack's 1:1 dataset, so no defense report runs on it
world_sizes = st.fixed_dictionaries({"n_users": st.integers(9, 16),
                                     "n_days": st.integers(3, 7),
                                     "seed": st.integers(0, 10_000)})


class TestWorldInvariants:
    """Whole-pipeline properties on small generated worlds: what must not
    change the features CSV or either defense report."""

    @settings(max_examples=2, deadline=None)
    @given(size=world_sizes, data=st.data())
    def test_order_preserving_renaming_of_the_users(self, size, data):
        world = generate_world(WorldConfig(**size))
        new = sorted(data.draw(st.sets(
            st.text("abz09_", min_size=1, max_size=6),
            min_size=size["n_users"], max_size=size["n_users"])))
        names = dict(zip(world.users, new))
        assert world_outputs(mapped_world(world, names), names) == \
            world_outputs(world)

    @settings(max_examples=2, deadline=None)
    @given(size=world_sizes, weeks=st.sampled_from([-1, 1, 52]))
    def test_a_whole_week_shift_of_every_stay(self, size, weeks):
        world = generate_world(WorldConfig(**size))
        same = {u: u for u in world.trajectories}
        shifted = mapped_world(world, same, shift=weeks * 7 * 86400)
        assert world_outputs(shifted) == world_outputs(world)

    @settings(max_examples=2, deadline=None)
    @given(size=world_sizes)
    def test_simulated_files_load_to_the_same_world(self, size):
        with tempfile.TemporaryDirectory() as d:
            assert cli_main(["--seed", str(size["seed"]), "simulate",
                             "--users", str(size["n_users"]),
                             "--days", str(size["n_days"]),
                             "--out", d]) == 0
            loaded = _load_world(d)
        world = generate_world(WorldConfig(**size))
        assert loaded.cfg == world.cfg
        assert list(loaded.trajectories) == world.users
        assert world_outputs(loaded) == world_outputs(world)


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_a_one_day_shift_changes_only_the_holiday_ratio(seed):
    # weekdays matter to f_hol alone; a 7-day world holds a weekend, which
    # a shift by one day moves by one day (3 or 4 days may hold none)
    world = generate_world(WorldConfig(n_users=12, n_days=7, seed=seed))
    same = {u: u for u in world.trajectories}

    def columns(world):
        rows = list(csv.reader(io.StringIO(
            features_to_csv(pair_dataset(world)[0]))))
        return dict(zip(rows[0], zip(*rows[1:])))

    want = columns(world)
    for days in (-1, 1):
        got = columns(mapped_world(world, same, shift=days * 86400))
        assert [name for name in want if got[name] != want[name]] == [
            "f_hol"]


# --- every command on a damaged world --------------------------------------

WORLD_FILES = ("stays.csv", "edges.csv", "config.json")


def stay_table(d):
    return list(csv.reader(io.StringIO((d / "stays.csv").read_text())))


def write_stay_table(d, rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    (d / "stays.csv").write_text(out.getvalue())


def off_the_grid(d, rows, users):
    """Move each stay of the users a degree of latitude north, off the
    grid."""
    for row in rows[1:]:
        if row[0] in users:
            row[2], row[5] = (repr(float(row[c]) + 1.0) for c in (2, 5))
    write_stay_table(d, rows)


def truncate(d, rows, draw):
    path = d / draw(st.sampled_from(WORLD_FILES))
    text = path.read_text()
    path.write_text(text[:draw(st.integers(0, len(text) - 1))])


def bad_coordinate(d, rows, draw):
    row = rows[draw(st.integers(1, len(rows) - 1))]
    row[draw(st.sampled_from([2, 3, 5, 6]))] = draw(st.sampled_from(
        ["nan", "inf", "-inf", "91.0", "-181.0", "1e308", ""]))
    write_stay_table(d, rows)


def overlapping_stays(d, rows, draw):
    # a user's stay then ends when the user's next stay ends
    r = draw(st.sampled_from([r for r in range(1, len(rows) - 1)
                              if rows[r][0] == rows[r + 1][0]]))
    rows[r][4] = rows[r + 1][4]
    write_stay_table(d, rows)


def a_user(rows, draw):
    return draw(st.sampled_from(sorted({row[0] for row in rows[1:]})))


def one_stay(d, rows, draw):
    u = a_user(rows, draw)
    mine = [row for row in rows[1:] if row[0] == u]
    write_stay_table(d, [row for row in rows if row[0] != u] + mine[:1])


def unknown_config_key(d, rows, draw):
    config = json.loads((d / "config.json").read_text())
    config["colour"] = 1
    (d / "config.json").write_text(json.dumps(config))


WORLD_DAMAGES = {
    "none": lambda d, rows, draw: None,
    "truncated file": truncate,
    "empty file": lambda d, rows, draw: (
        d / draw(st.sampled_from(WORLD_FILES))).write_text(""),
    "bad coordinate": bad_coordinate,
    "overlapping stays": overlapping_stays,
    "user with one stay": one_stay,
    "user off the grid": lambda d, rows, draw: off_the_grid(
        d, rows, {a_user(rows, draw)}),
    "every stay off the grid": lambda d, rows, draw: off_the_grid(
        d, rows, {r[0] for r in rows[1:]}),
    "unknown config key": unknown_config_key,
    # an --out that is the wrong kind of file, or lies under a file
    "occupied out": None,
    "out under a file": None,
}

# each subcommand's arguments before --out, on the world directory w, and
# whether its --out is a directory
COMMANDS = {
    "simulate": (["simulate", "--users", "9", "--days", "3"], True),
    "ingest": (["ingest", "--input", "w/stays.csv"], False),
    "features": (["features", "--world", "w"], False),
    "attack": (["attack", "--world", "w"], False),
    "fit-mobility": (["fit-mobility", "--world", "w"], True),
    "anonymize": (["anonymize", "--world", "w"], True),
    "publish synth": (["publish", "synth", "--world", "w"], False),
    "publish similarity": (["publish", "similarity", "--world", "w"], False),
    **{f"report {defense}": (["report", "--world", "w", "--defense",
                              defense], False) for defense in DEFENSES},
}

# what an error line names: a world file, the output, a row, a user, the
# friend edges (edges.csv's content) or a similarity measure
NAMED = re.compile(r"stays\.csv|edges\.csv|config\.json|--out |row \d+"
                   r"|user \S+|friend edge|JSD")


@settings(max_examples=40, deadline=None)
@given(size=world_sizes, damage=st.sampled_from(sorted(WORLD_DAMAGES)),
       command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_every_command_on_a_damaged_world_exits_with_a_named_error(
        size, damage, command, data):
    argv, out_is_dir = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        d = Path("w")
        d.mkdir()
        write_world_dir(generate_world(WorldConfig(**size)), d)
        out = "out"
        if damage == "occupied out":
            if out_is_dir:
                Path(out).write_text("taken\n")
            else:
                Path(out).mkdir()
        elif damage == "out under a file":
            Path("a_file").write_text("taken\n")
            out = "a_file/out"
        else:
            WORLD_DAMAGES[damage](d, stay_table(d), data.draw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli_main(["--seed", "7", *argv, "--out", out])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        line, = [e for e in err.splitlines() if e.startswith("error: ")]
        assert NAMED.search(line), line
