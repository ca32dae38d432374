import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from trajpriv.anonymize import AnonymityPolicy
from trajpriv.cli import _load_world, main as cli_main
from trajpriv.colocation import CoLocationConfig, coevent_score, \
    extract_coevents
from trajpriv.core import (EARTH_RADIUS_M, Cell, GridSpec, StayRecord,
                           Trajectory, cell_center, to_cell)
from trajpriv.harness import (EPOCH_MONDAY, World, WorldConfig,
                              build_pair_dataset, coevent_participation,
                              fit_world_models, fit_world_semantic,
                              generate_world, k_anonymize_world,
                              publish_synthetic, report_json, report_rows_csv,
                              run_attack, run_defense, sample_negative_pairs,
                              unflatten_vector)
from trajpriv.publish import embed_trajectory, similarity_report


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

    def test_dense_meetings_every_friend_pair_cooccurs(self):
        world = generate_world(small_cfg(p_meet_lo=1.0, p_meet_hi=1.0))
        scores = pair_scores(world, sorted(world.friend_edges))
        assert all(s > 0 for s in scores)

    def test_no_meetings_makes_friends_indistinguishable(self):
        world = generate_world(small_cfg(p_meet_lo=0.0, p_meet_hi=0.0,
                                         seed=3))
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
        with pytest.raises(ValueError):
            WorldConfig(p_meet_lo=1.5)


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
        with pytest.raises(RuntimeError):
            sample_negative_pairs(users, edges, 1, np.random.default_rng(0))


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

    def test_csv_report_shape(self, small_world):
        rows = run_attack(small_world, subsets=("all",), epochs=50)
        text = report_rows_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "subset,semantic,precision,recall,f1,auc"
        assert len(lines) == 2


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


def test_publish_synthetic_skips_stays_outside_grid():
    world = hand_built_world(
        {"u0": [((1, 1), 0, 8), ((5, 5), 9, 17), ((1, 1), 24, 30)],
         "u1": [((2, 2), 0, 8), ((5, 5), 9, 17), (None, 30, 32)]},
        [("u0", "u1")])
    published, _ = publish_synthetic(world, gan_steps=20, seed=0)
    assert sorted(published) == ["u0", "u1"]
    u1 = world.trajectories["u1"]
    in_grid = Trajectory("u1", u1.stays[:2])
    assert (embed_trajectory(u1, world.grid).entries
            == embed_trajectory(in_grid, world.grid).entries)
    rep = similarity_report(world.trajectories, published, world.grid,
                            fit_world_semantic(world), CoLocationConfig())
    assert all(0.0 <= v <= 1.0 for v in rep.values())


def grid_point(grid, x_m, y_m):
    """(lat, lon) at x_m east and y_m north of the grid origin."""
    lat = grid.origin_lat + math.degrees(y_m / EARTH_RADIUS_M)
    lon = grid.origin_lon + math.degrees(
        x_m / (EARTH_RADIUS_M * math.cos(math.radians(grid.origin_lat))))
    return lat, lon


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


def test_unflatten_drops_overlapping_stays():
    grid = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)
    t = EPOCH_MONDAY // 3600
    vec = np.array([t, 3, t + 1, 1], dtype=float)   # (t, 3) and (t + 1, 1)
    traj = unflatten_vector(vec, [(1, 1), (2, 2)], 1, grid, "u")
    assert [(s.start_time, s.stop_time) for s in traj] == \
        [(t * 3600, (t + 3) * 3600)]
    assert (traj.stays[0].lat, traj.stays[0].lon) == \
        cell_center(Cell(1, 1), grid)


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

    def test_load_world_round_trips_ids_with_commas(self, tmp_path):
        world = hand_built_world({"a,b": [((1, 1), 0, 2)],
                                  "c": [((2, 2), 0, 2)]}, [("a,b", "c")])
        (tmp_path / "stays.csv").write_text(world.stays_csv())
        (tmp_path / "edges.csv").write_text(world.edges_csv())
        (tmp_path / "config.json").write_text(
            report_json(dataclasses.asdict(world.cfg)))
        loaded = _load_world(tmp_path)
        assert loaded.friend_edges == {("a,b", "c")}
        assert loaded.users == ["a,b", "c"]

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
        d = tmp_path / "w"
        cli_main(["--seed", "9", "simulate", "--users", "4", "--days", "2",
                  "--out", str(d)])
        out = tmp_path / "stays.jsonl"
        assert cli_main(["ingest", "--input", str(d / "stays.csv"),
                         "--out", str(out)]) == 0
        assert out.read_text().count("\n") > 0

    def test_missing_input_exit_1(self, tmp_path, capsys):
        code = cli_main(["ingest", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "missing input file" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, capsys):
        assert cli_main(["simulate", "--bogus-flag", "1"]) == 2

    def test_missing_subcommand_exit_2(self, capsys):
        assert cli_main([]) == 2
