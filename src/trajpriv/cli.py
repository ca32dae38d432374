"""Command-line entry point over the library pipelines."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

from .core import group_trajectories, parse_stays, serialize_stays, stacked
from .features import features_to_csv
from .anonymize import AnonymityPolicy
from .harness import (DEFENSES, World, WorldConfig, fit_world_models,
                      generate_world, k_anonymize_world, pair_dataset,
                      publish_synthetic, release_similarity, report_json,
                      report_rows_csv, run_attack, run_defense)


# simulator settings that config.json files written before they became
# constants of the simulator still name; a loaded world never read them
RETIRED_CONFIG_KEYS = frozenset({
    "graph_model", "ws_neighbors", "ws_rewire_p", "pp_groups", "pp_p_in",
    "pp_p_out", "n_workplaces", "n_social_venues", "venues_per_pair",
    "p_meet_lo", "p_meet_hi", "weekend_multiplier", "p_two_slot_meeting",
    "p_solo_jump", "noise_sigma_m"})


def _load_world(world_dir):
    world_dir = Path(world_dir)
    trajectories = group_trajectories(
        parse_stays((world_dir / "stays.csv").read_text()))
    edges = set()
    with open(world_dir / "edges.csv", newline="") as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader, [])]
        except csv.Error as e:
            raise ValueError(f"edges.csv: {e}") from None
        if header != ["user_a", "user_b"]:
            raise ValueError("edges.csv: expected the header user_a,user_b, "
                             "found " + (repr(",".join(header)) if header
                                         else "no header"))
        i = 0
        try:
            for i, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"edges.csv row {i}: expected 2 fields, "
                                     f"got {len(row)}")
                pair = tuple(u.strip() for u in row)
                if pair[0] == pair[1]:
                    raise ValueError(f"edges.csv row {i}: self-loop on user "
                                     f"{pair[0]}")
                for u in pair:
                    if u not in trajectories:
                        raise ValueError(f"edges.csv row {i}: user {u} has "
                                         f"no stays in stays.csv")
                edges.add(pair)
        except csv.Error as e:      # raised reading the row after row i
            raise ValueError(f"edges.csv row {i + 1}: {e}") from None
    config = json.loads((world_dir / "config.json").read_text())
    if type(config) is not dict:
        raise ValueError(f"config.json: expected an object, got {config!r}")
    types = {f.name: f.type for f in dataclasses.fields(WorldConfig)}
    unknown = sorted(set(config) - set(types) - RETIRED_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"config.json: unknown keys {unknown}")
    json_types = {"int": (int,), "float": (int, float)}
    config = {key: value for key, value in config.items() if key in types}
    for key, value in config.items():
        if type(value) not in json_types[types[key]]:
            raise ValueError(f"config.json: {key} must be {types[key]}, "
                             f"got {value!r}")
    if len(trajectories) < 2:
        raise ValueError("stays.csv: a world needs at least two users, "
                         f"found {len(trajectories)}")
    [start] = stacked(trajectories.values(), "start")
    days = len(set((start // 86400).tolist()))
    try:
        # the size of the world that config.json omits is the data's
        cfg = WorldConfig(**{"n_users": len(trajectories), "n_days": days,
                             **config})
    except ValueError as e:
        raise ValueError(f"config.json: {e}") from None
    if cfg.n_users != len(trajectories):
        raise ValueError(f"config.json: n_users is {cfg.n_users}, but "
                         f"stays.csv holds {len(trajectories)} users")
    if cfg.n_days < days:
        raise ValueError(f"config.json: n_days is {cfg.n_days}, but stays in "
                         f"stays.csv start on {days} distinct UTC days")
    return World(cfg, trajectories, edges)


def _output_dir(out, users):
    """Make the directory `out` for files named by the user ids, once no
    id holds a path separator, which would name a file outside it."""
    for u in users:
        if any(sep in u for sep in (os.sep, os.altsep) if sep):
            raise ValueError(f"user {u}: an id with a path separator cannot "
                             f"name a file in {out}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_out(out, directory=False):
    """Refuse an --out path before a command does any work: for a file, a
    directory or a path in no directory; for a `directory` of files, a path
    that is or lies under a file."""
    out = Path(out)
    if directory:
        near = next(p for p in (out, *out.parents) if p.exists())
        if not near.is_dir():
            raise ValueError(f"--out {out}: {near} is not a directory")
    elif out.is_dir():
        raise ValueError(f"--out {out}: is a directory")
    elif not out.parent.is_dir():
        raise ValueError(f"--out {out}: no directory {out.parent}")


def auto_or_int(text):
    return text if text == "auto" else int(text)


def cmd_simulate(args):
    cfg = WorldConfig(n_users=args.users, n_days=args.days, seed=args.seed)
    world = generate_world(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "stays.csv").write_text(world.stays_csv())
    (out / "edges.csv").write_text(world.edges_csv())
    (out / "config.json").write_text(report_json(dataclasses.asdict(cfg)))
    print(f"wrote world ({len(world.users)} users) to {out}")
    return 0


def cmd_ingest(args):
    stays = parse_stays(Path(args.input).read_text(),
                        strict=not args.skip_bad_rows)
    if args.skip_bad_rows:
        stays, errors = stays
        for e in errors:
            print(f"skipped {e}", file=sys.stderr)
    group_trajectories(stays)       # the per-user checks the loader makes
    Path(args.out).write_text(serialize_stays(stays))
    print(f"ingested {len(stays)} stays")
    return 0


def cmd_features(args):
    world = _load_world(args.world)
    rows, _ = pair_dataset(world)
    Path(args.out).write_text(features_to_csv(rows))
    print(f"wrote {len(rows)} pair feature rows to {args.out}")
    return 0


def cmd_attack(args):
    world = _load_world(args.world)
    subsets = args.subsets.split(",")
    rows = run_attack(world, subsets, seed=args.seed,
                      semantic=args.semantic)
    Path(args.out).write_text(report_rows_csv(rows))
    for r in rows:
        print(f"{r['subset']}: P={r['precision']:.3f} R={r['recall']:.3f} "
              f"F1={r['f1']:.3f} AUC={r['auc']:.3f}")
    return 0


def cmd_fit_mobility(args):
    world = _load_world(args.world)
    out = _output_dir(args.out, world.users)
    models = fit_world_models(world, seed=args.seed, m=args.components)
    for u, model in models.items():
        (out / f"{u}.json").write_text(model.to_json())
    print(f"fitted {len(models)} mobility models")
    return 0


def cmd_anonymize(args):
    world = _load_world(args.world)
    policy = AnonymityPolicy(k=args.k, l=args.l,
                             stats=tuple(args.stats.split(",")))
    out = _output_dir(args.out, world.users)
    models = fit_world_models(world, seed=args.seed)
    sets = k_anonymize_world(world, models, policy, seed=args.seed)
    for u, aset in sets.items():
        (out / f"{u}.jsonl").write_text(aset.to_jsonl())
        (out / f"{u}.audit.json").write_text(report_json(aset.audit))
    print(f"anonymized {len(world.users)} users (k={args.k}, l={args.l})")
    return 0


def cmd_publish(args):
    world = _load_world(args.world)
    published = publish_synthetic(world, seed=args.seed)
    if args.action == "synth":
        records = [s for u in sorted(published) for s in published[u]]
        Path(args.out).write_text(serialize_stays(records))
        print(f"wrote {len(records)} synthetic stays")
    else:
        rep = release_similarity(world, published, seed=args.seed)
        Path(args.out).write_text(report_json(rep))
        print(report_json(rep), end="")
    return 0


def cmd_report(args):
    world = _load_world(args.world)
    result = run_defense(world, defense=args.defense, seed=args.seed)
    Path(args.out).write_text(report_json(result))
    print(f"wrote defense report to {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="trajpriv")
    p.add_argument("--seed", type=int, default=42)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate a synthetic world")
    s.add_argument("--users", type=int, default=64)
    s.add_argument("--days", type=int, default=14)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("ingest", help="check a stay-record CSV and write its "
                       "valid stays")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--skip-bad-rows", action="store_true")
    s.set_defaults(func=cmd_ingest)

    s = sub.add_parser("features", help="pair feature matrix from a world")
    s.add_argument("--world", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_features)

    s = sub.add_parser("attack", help="run the social-link inference attack")
    s.add_argument("--world", required=True)
    s.add_argument("--subsets", default="all,spatial,temporal")
    s.add_argument("--semantic", action="store_true")
    s.add_argument("--out", default="attack_report.csv")
    s.set_defaults(func=cmd_attack)

    s = sub.add_parser("fit-mobility", help="fit per-user mobility models")
    s.add_argument("--world", required=True)
    s.add_argument("--components", default="auto", type=auto_or_int)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_fit_mobility)

    s = sub.add_parser("anonymize", help="k-anonymize every user")
    s.add_argument("--world", required=True)
    s.add_argument("--k", type=int, default=AnonymityPolicy.k)
    s.add_argument("--l", type=float, default=AnonymityPolicy.l)
    s.add_argument("--stats", default=",".join(AnonymityPolicy.stats))
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_anonymize)

    s = sub.add_parser("publish", help="synthetic publishing / similarity")
    s.add_argument("action", choices=["synth", "similarity"])
    s.add_argument("--world", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_publish)

    s = sub.add_parser("report", help="end-to-end attack/defense report")
    s.add_argument("--world", required=True)
    s.add_argument("--defense", default="k_anonymity", choices=DEFENSES)
    s.add_argument("--out", default="defense_report.json")
    s.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_out(args.out, directory=args.func in (
            cmd_simulate, cmd_fit_mobility, cmd_anonymize))
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: missing input file: {e.filename}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
