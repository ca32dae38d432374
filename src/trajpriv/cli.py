"""Command-line entry point over the library pipelines."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .core import group_trajectories, parse_stays, serialize_stays, \
    stays_to_jsonl
from .colocation import CoLocationConfig, extract_coevents
from .features import cell_visit_entropy, compute_features, features_to_csv
from .anonymize import AnonymityPolicy
from .harness import (World, WorldConfig, fit_world_models, generate_world,
                      k_anonymize_world, publish_synthetic, release_similarity,
                      report_json, report_rows_csv, run_attack, run_defense)


def _load_world(world_dir):
    world_dir = Path(world_dir)
    stays = parse_stays((world_dir / "stays.csv").read_text())
    with open(world_dir / "edges.csv", newline="") as f:
        rows = [row for row in csv.reader(f) if row][1:]     # skip the header
    edges = {tuple(sorted((a.strip(), b.strip()))) for a, b in rows}
    cfg = WorldConfig(**json.loads((world_dir / "config.json").read_text()))
    return World(cfg, group_trajectories(stays), edges)


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
    Path(args.out).write_text(stays_to_jsonl(stays))
    print(f"ingested {len(stays)} stays")
    return 0


def cmd_features(args):
    world = _load_world(args.world)
    cfg = CoLocationConfig(alpha_d_m=args.alpha_d, alpha_t_s=args.alpha_t,
                           spatial_kernel=args.kernel,
                           temporal_kernel=args.kernel)
    events = extract_coevents(world.trajectories, cfg, world.grid)
    ent = cell_visit_entropy(world.trajectories, world.grid)
    rows = [compute_features(evs, ent, pair=pair,
                             label=pair in world.friend_edges)
            for pair, evs in sorted(events.items())]
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
    m = "auto" if args.components == "auto" else int(args.components)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    models = fit_world_models(world, seed=args.seed, m=m)
    for u, model in models.items():
        (out / f"{u}.json").write_text(model.to_json())
    print(f"fitted {len(models)} mobility models")
    return 0


def cmd_anonymize(args):
    world = _load_world(args.world)
    policy = AnonymityPolicy(k=args.k, l=args.l,
                             stats=tuple(args.stats.split(",")))
    models = fit_world_models(world, seed=args.seed)
    sets = k_anonymize_world(world, models, policy, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for u, aset in sets.items():
        (out / f"{u}.jsonl").write_text(aset.to_jsonl())
        (out / f"{u}.audit.json").write_text(report_json(aset.audit))
    print(f"anonymized {len(world.users)} users (k={args.k}, l={args.l})")
    return 0


def cmd_publish(args):
    world = _load_world(args.world)
    published, _ = publish_synthetic(world, seed=args.seed)
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

    s = sub.add_parser("ingest", help="parse a stay-record CSV to JSONL")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--skip-bad-rows", action="store_true")
    s.set_defaults(func=cmd_ingest)

    s = sub.add_parser("features", help="pair feature matrix from a world")
    s.add_argument("--world", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--alpha-d", type=float, default=250.0)
    s.add_argument("--alpha-t", type=float, default=1800.0)
    s.add_argument("--kernel", choices=["indicator", "exponential"],
                   default="indicator")
    s.set_defaults(func=cmd_features)

    s = sub.add_parser("attack", help="run the social-link inference attack")
    s.add_argument("--world", required=True)
    s.add_argument("--subsets", default="all,spatial,temporal")
    s.add_argument("--semantic", action="store_true")
    s.add_argument("--out", default="attack_report.csv")
    s.set_defaults(func=cmd_attack)

    s = sub.add_parser("fit-mobility", help="fit per-user mobility models")
    s.add_argument("--world", required=True)
    s.add_argument("--components", default="auto")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_fit_mobility)

    s = sub.add_parser("anonymize", help="k-anonymize every user")
    s.add_argument("--world", required=True)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--l", type=float, default=0.3)
    s.add_argument("--stats",
                   default="stay_count,total_duration_h,radius_of_gyration_m")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_anonymize)

    s = sub.add_parser("publish", help="synthetic publishing / similarity")
    s.add_argument("action", choices=["synth", "similarity"])
    s.add_argument("--world", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_publish)

    s = sub.add_parser("report", help="end-to-end attack/defense report")
    s.add_argument("--world", required=True)
    s.add_argument("--defense", default="k_anonymity",
                   choices=["none", "k_anonymity", "publish_synthetic"])
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
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: missing input file: {e.filename}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
