"""Golden digests of seven pipeline outputs on a small simulated world, and
of the stays.csv and edges.csv that `trajpriv simulate` writes for another.

A change that claims byte-identical outputs must leave these digests as
they are; a deliberate re-baseline updates them and says so in CHANGES.md.
"""

import hashlib

import pytest

from trajpriv.anonymize import AnonymityPolicy
from trajpriv.cli import _load_world, main as cli_main
from trajpriv.harness import (fit_world_models, k_anonymize_world,
                              report_json, run_defense)

SEED = 7


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_world")
    assert cli_main(["--seed", "5", "simulate", "--users", "16", "--days",
                     "7", "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def world(world_dir):
    return _load_world(world_dir)


def test_k_anonymity_report(world):
    report = report_json(run_defense(world, "k_anonymity", seed=SEED))
    assert sha256(report) == (
        "a46c101de9bba4fc0581a99527dc54105c642cfed7bf3e24bb616f99b72454c9")


def test_anonymity_sets(world):
    models = fit_world_models(world, seed=SEED)
    sets = k_anonymize_world(world, models, AnonymityPolicy(), seed=SEED)
    text = "".join(sets[u].to_jsonl() for u in world.users)
    assert sha256(text) == (
        "d168ba5de42c217adcf46545ffba215817ec2423cbdaaba08fbd7d538320c946")


def test_features_csv(world_dir, tmp_path):
    # re-baselined when a zero entropy became 0.0 instead of -0.0
    out = tmp_path / "features.csv"
    assert cli_main(["features", "--world", str(world_dir),
                     "--out", str(out)]) == 0
    assert sha256(out.read_text()) == (
        "b58d757baafe641f3a27047e0bf2a3db910f3a562237f12bac25a35c3b524f9e")


@pytest.mark.parametrize("extra,digest", [
    ([], "b33bbcce570b07342e4c86426d48558b90ba8b9d50a82ebda132429d08a6e2e4"),
    (["--semantic"],
     "0ea838b0ca743b35857419e1f7a5b6af04988f5dddf7346f3bcb4d104cc403b7"),
])
def test_attack_csv(world_dir, tmp_path, extra, digest):
    out = tmp_path / "attack.csv"
    assert cli_main(["--seed", str(SEED), "attack", "--world", str(world_dir),
                     "--subsets", "all,spatial,temporal",
                     "--out", str(out)] + extra) == 0
    assert sha256(out.read_text()) == digest


def test_publish_synthetic_report(world):
    report = report_json(run_defense(world, "publish_synthetic", seed=SEED))
    assert sha256(report) == (
        "bd38e2d87c3dfe3bca2b78bd4a102698c14e184031376b4bac98ff269bd40e74")


def test_publish_synth_stays(world_dir, tmp_path):
    # pins the toy GAN's generator, whose samples are the released stays
    out = tmp_path / "stays.csv"
    assert cli_main(["--seed", str(SEED), "publish", "synth", "--world",
                     str(world_dir), "--out", str(out)]) == 0
    assert sha256(out.read_text()) == (
        "4e7a1f1945bc0b18ca0a6e1c402c4108f5e23750a9f5e9b3283a3cc3c04f33e8")


@pytest.mark.parametrize("name,digest", [
    ("stays.csv",
     "9d0fad15bf1daa201b9e7d8934bdbe416ec213ae51d345cecaf4a94e2c54170c"),
    ("edges.csv",
     "7cb2621aa30bea2a855e935fcbae0e12781e17c6d88af0aaa3e726a60355f61d"),
])
def test_simulated_world_files(tmp_path, name, digest):
    assert cli_main(["--seed", "9", "simulate", "--users", "16", "--days",
                     "5", "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / name).read_text()) == digest
