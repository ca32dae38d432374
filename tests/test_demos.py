"""The demos that call the location sampler or train the GAN run to
completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajpriv

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["03_mobility_model.py", "04_k_anonymity.py",
                                  "05_synthetic_publishing.py"])
def test_demo_runs(demo):
    src = str(Path(trajpriv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
