"""Every demo script runs to completion in a fresh interpreter and prints
exactly the pinned output."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  Demo 05 prints the size of a gzipped
# catalog, which depends on the zlib build, so that figure is masked first.
STDOUT_SHA256 = {
    "01_promotion_walkthrough.py": "8d7e277bbfa5f71126eb816847f6232f3b17a5057484a1721ef57a761530c38c",
    "02_generating_functions.py": "91cf9c99593289ed5a6ba28d6c73dcd6dde61451efd1305a76becd27df52d843",
    "03_exact_counts.py": "6661d9accc98812e3f243a7dd347822fbccb3db49cf9cffacd7e240ea7355df4",
    "04_weak_order_refinement.py": "d5cd8a1dedfe086c9113a8b985e0a1cde449870597326f478b2fe0c784cc6e9f",
    "05_conjecture_sweep.py": "cff0e7d68f34b95accc8d001b4e9cc4052f319caeed30d32f5d76b76861e05e3",
}

pytestmark = pytest.mark.slow


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [script.name for script in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    stdout = re.sub(r"\(\d+ bytes gzipped\)", "(N bytes gzipped)", result.stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[script.name], stdout
