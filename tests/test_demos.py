"""Each demo's stdout, byte for byte, against ``tests/golden/demo_0N.txt``.

Regenerate a golden file only in a change that is about that demo's
output, e.g. ``PYTHONPATH=src python demos/04_rank_oracle.py >
tests/golden/demo_04.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def golden(demo):
    return GOLDEN / f"demo_{demo.name[:2]}.txt"


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 5
    assert sorted(GOLDEN.glob("demo_*.txt")) == [golden(d) for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         check=True, timeout=120).stdout
    assert out == golden(demo).read_bytes()
