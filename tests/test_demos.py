"""Run the quick demo scripts end to end, so a change to the library cannot break them unseen.

Demo 05 trains the full two-stage pipeline (about 15 s) and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(path.name for path in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_four_quick_demos_are_found():
    assert [name[:2] for name in QUICK_DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(tmp_path, name):
    # the demos write their images into the working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
