"""Every narrative demo runs to completion against the current library."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
