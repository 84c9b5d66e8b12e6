"""The quick demos run to completion as standalone scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    ["01_autodiff_basics.py", "02_graph_views.py", "03_make_dataset.py", "04_train_small.py"],
)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # 03 writes its dataset to the directory given as its argument
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
