"""Smoke test: the narrative demos run to completion against this package.

Demo 04 is left out: it is by far the slowest of the five (six desk
pretrain and fine-tune runs, about 12 s on a 2-core machine), and the
protocol it runs, ``protonorm.cli.shift_protocol``, is already run by the
sigma-sweep tests in ``test_cli.py``.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = (
    "01_autodiff_basics",
    "02_prototype_gated_norm",
    "03_pretrain_two_clusters",
    "05_cli_pipeline",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # demo outputs go to temporary directories that the demo removes
    assert not [p for p in os.listdir(tmp_path) if p.startswith("protonorm-demo-")]
