"""Smoke test: every demo script runs to completion.

Each demo runs in a subprocess from a scratch directory, with ``src`` on
``PYTHONPATH``, and must exit 0.  The shell demo drives the CLI through
``python3 -m rebalance``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").iterdir() if p.suffix in (".py", ".sh"))


def test_every_demo_is_covered():
    assert "demo_cli.sh" in DEMOS and len(DEMOS) >= 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    script = ROOT / "demos" / name
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = ["sh", str(script)] if script.suffix == ".sh" else [sys.executable, str(script)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
