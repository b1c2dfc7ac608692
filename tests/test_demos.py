"""The demo scripts run cleanly and print exactly their pinned output."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# md5 of each demo's stdout. A change that alters what a demo prints must
# update its pin here, on purpose.
PINNED = {
    "demo_bounded_fixpoints": "cd7db911b4ccd09d6f75f1c77d04ae9b",
    "demo_cli": "45f8aa5e488cf3b8796cad6876687c2d",
    "demo_formulas": "81d3e246407d65d1274324542415f432",
    "demo_guarded_fixpoints": "877ba8843f506e9ec014e7567fed0b93",
    "demo_model_checking": "5f36dccb546a09ee141ecd2523536543",
    "demo_refutation": "90e8e96274dc0a1d1d71d50b9f091008",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output_is_unchanged(name: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.md5(proc.stdout).hexdigest() == PINNED[name]
