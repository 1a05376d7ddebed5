"""The bundled scripts run end to end against the package source."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_show_worked_example():
    proc = run_script("show_worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert "Nijenhuis tensor vanishes identically: True" in proc.stdout


def test_run_all_scenarios():
    proc = run_script("run_all_scenarios.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "14/14 scenarios pass" in proc.stdout
