"""Smoke tests: each script under scripts/ runs in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_hrk_survey():
    proc = run_script("hrk_survey.py", "--max-m", "6")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert any(r.startswith("polygon:6 ") and r.endswith("margin 20") for r in rows)


def test_hrk_survey_refuses_max_m_past_the_budget():
    proc = run_script("hrk_survey.py", "--max-m", "21")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--max-m 21 exceeds" in proc.stderr


def test_run_verification_suite_help():
    proc = run_script("run_verification_suite.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--field" in proc.stdout
