"""Smoke tests of the scripts under ``scripts/``: each runs end to end and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )


def test_report_digest_is_identical_against_its_own_dump(tmp_path):
    dump = tmp_path / "reports.json"
    first = run_script("report_digest.py", "--dump", dump)
    assert first.returncode == 0, first.stderr
    assert dump.is_file()
    second = run_script("report_digest.py", "--against", dump)
    assert second.returncode == 0, second.stdout + second.stderr
    assert second.stdout.splitlines()[-1] == "identical"


def test_accuracy_sweep_runs_a_workload_without_failures():
    result = run_script("accuracy_sweep.py", "--seeds", 1, 1, "--workload", "long_capture")
    assert result.returncode == 0, result.stderr
    header, row = result.stdout.splitlines()[:2]
    columns = dict(zip(header.split(), row.split()))
    assert columns["workload"] == "long_capture"
    assert int(columns["sessions"]) > 0
    assert int(columns["failed"]) == 0
