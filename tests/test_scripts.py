"""Smoke tests of the scripts under ``scripts/``: each runs end to end and exits 0."""

import json
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


def test_accuracy_sweep_counts_a_session_that_moved(tmp_path):
    dump = tmp_path / "errors.json"
    args = ("--seeds", 1, 1, "--workload", "long_capture")
    first = run_script("accuracy_sweep.py", *args, "--dump", dump)
    assert first.returncode == 0, first.stderr
    doc = json.loads(dump.read_text())
    doc["long_capture"]["1"][0][2] *= 1.0 + 1e-9
    dump.write_text(json.dumps(doc))
    second = run_script("accuracy_sweep.py", *args, "--against", dump)
    assert second.returncode == 0, second.stderr
    summary = second.stdout.splitlines()[-1]
    assert summary.startswith("long_capture: 1 of 2 sessions differ;"), summary
    # The reference's session 0 reads higher, so the seed's mean fell.
    change = float(summary.split("largest change ")[1].split()[0])
    assert -1e-9 < change < 0.0, summary
