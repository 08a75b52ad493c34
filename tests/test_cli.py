import json
import subprocess
import sys

import numpy as np
import pytest

from mocapcal import RigidTransform
from mocapcal.session_io import save_session
from mocapcal.synth import SynthConfig, generate


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mocapcal", *map(str, args)],
        capture_output=True,
        text=True,
    )


def stdout_value(result, key):
    for line in result.stdout.splitlines():
        if line.startswith(key + " "):
            return float(line.split(" ", 1)[1])
    raise AssertionError(f"{key!r} not found in: {result.stdout!r}")


CALIBRATE_FAST = (
    "--tau", 2.0, "--ransac-iters", 300, "--coarse-stride", 2,
    "--steps", 300, "--fine-stride", 1,
)

# The noisy fixture uses sigma = 3 px, so tau sits at the 3-sigma radius.
CALIBRATE_NOISY = (
    "--tau", 9.0, "--ransac-iters", 300, "--coarse-stride", 2,
    "--steps", 400, "--fine-stride", 1,
)


@pytest.fixture(scope="module")
def clean_session_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "clean.json")
    result = run_cli("synth", "--out", path, "--frames", 80, "--seed", 7)
    assert result.returncode == 0
    return path


@pytest.fixture(scope="module")
def noisy_session_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "noisy.json")
    result = run_cli(
        "synth", "--out", path, "--frames", 60, "--sigma", 3.0, "--outliers", 0.2, "--seed", 1
    )
    assert result.returncode == 0
    return path


class TestEndToEnd:
    def test_synth_calibrate_eval_recovers_noiseless_session(self, clean_session_file, tmp_path):
        report_path = str(tmp_path / "report.json")
        result = run_cli(
            "calibrate", "--session", clean_session_file, *CALIBRATE_FAST,
            "--seed", 7, "--out", report_path,
        )
        assert result.returncode == 0, result.stderr
        result = run_cli("eval", "--session", clean_session_file, "--extrinsic", report_path)
        assert result.returncode == 0, result.stderr
        assert stdout_value(result, "mpjpe_px") < 1e-6
        assert stdout_value(result, "gt_rotation_err_deg") < 1e-6
        assert stdout_value(result, "gt_translation_err_m") < 1e-6

    def test_eval_accepts_twelve_numbers(self, tmp_path):
        session = generate(
            SynthConfig(n_cameras=2, n_joints=17, n_frames=20, gt_extrinsic=RigidTransform.identity(), seed=3)
        )
        path = str(tmp_path / "identity.json")
        save_session(path, session.correspondences, session.gt_extrinsic)
        result = run_cli(
            "eval", "--session", path, "--extrinsic", "1 0 0 0 1 0 0 0 1 0 0 0"
        )
        assert result.returncode == 0, result.stderr
        assert stdout_value(result, "mpjpe_px") < 1e-9
        assert stdout_value(result, "gt_rotation_err_deg") < 1e-9

    def test_eval_warns_when_a_report_rotation_is_repaired(
        self, report_dir, noisy_session_file, tmp_path
    ):
        with open(report_dir / "seed0.json") as fh:
            doc = json.load(fh)
        doc["rotation"][0] += 1e-7
        drifted = str(tmp_path / "drifted.json")
        with open(drifted, "w") as fh:
            json.dump(doc, fh)
        from_report = run_cli("eval", "--session", noisy_session_file, "--extrinsic", drifted)
        inline = " ".join(repr(v) for v in doc["rotation"] + doc["translation"])
        from_numbers = run_cli("eval", "--session", noisy_session_file, "--extrinsic", inline)
        assert from_report.returncode == 0, from_report.stderr
        assert from_numbers.returncode == 0, from_numbers.stderr
        assert from_numbers.stderr.startswith("mocapcal: warning: --extrinsic rotation: ")
        assert from_report.stderr == from_numbers.stderr.replace("--extrinsic", "report")

    def test_calibrate_is_deterministic_modulo_timing(self, noisy_session_file, tmp_path):
        reports = []
        for k in range(2):
            path = str(tmp_path / f"report{k}.json")
            result = run_cli(
                "calibrate", "--session", noisy_session_file, *CALIBRATE_NOISY,
                "--seed", 11, "--out", path,
            )
            assert result.returncode == 0, result.stderr
            with open(path) as fh:
                doc = json.load(fh)
            doc.pop("timing")
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_calibrate_report_has_gt_metrics(self, noisy_session_file, tmp_path):
        path = str(tmp_path / "report.json")
        result = run_cli(
            "calibrate", "--session", noisy_session_file, *CALIBRATE_NOISY,
            "--seed", 0, "--out", path,
        )
        assert result.returncode == 0, result.stderr
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["gt_rotation_err_deg"] < 0.5
        assert doc["gt_translation_err_m"] < 0.02
        assert doc["mpjpe_refined_px"] <= doc["mpjpe_init_px"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, clean_session_file):
        result = run_cli("eval", "--session", clean_session_file, "--bogus", 1)
        assert result.returncode == 64
        assert "error" in result.stderr

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 64

    def test_missing_required_flag_is_usage_error(self, clean_session_file):
        result = run_cli("calibrate", "--session", clean_session_file)
        assert result.returncode == 64

    def test_invalid_config_value_is_usage_error(self, clean_session_file, tmp_path):
        result = run_cli(
            "calibrate", "--session", clean_session_file, "--tau", -5,
            "--out", str(tmp_path / "r.json"),
        )
        assert result.returncode == 64

    def test_nonexistent_session_is_input_error(self, tmp_path):
        result = run_cli(
            "calibrate", "--session", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "r.json"),
        )
        assert result.returncode == 3

    def test_malformed_session_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": "one"')
        result = run_cli("eval", "--session", str(bad), "--extrinsic", "0" * 12)
        assert result.returncode == 3

    def test_unreachable_consensus_exits_two(self, noisy_session_file, tmp_path):
        result = run_cli(
            "calibrate", "--session", noisy_session_file, "--tau", 1e-9,
            "--ransac-iters", 20, "--out", str(tmp_path / "r.json"),
        )
        assert result.returncode == 2
        assert "consensus" in result.stderr

    @pytest.mark.parametrize(
        "extrinsic",
        [
            "1 0.5 0 0 1 0 0 0 1 0 0 0",
            "1 0 0 0 1 0 0 0 -1 0 0 0",
            "1 0 0 0 1 0 0 0 1 0 nan 0",
        ],
        ids=["non-orthonormal", "reflection", "nan-translation"],
    )
    def test_non_rotation_extrinsic_is_input_error(self, clean_session_file, extrinsic):
        result = run_cli("eval", "--session", clean_session_file, "--extrinsic", extrinsic)
        assert result.returncode == 3
        assert "input error" in result.stderr


@pytest.fixture(scope="module")
def report_dir(noisy_session_file, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("reports")
    for seed in (0, 1):
        result = run_cli(
            "calibrate", "--session", noisy_session_file, *CALIBRATE_NOISY,
            "--seed", seed, "--out", str(out_dir / f"seed{seed}.json"),
        )
        assert result.returncode == 0, result.stderr
    return out_dir


class TestReportCommand:
    def test_single_file_table(self, report_dir):
        result = run_cli("report", "--in", str(report_dir / "seed0.json"))
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("file")
        assert "mpjpe_refined_px" in lines[0]
        assert lines[-1].startswith("mean")

    def test_directory_csv_mean_of_means(self, report_dir):
        result = run_cli("report", "--in", str(report_dir), "--csv")
        assert result.returncode == 0
        lines = [line.split(",") for line in result.stdout.splitlines()]
        header, rows, mean_row = lines[0], lines[1:-1], lines[-1]
        assert mean_row[0] == "mean"
        col = header.index("mpjpe_refined_px")
        values = [float(row[col]) for row in rows]
        assert np.isclose(float(mean_row[col]), np.mean(values))

    def test_empty_directory_is_input_error(self, tmp_path):
        result = run_cli("report", "--in", str(tmp_path))
        assert result.returncode == 3
