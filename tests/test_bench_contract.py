"""The names the benchmark reaches in mocapcal still exist.

``perfbench/layers.py`` leaves a per-layer metric out when a public name
it probes is gone, and ``perfbench/workloads.py`` imports its names
outright, so a rename or removal quietly thins the traced run or breaks
it. ``perfbench`` reads ``worker_count`` through ``getattr``, so its
removal thins only ``resolved_workers``; ``run_ransac``'s ``workers``
argument feeds the ``ransac.run_s.w1``/``wN`` layer metrics, which
``BENCHMARK.json`` declares. This reads the names only; it runs no
benchmark.
"""

import dataclasses
import importlib
import inspect

import pytest

import mocapcal

PROBED = [
    ("session_io", "load_session"),
    ("session_io", "save_session"),
    ("session_io", "report_to_dict"),
    ("p3p", "MinimalProblem"),
    ("p3p", "solve_p3p"),
    ("errors", "DegenerateConfigurationError"),
    ("ransac", "run_ransac"),
    ("ransac", "count_inliers"),
    ("refine", "refine_pose"),
    ("refine", "loss_and_gradient"),
    ("geometry", "project_points"),
    ("geometry", "rotation_to_euler"),
    ("geometry", "EulerPose"),
    ("pipeline", "compute_mpjpe"),
    ("pipeline", "calibrate"),
    ("synth", "GAUSSIAN"),
]

# What workloads.py imports from the package itself.
TOP_LEVEL = [
    "DistortionCoeffs",
    "RansacConfig",
    "RefineConfig",
    "RigidTransform",
    "SynthConfig",
    "calibrate",
    "compute_mpjpe",
    "generate",
    "rotation_geodesic_deg",
    "rotation_zyx",
]


@pytest.mark.parametrize("module, name", PROBED, ids=[f"{m}.{n}" for m, n in PROBED])
def test_probed_name_exists(module, name):
    assert getattr(importlib.import_module(f"mocapcal.{module}"), name, None) is not None


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_top_level_name_exists(name):
    assert getattr(mocapcal, name, None) is not None


def test_minimal_problem_builds_from_observations():
    from mocapcal.p3p import MinimalProblem

    assert callable(getattr(MinimalProblem, "from_observations", None))


def test_run_ransac_takes_workers():
    from mocapcal.ransac import run_ransac

    assert "workers" in inspect.signature(run_ransac).parameters


def test_loss_report_has_an_active_count():
    from mocapcal.refine import LossReport, loss_and_gradient

    assert "active_count" in {f.name for f in dataclasses.fields(LossReport)}
    assert inspect.signature(loss_and_gradient).return_annotation in (LossReport, "LossReport")


def test_camera_block_fields():
    from mocapcal.ransac import CameraBlock

    assert {"camera", "entry_ids", "points3d", "points2d"} <= set(CameraBlock._fields)


def test_correspondence_set_members():
    from helpers import basic_camera, make_set

    cset = make_set([basic_camera()], [(0, 0, 0, (0.0, 0.0, 2.0), (640.0, 360.0), True)], (1, 1, 1))
    for name in (
        "camera_blocks",
        "selection_mask",
        "n_entries",
        "cameras",
        "dims",
        "cam_indices",
        "frame_indices",
        "valid",
        "points3d",
        "points2d",
    ):
        assert getattr(cset, name, None) is not None, name


def test_inlier_count_has_ids():
    from mocapcal.ransac import InlierCount

    assert "ids" in InlierCount._fields


def test_calibrate_takes_ground_truth_and_warnings():
    from mocapcal.pipeline import calibrate

    assert {"gt_extrinsic", "warnings"} <= set(inspect.signature(calibrate).parameters)
