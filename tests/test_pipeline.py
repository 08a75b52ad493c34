import math
import warnings

import numpy as np
import pytest

import mocapcal.pipeline
from mocapcal import (
    CorrespondenceSet,
    DistortionCoeffs,
    EmptyActiveSetError,
    NoValidSampleError,
    RansacConfig,
    RefineConfig,
    RigidTransform,
    calibrate,
    compute_mpjpe,
    count_inliers,
    project_points,
    rotation_geodesic_deg,
    rotation_zyx,
    run_ransac,
)
from mocapcal import ransac
from mocapcal.p3p import solve_p3p_batch
from mocapcal.session_io import report_to_dict
from mocapcal.synth import SynthConfig, generate

from helpers import basic_camera, make_set, unit_camera


NOISY_CFG = SynthConfig(
    n_cameras=2, n_joints=17, n_frames=100, noise_sigma=2.0, outlier_fraction=0.2, seed=1
)


def run_noisy(seed=1):
    session = generate(NOISY_CFG)
    report = calibrate(
        session.correspondences,
        RansacConfig(tau=6.0, iterations=300, seed=seed, coarse_stride=5),
        RefineConfig(steps=400, fine_stride=1),
        gt_extrinsic=session.gt_extrinsic,
    )
    return session, report


class TestComputeMpjpe:
    def test_hand_mean_of_two_residuals(self):
        cam = unit_camera()
        p3 = np.array([0.0, 0.0, 1.0])
        u, _ = project_points(cam, RigidTransform.identity(), p3)
        rows = [
            (0, 0, 0, p3, u + np.array([3.0, 0.0]), True),
            (0, 1, 0, p3, u + np.array([0.0, 5.0]), True),
        ]
        cset = make_set([cam], rows, dims=(1, 2, 1))
        assert abs(compute_mpjpe(cset, RigidTransform.identity()) - 4.0) < 1e-12

    def test_zero_noise_ground_truth_is_exact(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=50, seed=4))
        assert compute_mpjpe(session.correspondences, session.gt_extrinsic) < 1e-9

    def test_invalid_entries_are_excluded(self):
        cam = unit_camera()
        p3 = np.array([0.0, 0.0, 1.0])
        u, _ = project_points(cam, RigidTransform.identity(), p3)
        rows = [
            (0, 0, 0, p3, u + np.array([3.0, 0.0]), True),
            (0, 1, 0, p3, u + np.array([0.0, 100.0]), False),
        ]
        cset = make_set([cam], rows, dims=(1, 2, 1))
        assert abs(compute_mpjpe(cset, RigidTransform.identity()) - 3.0) < 1e-12

    def test_all_behind_camera_raises(self):
        cam = basic_camera()
        rows = [(0, 0, 0, (0.0, 0.0, -2.0), (0.0, 0.0), True)]
        cset = make_set([cam], rows, dims=(1, 1, 1))
        with pytest.raises(EmptyActiveSetError):
            compute_mpjpe(cset, RigidTransform.identity())


class TestCalibrate:
    def test_noiseless_session_recovers_ground_truth(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=100, seed=0))
        report = calibrate(
            session.correspondences,
            RansacConfig(tau=2.0, iterations=300, seed=0, coarse_stride=2),
            RefineConfig(steps=300, fine_stride=1),
            gt_extrinsic=session.gt_extrinsic,
        )
        assert report.mpjpe_refined < 1e-6
        assert report.gt_rotation_err_deg < 1e-6
        assert report.gt_translation_err_m < 1e-6
        assert report.inlier_ratio == 1.0
        # init is already at machine precision here, so the refined-vs-init
        # comparison may go either way; only the ordering invariant holds.
        assert report.mpjpe_refined <= report.mpjpe_init

    def test_noisy_refinement_improves_or_keeps(self):
        session, report = run_noisy()
        assert report.mpjpe_refined <= report.mpjpe_init
        assert report.mpjpe_gt is not None
        assert 0.0 <= report.inlier_ratio <= 1.0

    def test_report_is_self_consistent(self):
        session, report = run_noisy()
        recomputed = compute_mpjpe(session.correspondences, report.transform)
        assert abs(recomputed - report.mpjpe_refined) < 1e-9
        counts = report.correspondence_counts
        assert counts.total == session.correspondences.n_entries
        assert counts.valid == int(session.correspondences.valid.sum())
        assert counts.positive_depth <= counts.valid

    def test_refinement_rejected_flag_matches_transform(self):
        session, report = run_noisy()
        if report.refinement_rejected:
            assert abs(compute_mpjpe(session.correspondences, report.transform) - report.mpjpe_init) < 1e-9
        else:
            assert report.mpjpe_refined <= report.mpjpe_init

    def test_deterministic_modulo_timing(self):
        _, a = run_noisy(seed=6)
        _, b = run_noisy(seed=6)
        da, db = report_to_dict(a), report_to_dict(b)
        da.pop("timing")
        db.pop("timing")
        assert da == db

    def test_all_invalid_raises(self):
        cam = basic_camera()
        rows = [(0, j, 0, (0.0, 0.0, 2.0), (640.0, 360.0), False) for j in range(4)]
        cset = make_set([cam], rows, dims=(1, 4, 1))
        with pytest.raises(NoValidSampleError):
            calibrate(cset, RansacConfig(iterations=10), RefineConfig(steps=10))

    def test_timing_fields_are_populated(self):
        session, report = run_noisy()
        t = report.timing
        assert t.ransac_ms > 0 and t.refine_ms > 0
        assert t.total_ms >= max(t.ransac_ms, t.refine_ms)
        n_frames = session.correspondences.dims[2]
        assert abs(t.ms_per_frame - t.total_ms / n_frames) < 1e-9

    def test_gt_errors_only_when_reference_given(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=40, seed=8))
        report = calibrate(
            session.correspondences,
            RansacConfig(tau=2.0, iterations=200, seed=0, coarse_stride=2),
            RefineConfig(steps=100, fine_stride=1),
        )
        assert report.mpjpe_gt is None
        assert report.gt_rotation_err_deg is None
        assert report.gt_translation_err_m is None

    def test_gt_errors_match_direct_computation(self):
        session, report = run_noisy()
        gt = session.gt_extrinsic
        rot_err = rotation_geodesic_deg(report.transform.rotation, gt.rotation)
        trans_err = float(np.linalg.norm(report.transform.translation - gt.translation))
        assert abs(report.gt_rotation_err_deg - rot_err) < 1e-12
        assert abs(report.gt_translation_err_m - trans_err) < 1e-12
        assert abs(report.mpjpe_gt - compute_mpjpe(session.correspondences, gt)) < 1e-12


def pose_errors(session, ransac_cfg, refine_cfg):
    """Rotation (deg) and translation (m) error of calibrating one session."""
    report = calibrate(
        session.correspondences, ransac_cfg, refine_cfg, gt_extrinsic=session.gt_extrinsic
    )
    return report.gt_rotation_err_deg, report.gt_translation_err_m


class TestHardSessions:
    """Sessions that refinement in ZYX Euler angles about the MoCap origin missed."""

    @pytest.mark.parametrize("beta_deg", [0.0, 89.0, 89.9, -89.0])
    def test_recovers_a_rotation_near_gimbal_lock(self, beta_deg):
        # Criterion 4's sessions and the noisy_sweep workload's configs. With
        # the pose refined in Euler angles, beta = 89 deg and -89 deg each
        # missed the gate on 2 of these 8 seeds.
        gt = RigidTransform(
            rotation_zyx(0.3, math.radians(beta_deg), -0.4), np.array([0.1, -0.2, 0.05])
        )
        for seed in range(1, 9):
            session = generate(
                SynthConfig(
                    n_frames=300,
                    noise_sigma=2.0,
                    outlier_fraction=0.2,
                    gt_extrinsic=gt,
                    seed=seed,
                )
            )
            rot_err, trans_err = pose_errors(
                session,
                RansacConfig(tau=6.0, iterations=400, seed=seed, coarse_stride=5),
                RefineConfig(steps=800, fine_stride=1),
            )
            assert rot_err < 0.5 and trans_err < 0.02, (seed, rot_err, trans_err)

    def test_distorted_mono_worst_session(self):
        # The distorted_mono workload's session 3 of run seed 4, with that
        # workload's synth and configs. Refined in Euler angles about the
        # MoCap origin it read 0.497 deg, at the edge of criterion 4's gate.
        seed = 1727852838
        session = generate(
            SynthConfig(
                n_cameras=1,
                n_joints=17,
                n_frames=600,
                noise_sigma=2.0,
                outlier_fraction=0.5,
                invalid_fraction=0.2,
                distortion=DistortionCoeffs(k1=0.3, k2=0.1),
                seed=seed,
            )
        )
        rot_err, trans_err = pose_errors(
            session,
            RansacConfig(tau=6.0, iterations=2000, seed=seed, coarse_stride=2),
            RefineConfig(steps=200, fine_stride=1),
        )
        assert rot_err < 0.3
        assert trans_err < 0.02


def session_with_entries_behind_camera():
    """Two cameras, invalid entries, outliers, and 20 entries behind camera 1."""
    session = generate(
        SynthConfig(
            n_cameras=2, n_frames=60, noise_sigma=2.0, outlier_fraction=0.2,
            invalid_fraction=0.1, seed=3,
        )
    )
    base, gt = session.correspondences, session.gt_extrinsic
    cam = base.cameras[1]
    rng = np.random.default_rng(0)
    n_extra = 20
    world = -1.5 * cam.rotation.T @ cam.translation + rng.normal(scale=0.1, size=(n_extra, 3))
    cset = CorrespondenceSet(
        base.cameras,
        np.concatenate([base.cam_indices, np.ones(n_extra, dtype=np.int64)]),
        np.concatenate([base.joint_indices, np.zeros(n_extra, dtype=np.int64)]),
        np.concatenate([base.frame_indices, rng.integers(0, base.dims[2], n_extra)]),
        np.concatenate([base.points3d, (world - gt.translation) @ gt.rotation]),
        np.concatenate([base.points2d, rng.uniform(0.0, 700.0, (n_extra, 2))]),
        np.concatenate([base.valid, np.ones(n_extra, dtype=bool)]),
        base.dims,
    )
    return cset, gt


def reference_residual(camera, transform, point3d, pixel):
    """Residual norm and depth of one entry through a pinhole camera, on Python floats.

    Written independently of the stacked projection chain: compose camera
    and pose (``R_c R``, ``R_c t + t_c``), take the point into the camera
    frame, divide by depth, apply the intrinsics and subtract the pixel.
    """
    assert camera.distortion is None
    rot_c, t_c = camera.rotation.tolist(), camera.translation.tolist()
    rot, t = transform.rotation.tolist(), transform.translation.tolist()
    rot_cr = [[sum(rot_c[i][k] * rot[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    t_cr = [sum(rot_c[i][k] * t[k] for k in range(3)) + t_c[i] for i in range(3)]
    p = [float(v) for v in point3d]
    x, y, z = (sum(rot_cr[i][k] * p[k] for k in range(3)) + t_cr[i] for i in range(3))
    xn, yn = x / z, y / z
    u = camera.fx * xn + camera.skew * yn + camera.cx
    v = camera.fy * yn + camera.cy
    return math.hypot(u - float(pixel[0]), v - float(pixel[1])), z


def scalar_residuals(cset, transform, stride=1, restrict_to=None):
    """Entry id -> residual norm for selected entries in front of their camera.

    Selects valid entries at frames divisible by ``stride`` (and among
    ``restrict_to``, when given) entry by entry, then applies
    :func:`reference_residual` to each.
    """
    allowed = None if restrict_to is None else set(np.asarray(restrict_to).tolist())
    norms = {}
    for i in range(cset.n_entries):
        if not cset.valid[i] or int(cset.frame_indices[i]) % stride:
            continue
        if allowed is not None and i not in allowed:
            continue
        camera = cset.cameras[int(cset.cam_indices[i])]
        norm, depth = reference_residual(camera, transform, cset.points3d[i], cset.points2d[i])
        if depth > 0.0:
            norms[i] = norm
    return norms


class TestEvaluationAgainstScalarReference:
    TAU = 6.0

    @pytest.fixture(scope="class")
    def data(self):
        cset, gt = session_with_entries_behind_camera()
        shifted = RigidTransform(gt.rotation, gt.translation + np.array([2.5, 0.0, 0.0]))
        return cset, gt, shifted

    def test_the_data_exercises_every_gate(self, data):
        cset, gt, shifted = data
        norms = scalar_residuals(cset, gt)
        assert np.count_nonzero(~cset.valid) > 0
        assert len(norms) < np.count_nonzero(cset.valid)
        assert any(n >= self.TAU for n in norms.values())
        assert len(scalar_residuals(cset, shifted)) != len(norms)

    @pytest.mark.parametrize("stride, restricted", [(1, False), (3, False), (1, True)])
    def test_mpjpe_and_inliers_match(self, data, stride, restricted):
        cset, gt, shifted = data
        restrict = np.arange(0, cset.n_entries, 2) if restricted else None
        for transform in (gt, shifted):
            norms = scalar_residuals(cset, transform, stride, restrict)
            if stride == 1:
                expected = sum(norms.values()) / len(norms)
                got = compute_mpjpe(cset, transform, restrict_to=restrict)
                assert got == pytest.approx(expected, rel=1e-12)
            inliers = {i: n for i, n in norms.items() if n < self.TAU}
            result = count_inliers(cset, transform, self.TAU, stride=stride, restrict_to=restrict)
            np.testing.assert_array_equal(result.ids, sorted(inliers))
            expected_mean = sum(inliers.values()) / len(inliers) if inliers else 0.0
            assert result.mean_residual == pytest.approx(expected_mean, rel=1e-12)

    def test_ransac_winner_matches_a_per_entry_recount(self, data):
        cset, _, _ = data
        cfg = RansacConfig(tau=self.TAU, iterations=200, coarse_stride=2)
        hypothesis = run_ransac(cset, cfg)
        norms = scalar_residuals(cset, hypothesis.transform, stride=cfg.coarse_stride)
        inliers = [n for n in norms.values() if n < self.TAU]
        assert hypothesis.inlier_count == len(inliers)

    def test_positive_depth_counts_the_reported_pose(self, data):
        cset, _, _ = data
        report = calibrate(
            cset,
            RansacConfig(tau=self.TAU, iterations=200, coarse_stride=2),
            RefineConfig(steps=100, fine_stride=1),
        )
        assert not report.refinement_rejected
        expected = scalar_residuals(cset, report.transform)
        assert report.correspondence_counts.positive_depth == len(expected)
        assert report.mpjpe_refined == pytest.approx(
            sum(expected.values()) / len(expected), rel=1e-12
        )

    def test_rejected_refinement_counts_the_initial_pose(self, data, monkeypatch):
        cset, _, _ = data
        ransac_cfg = RansacConfig(tau=self.TAU, iterations=200, coarse_stride=2)
        init = run_ransac(cset, ransac_cfg).transform
        worse = RigidTransform(init.rotation, init.translation + np.array([2.5, 0.0, 0.0]))
        monkeypatch.setattr(
            mocapcal.pipeline, "refine_pose", lambda *args, **kwargs: (worse, np.zeros(1))
        )
        report = calibrate(cset, ransac_cfg, RefineConfig(steps=1))
        assert report.refinement_rejected
        np.testing.assert_array_equal(report.transform.rotation, init.rotation)
        np.testing.assert_array_equal(report.transform.translation, init.translation)
        at_init = scalar_residuals(cset, init)
        assert len(scalar_residuals(cset, worse)) != len(at_init)
        assert report.correspondence_counts.positive_depth == len(at_init)
        assert report.mpjpe_init == pytest.approx(
            sum(at_init.values()) / len(at_init), rel=1e-12
        )


class TestQuietLibraryCalls:
    def test_no_output_and_no_runtime_warning(self, capsys):
        # A caller may own stdout (the benchmark reads its last line as the
        # result), and the batch solver's masked lanes carry NaN and inf.
        session = generate(
            SynthConfig(
                n_cameras=2,
                n_joints=17,
                n_frames=60,
                noise_sigma=2.0,
                outlier_fraction=0.3,
                distortion=DistortionCoeffs(k1=-0.5),
                seed=2,
            )
        )
        cset = session.correspondences
        cfg = RansacConfig(tau=6.0, iterations=100, seed=2, coarse_stride=2)
        all_bearings = ransac._entry_bearings(cset)
        ids = np.flatnonzero(np.isfinite(all_bearings).all(axis=1))[:15].reshape(5, 3)
        points = cset.points3d[ids]
        points[1, 2] = points[1, 1]
        bearings = all_bearings[ids]
        bearings[2, 0] = np.nan
        bearings[3, 0] = (1.0, 0.0, 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calibrate(cset, cfg, RefineConfig(steps=50, fine_stride=1))
            run_ransac(cset, cfg)
            batch = solve_p3p_batch(points, bearings)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().out == ""
        assert batch.degenerate.tolist() == [False, True, True, False, False]
