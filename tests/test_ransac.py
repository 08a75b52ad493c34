import numpy as np
import pytest

from mocapcal import (
    Correspondence,
    CorrespondenceSet,
    InsufficientConsensusError,
    NoValidSampleError,
    RansacConfig,
    RigidTransform,
    count_inliers,
    project,
    residual,
    rotation_geodesic_deg,
    run_ransac,
    worker_count,
)
from mocapcal.ransac import POOL_MIN_ENTRIES
from mocapcal.synth import SynthConfig, generate

from helpers import basic_camera, make_set


@pytest.fixture(scope="module")
def clean_session():
    return generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=100, seed=3))


@pytest.fixture(scope="module")
def outlier_session():
    return generate(
        SynthConfig(n_cameras=2, n_joints=17, n_frames=100, outlier_fraction=0.3, seed=3)
    )


class TestCorrespondenceSet:
    def test_entries_round_trip(self, rng):
        cam = basic_camera()
        rows = [
            (0, 0, 0, (0.1, 0.2, 3.0), (640.0, 360.0), True),
            (0, 1, 2, (0.3, -0.2, 2.0), (700.0, 300.0), False),
            (0, 2, 5, (-0.4, 0.1, 4.0), (500.0, 420.0), True),
        ]
        cset = make_set([cam], rows, dims=(1, 3, 6))
        assert cset.n_entries == 3
        for k, (c, j, t, p3, p2, valid) in enumerate(rows):
            entry = cset.entry(k)
            assert (entry.cam_index, entry.joint_index, entry.frame_index) == (c, j, t)
            np.testing.assert_allclose(entry.point3d, p3)
            np.testing.assert_allclose(entry.point2d, p2)
            assert entry.valid == valid

    def test_rejects_out_of_range_indices(self):
        cam = basic_camera()
        rows = [(0, 5, 0, (0.0, 0.0, 2.0), (640.0, 360.0), True)]
        with pytest.raises(ValueError, match="joint"):
            make_set([cam], rows, dims=(1, 3, 6))

    def test_rejects_empty_camera_list(self):
        with pytest.raises(ValueError, match="camera"):
            CorrespondenceSet.from_entries([], [], dims=(0, 1, 1))

    def test_valid_entry_requires_finite_points(self):
        with pytest.raises(ValueError, match="finite"):
            Correspondence(
                cam_index=0,
                joint_index=0,
                frame_index=0,
                point3d=np.array([np.nan, 0.0, 1.0]),
                point2d=np.array([0.0, 0.0]),
                valid=True,
            )

    def test_invalid_entry_allows_nan(self):
        corr = Correspondence(
            cam_index=0,
            joint_index=0,
            frame_index=0,
            point3d=np.array([np.nan, 0.0, 1.0]),
            point2d=np.array([0.0, 0.0]),
            valid=False,
        )
        assert not corr.valid

    def test_arrays_are_readonly(self, clean_session):
        cset = clean_session.correspondences
        with pytest.raises(ValueError):
            cset.points3d[0, 0] = 99.0
        with pytest.raises(ValueError):
            cset.valid[0] = False

    def test_camera_blocks_are_camera_major_and_valid_only(self, rng):
        cam_a = basic_camera()
        cam_b = basic_camera(translation=np.array([0.5, 0.0, 0.0]))
        rows = [
            (1, 0, 0, (0.0, 0.0, 3.0), (640.0, 360.0), True),
            (0, 1, 0, (0.1, 0.0, 3.0), (660.0, 360.0), True),
            (0, 2, 0, (0.2, 0.0, 3.0), (680.0, 360.0), False),
        ]
        cset = make_set([cam_a, cam_b], rows, dims=(2, 3, 1))
        blocks = cset.camera_blocks(stride=1)
        assert [b.cam_index for b in blocks] == [0, 1]
        assert blocks[0].points3d.shape == (1, 3)
        np.testing.assert_allclose(blocks[0].points2d, [[660.0, 360.0]])
        np.testing.assert_allclose(blocks[1].points2d, [[640.0, 360.0]])

    def test_camera_blocks_apply_stride(self):
        cam = basic_camera()
        rows = [(0, 0, t, (0.0, 0.0, 3.0), (640.0, 360.0), True) for t in range(6)]
        cset = make_set([cam], rows, dims=(1, 1, 6))
        blocks = cset.camera_blocks(stride=3)
        assert blocks[0].points3d.shape[0] == 2
        frames = cset.frame_indices[blocks[0].entry_ids]
        assert set(frames.tolist()) == {0, 3}


class TestResidual:
    def test_self_consistent_projection_is_zero(self):
        from mocapcal import rotation_zyx

        cam = basic_camera()
        transform = RigidTransform(rotation_zyx(0.2, -0.1, 0.3), np.array([0.1, -0.2, 0.3]))
        p3 = np.array([0.2, 0.1, 4.0])
        p2 = project(cam, transform, p3).pixel
        corr = Correspondence(0, 0, 0, p3, p2, True)
        res, depth = residual(corr, cam, transform)
        assert np.linalg.norm(res) < 1e-10
        assert depth > 0

    def test_shifted_observation_gives_negative_shift(self):
        cam = basic_camera()
        transform = RigidTransform.identity()
        p3 = np.array([0.0, 0.0, 2.0])
        p2 = project(cam, transform, p3).pixel + np.array([3.0, 4.0])
        corr = Correspondence(0, 0, 0, p3, p2, True)
        res, _ = residual(corr, cam, transform)
        np.testing.assert_allclose(res, [-3.0, -4.0], atol=1e-12)
        assert abs(np.linalg.norm(res) - 5.0) < 1e-12

    def test_behind_camera_reports_negative_depth(self):
        cam = basic_camera()
        corr = Correspondence(0, 0, 0, np.array([0.0, 0.0, -2.0]), np.array([0.0, 0.0]), True)
        _, depth = residual(corr, cam, RigidTransform.identity())
        assert depth < 0


class TestCountInliers:
    def test_ground_truth_transform_keeps_everything(self, clean_session):
        cset = clean_session.correspondences
        result = count_inliers(cset, clean_session.gt_extrinsic, tau=1.0)
        assert len(result.ids) == int(cset.valid.sum())
        assert result.mean_residual < 1e-9

    def test_large_shift_loses_everything(self, clean_session):
        gt = clean_session.gt_extrinsic
        shifted = RigidTransform(gt.rotation, gt.translation + np.array([10.0, 0.0, 0.0]))
        result = count_inliers(clean_session.correspondences, shifted, tau=1.0)
        assert len(result.ids) == 0
        assert result.mean_residual == 0.0

    def test_boundary_residual_is_excluded(self):
        cam = basic_camera()
        transform = RigidTransform.identity()
        p3 = np.array([0.0, 0.0, 2.0])
        exact = project(cam, transform, p3).pixel
        rows = [
            (0, 0, 0, p3, exact + np.array([5.0, 0.0]), True),
            (0, 1, 0, p3, exact + np.array([4.999999, 0.0]), True),
        ]
        cset = make_set([cam], rows, dims=(1, 2, 1))
        result = count_inliers(cset, transform, tau=5.0)
        assert result.ids.tolist() == [1]

    def test_stride_limits_scored_frames(self, clean_session):
        cset = clean_session.correspondences
        result = count_inliers(cset, clean_session.gt_extrinsic, tau=1.0, stride=10)
        frames = cset.frame_indices[result.ids]
        assert np.all(frames % 10 == 0)
        expected = int((cset.valid & (cset.frame_indices % 10 == 0)).sum())
        assert len(result.ids) == expected

    def test_invalid_entries_never_count(self):
        cam = basic_camera()
        p3 = np.array([0.0, 0.0, 2.0])
        p2 = project(cam, RigidTransform.identity(), p3).pixel
        rows = [(0, 0, 0, p3, p2, True), (0, 1, 0, p3, p2, False)]
        cset = make_set([cam], rows, dims=(1, 2, 1))
        result = count_inliers(cset, RigidTransform.identity(), tau=1.0)
        assert result.ids.tolist() == [0]

    def test_behind_camera_entries_never_count(self):
        cam = basic_camera()
        rows = [(0, 0, 0, (0.0, 0.0, -2.0), (640.0, 360.0), True)]
        cset = make_set([cam], rows, dims=(1, 1, 1))
        result = count_inliers(cset, RigidTransform.identity(), tau=1e9)
        assert len(result.ids) == 0


class TestRunRansac:
    def test_zero_noise_recovers_ground_truth(self, clean_session):
        cset = clean_session.correspondences
        gt = clean_session.gt_extrinsic
        hyp = run_ransac(cset, RansacConfig(tau=2.0, iterations=500, seed=0, coarse_stride=1))
        assert rotation_geodesic_deg(hyp.transform.rotation, gt.rotation) < 1e-6
        assert np.linalg.norm(hyp.transform.translation - gt.translation) < 1e-6
        n_valid = int(cset.valid.sum())
        assert hyp.inlier_count == n_valid

    def test_outliers_are_tolerated(self, outlier_session):
        cset = outlier_session.correspondences
        gt = outlier_session.gt_extrinsic
        hyp = run_ransac(cset, RansacConfig(tau=6.0, iterations=500, seed=0, coarse_stride=1))
        assert rotation_geodesic_deg(hyp.transform.rotation, gt.rotation) < 0.5
        assert np.linalg.norm(hyp.transform.translation - gt.translation) < 0.02
        assert hyp.inlier_count / int(cset.valid.sum()) >= 0.65

    def test_all_invalid_raises(self):
        cam = basic_camera()
        rows = [(0, j, 0, (0.0, 0.0, 2.0), (640.0, 360.0), False) for j in range(5)]
        cset = make_set([cam], rows, dims=(1, 5, 1))
        with pytest.raises(NoValidSampleError):
            run_ransac(cset, RansacConfig(tau=2.0, iterations=10, seed=0))

    def test_too_few_joints_per_frame_raises(self):
        cam = basic_camera()
        rows = [
            (0, 0, 0, (0.0, 0.0, 2.0), (640.0, 360.0), True),
            (0, 1, 0, (0.1, 0.0, 2.0), (690.0, 360.0), True),
            (0, 0, 1, (0.0, 0.1, 2.0), (640.0, 410.0), True),
        ]
        cset = make_set([cam], rows, dims=(1, 2, 2))
        with pytest.raises(NoValidSampleError):
            run_ransac(cset, RansacConfig(tau=2.0, iterations=10, seed=0))

    def test_unreachable_consensus_raises(self):
        # Pixel noise keeps every hypothesis above a sub-femto threshold.
        noisy = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=50, noise_sigma=2.0, seed=1))
        cfg = RansacConfig(tau=1e-9, iterations=20, seed=0, min_inlier_ratio=0.5)
        with pytest.raises(InsufficientConsensusError):
            run_ransac(noisy.correspondences, cfg)

    def test_deterministic_across_worker_counts(self, outlier_session):
        cset = outlier_session.correspondences
        cfg = RansacConfig(tau=6.0, iterations=200, seed=7, coarse_stride=2)
        single = run_ransac(cset, cfg, workers=1)
        parallel = run_ransac(cset, cfg, workers=8)
        assert single.source == parallel.source
        assert single.inlier_count == parallel.inlier_count
        assert single.mean_inlier_residual == parallel.mean_inlier_residual
        assert np.array_equal(single.transform.rotation, parallel.transform.rotation)
        assert np.array_equal(single.transform.translation, parallel.transform.translation)

    def test_deterministic_across_seeds_reruns(self, outlier_session):
        cset = outlier_session.correspondences
        cfg = RansacConfig(tau=6.0, iterations=100, seed=11)
        a = run_ransac(cset, cfg)
        b = run_ransac(cset, cfg)
        assert a.source == b.source
        assert np.array_equal(a.transform.rotation, b.transform.rotation)

    def test_more_iterations_never_hurt(self, outlier_session):
        cset = outlier_session.correspondences
        short = run_ransac(cset, RansacConfig(tau=6.0, iterations=100, seed=5, coarse_stride=2))
        long = run_ransac(cset, RansacConfig(tau=6.0, iterations=200, seed=5, coarse_stride=2))
        assert long.inlier_count >= short.inlier_count

    def test_reported_count_matches_recount(self, outlier_session):
        cset = outlier_session.correspondences
        cfg = RansacConfig(tau=6.0, iterations=200, seed=0, coarse_stride=2)
        hyp = run_ransac(cset, cfg)
        recount = count_inliers(cset, hyp.transform, tau=cfg.tau, stride=cfg.coarse_stride)
        assert len(recount.ids) == hyp.inlier_count
        assert recount.mean_residual == hyp.mean_inlier_residual


class TestWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("RPGD_THREADS", "4")
        assert worker_count(2) == 2

    def test_env_variable_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv("RPGD_THREADS", "6")
        assert worker_count(None) == 6

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("RPGD_THREADS", "zero")
        with pytest.raises(ValueError, match="RPGD_THREADS"):
            worker_count(None)

    def test_clamped_to_supported_range(self, monkeypatch):
        monkeypatch.delenv("RPGD_THREADS", raising=False)
        assert worker_count(500) == 64
        assert worker_count(-3) == 1
        assert worker_count(None) >= 1

    def test_auto_is_one_thread_below_pool_size(self, monkeypatch):
        monkeypatch.delenv("RPGD_THREADS", raising=False)
        assert worker_count(None, POOL_MIN_ENTRIES - 1) == 1
        assert worker_count(0, POOL_MIN_ENTRIES - 1) == 1
        assert worker_count(None, POOL_MIN_ENTRIES) == worker_count(None)
        assert worker_count(3, 10) == 3
        monkeypatch.setenv("RPGD_THREADS", "0")
        assert worker_count(None, 10) == 1
        monkeypatch.setenv("RPGD_THREADS", "2")
        assert worker_count(None, 10) == 2
