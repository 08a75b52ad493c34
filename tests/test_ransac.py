import re

import numpy as np
import pytest

from mocapcal import (
    CorrespondenceSet,
    DegenerateConfigurationError,
    DistortionCoeffs,
    EmptyActiveSetError,
    InsufficientConsensusError,
    MinimalProblem,
    NoValidSampleError,
    RansacConfig,
    RigidTransform,
    compute_mpjpe,
    count_inliers,
    project_points,
    recover_mocap_pose,
    rotation_geodesic_deg,
    run_ransac,
    solve_p3p,
)
from mocapcal import ransac
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
            assert (cset.cam_indices[k], cset.joint_indices[k], cset.frame_indices[k]) == (c, j, t)
            np.testing.assert_allclose(cset.points3d[k], p3)
            np.testing.assert_allclose(cset.points2d[k], p2)
            assert cset.valid[k] == valid

    def test_rejects_out_of_range_indices(self):
        cam = basic_camera()
        rows = [(0, 5, 0, (0.0, 0.0, 2.0), (640.0, 360.0), True)]
        with pytest.raises(ValueError, match="joint"):
            make_set([cam], rows, dims=(1, 3, 6))

    def test_rejects_empty_camera_list(self):
        empty = np.empty(0)
        with pytest.raises(ValueError, match="camera"):
            CorrespondenceSet(
                [], empty, empty, empty, np.empty((0, 3)), np.empty((0, 2)), empty, dims=(0, 1, 1)
            )

    def test_valid_entry_requires_finite_points(self):
        for p3, p2 in [((np.nan, 0.0, 1.0), (0.0, 0.0)), ((0.0, 0.0, 1.0), (np.inf, 0.0))]:
            with pytest.raises(ValueError, match="finite"):
                make_set([basic_camera()], [(0, 0, 0, p3, p2, True)], dims=(1, 1, 1))

    def test_invalid_entry_allows_nan(self):
        rows = [(0, 0, 0, (np.nan, 0.0, 1.0), (0.0, np.nan), False)]
        cset = make_set([basic_camera()], rows, dims=(1, 1, 1))
        assert not cset.valid[0]
        assert np.isnan(cset.points3d[0, 0]) and np.isnan(cset.points2d[0, 1])

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
        assert [b.camera for b in blocks] == [cam_a, cam_b]
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
    """The reprojection residual (predicted - observed) the evaluation kernel reduces."""

    def test_self_consistent_projection_is_zero(self):
        from mocapcal import rotation_zyx

        cam = basic_camera()
        transform = RigidTransform(rotation_zyx(0.2, -0.1, 0.3), np.array([0.1, -0.2, 0.3]))
        p3 = np.array([0.2, 0.1, 4.0])
        p2, depth = project_points(cam, transform, p3)
        assert depth > 0
        cset = make_set([cam], [(0, 0, 0, p3, p2, True)], dims=(1, 1, 1))
        assert compute_mpjpe(cset, transform) < 1e-10

    def test_shifted_observation_gives_negative_shift(self):
        cam = basic_camera()
        transform = RigidTransform.identity()
        p3 = np.array([0.0, 0.0, 2.0])
        predicted, _ = project_points(cam, transform, p3)
        p2 = predicted + np.array([3.0, 4.0])
        np.testing.assert_allclose(predicted - p2, [-3.0, -4.0], atol=1e-12)
        cset = make_set([cam], [(0, 0, 0, p3, p2, True)], dims=(1, 1, 1))
        assert abs(compute_mpjpe(cset, transform) - 5.0) < 1e-12

    def test_behind_camera_reports_negative_depth(self):
        cam = basic_camera()
        p3 = np.array([0.0, 0.0, -2.0])
        _, depth = project_points(cam, RigidTransform.identity(), p3)
        assert depth < 0
        cset = make_set([cam], [(0, 0, 0, p3, (0.0, 0.0), True)], dims=(1, 1, 1))
        with pytest.raises(EmptyActiveSetError):
            compute_mpjpe(cset, RigidTransform.identity())


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
        exact, _ = project_points(cam, transform, p3)
        rows = [
            (0, 0, 0, p3, exact + np.array([5.0, 0.0]), True),
            (0, 1, 0, p3, exact + np.array([4.999999, 0.0]), True),
        ]
        cset = make_set([cam], rows, dims=(1, 2, 1))
        result = count_inliers(cset, transform, tau=5.0)
        assert result.ids.tolist() == [1]

    @pytest.mark.parametrize("tau", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_or_non_positive_tau(self, clean_session, tau):
        with pytest.raises(ValueError, match="^tau must"):
            count_inliers(clean_session.correspondences, clean_session.gt_extrinsic, tau=tau)

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
        p2, _ = project_points(cam, RigidTransform.identity(), p3)
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

    # clean_session has 2 x 17 x 100 = 3400 entries.
    @pytest.mark.parametrize(
        "restrict, named",
        [
            ([-3, -2], "-3"),
            ([0.7], "0.7"),
            ([[1, 2]], "1"),
            ([True, False], "True"),
            ([5, 3400], "3400"),
        ],
        ids=["negative", "float", "2-d", "mask", "one-past-the-end"],
    )
    def test_bad_restrict_to_names_the_first_bad_id(self, clean_session, restrict, named):
        cset, gt = clean_session.correspondences, clean_session.gt_extrinsic
        assert cset.n_entries == 3400
        with pytest.raises(ValueError, match=re.escape(f"restrict_to id {named}")):
            count_inliers(cset, gt, tau=1.0, restrict_to=restrict)
        with pytest.raises(ValueError, match=re.escape(f"restrict_to id {named}")):
            compute_mpjpe(cset, gt, restrict_to=np.array(restrict))

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
    def test_empty_restrict_to_selects_nothing(self, clean_session, dtype):
        cset, gt = clean_session.correspondences, clean_session.gt_extrinsic
        assert not cset.selection_mask(restrict_to=np.empty(0, dtype=dtype)).any()
        nothing = count_inliers(cset, gt, tau=1.0, restrict_to=[])
        assert len(nothing.ids) == 0
        assert nothing.mean_residual == 0.0


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

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1)] + [("tau", v) for v in (float("nan"), float("inf"), float("-inf"))],
    )
    def test_config_rejects_bad_values_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            RansacConfig(**{field: value})

    def test_independent_of_score_batch_size(self, outlier_session, monkeypatch):
        cset = outlier_session.correspondences
        cfg = RansacConfig(tau=6.0, iterations=60, seed=7, coarse_stride=2)
        seen = set()
        for size in (1, 2, 5):
            monkeypatch.setattr(ransac, "_SCORE_ITERATIONS", size)
            hyp = run_ransac(cset, cfg)
            pose = hyp.transform.rotation.tobytes() + hyp.transform.translation.tobytes()
            seen.add((hyp.source, hyp.inlier_count, hyp.mean_inlier_residual, pose))
        assert len(seen) == 1

    def test_independent_of_sample_chunk_size(self, outlier_session, monkeypatch):
        cset = outlier_session.correspondences
        cfg = RansacConfig(tau=6.0, iterations=60, seed=7, coarse_stride=2)
        seen = set()
        for size in (1, 7, ransac._SAMPLE_ITERATIONS):
            monkeypatch.setattr(ransac, "_SAMPLE_ITERATIONS", size)
            hyp = run_ransac(cset, cfg)
            pose = hyp.transform.rotation.tobytes() + hyp.transform.translation.tobytes()
            seen.add((hyp.source, hyp.inlier_count, hyp.mean_inlier_residual, pose))
        assert len(seen) == 1

    def test_sample_with_an_uninvertible_pixel_is_degenerate(self):
        # With k1 = -1 the distorted radius peaks at 2 / (3 sqrt 3), about 0.385,
        # and Newton does not converge for the third pixel (normalized x = 0.5).
        cam = basic_camera(distortion=DistortionCoeffs(k1=-1.0))
        points = np.array([[0.0, 0.0, 2.0], [0.1, 0.0, 2.0], [0.0, 0.1, 2.0]])
        pixels, _ = project_points(cam, RigidTransform.identity(), points)
        pixels[2] = (1140.0, 360.0)
        rows = [(0, j, 0, p3, p2, True) for j, (p3, p2) in enumerate(zip(points, pixels))]
        cset = make_set([cam], rows, dims=(1, 3, 1))
        bearings = ransac._entry_bearings(cset)
        assert np.isfinite(bearings[:2]).all() and np.isnan(bearings[2]).all()
        with pytest.raises(InsufficientConsensusError, match="no sample"):
            run_ransac(cset, RansacConfig(iterations=5, coarse_stride=1))

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


def scalar_sample(groups, row):
    """The entry ids one row of draws picks, one scalar at a time."""
    ids, starts, sizes = groups
    group = int(row[0] * len(starts))
    n = int(sizes[group])
    first = int(row[1] * n)
    second = int(row[2] * (n - 1))
    if second >= first:
        second += 1
    third = int(row[3] * (n - 2))
    for earlier in sorted((first, second)):
        if third >= earlier:
            third += 1
    return ids[int(starts[group]) + np.array([first, second, third])]


def drawn_samples(cset, seed, iterations):
    """Every iteration's sample for a run of ``iterations`` seeded ``seed``."""
    return ransac._sample_ids(ransac._sample_groups(cset), ransac._sample_draws(seed, iterations))


def per_iteration_poses(cset, groups, bearings, row):
    """The MoCap poses of one row of draws, sampled and solved one at a time."""
    entry_ids = scalar_sample(groups, row)
    cam = cset.cameras[int(cset.cam_indices[entry_ids[0]])]
    if not np.isfinite(bearings[entry_ids]).all():
        return ()
    try:
        solutions = solve_p3p(MinimalProblem(cset.points3d[entry_ids], bearings[entry_ids]))
    except DegenerateConfigurationError:
        return ()
    return tuple(recover_mocap_pose(pose, cam) for pose in solutions)


# The synthetic settings of the benchmark's workloads (fewer frames), and a
# barrel-distorted session whose outliers in the frame's corners have no bearing.
SAMPLE_SESSIONS = {
    "noisy_sweep": dict(noise_sigma=2.0, outlier_fraction=0.2, n_frames=300),
    "long_capture": dict(noise_sigma=2.0, outlier_fraction=0.2, n_frames=400),
    "distorted_mono": dict(
        n_cameras=1,
        n_frames=300,
        noise_sigma=2.0,
        outlier_fraction=0.5,
        invalid_fraction=0.2,
        distortion=DistortionCoeffs(k1=0.3, k2=0.1),
    ),
    "barrel": dict(
        n_cameras=1, n_frames=300, outlier_fraction=0.5, distortion=DistortionCoeffs(k1=-0.5)
    ),
}


def grouped_set():
    """Two cameras, three frames and seven joints, stored in shuffled order.

    The (camera, frame) pairs have 3, 5, 0, 2, 0 and 6 valid joints.
    """
    valid_joints = {(0, 0): 3, (0, 1): 5, (0, 2): 0, (1, 0): 2, (1, 1): 0, (1, 2): 6}
    rows = [
        (c, j, t, (0.1 * j, 0.1 * t, 3.0), (600.0 + j, 300.0 + t), j < valid_joints[c, t])
        for (c, t) in valid_joints
        for j in range(7)
    ]
    order = np.random.default_rng(0).permutation(len(rows))
    return make_set([basic_camera(), basic_camera()], [rows[i] for i in order], dims=(2, 7, 3))


class TestSampleDraws:
    def test_a_longer_run_extends_a_shorter_one(self):
        groups = ransac._sample_groups(grouped_set())
        short, long = ransac._sample_draws(5, 300), ransac._sample_draws(5, 1000)
        assert short.shape == (300, 4) and long.shape == (1000, 4)
        assert short.tobytes() == long[:300].tobytes()
        assert np.array_equal(ransac._sample_ids(groups, short), ransac._sample_ids(groups, long)[:300])

    @pytest.mark.parametrize("name", ["grouped", "distorted_mono"])
    def test_three_distinct_valid_joints_of_one_group(self, name):
        if name == "grouped":
            cset = grouped_set()
        else:
            cset = generate(SynthConfig(n_joints=17, seed=4, **SAMPLE_SESSIONS[name])).correspondences
        samples = drawn_samples(cset, 3, 5000)
        assert samples.shape == (5000, 3)
        assert (samples[:, 0] != samples[:, 1]).all()
        assert (samples[:, 0] != samples[:, 2]).all() and (samples[:, 1] != samples[:, 2]).all()
        assert cset.valid[samples].all()
        for column in (cset.cam_indices, cset.frame_indices):
            assert (column[samples] == column[samples[:, :1]]).all()
        pairs = np.column_stack((cset.cam_indices, cset.frame_indices))
        for cam, frame in {tuple(pair) for pair in pairs[samples[:, 0]].tolist()}:
            in_pair = cset.valid & (cset.cam_indices == cam) & (cset.frame_indices == frame)
            assert np.count_nonzero(in_pair) >= 3

    def test_groups_and_positions_are_uniform(self):
        cset = grouped_set()
        ids, starts, sizes = groups = ransac._sample_groups(cset)
        assert sizes.tolist() == [3, 5, 6]
        n_draws = 600_000
        samples = ransac._sample_ids(groups, ransac._sample_draws(11, n_draws))
        group_of = np.full(cset.n_entries, -1)
        position = np.full(cset.n_entries, -1)
        for g, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
            group_of[ids[start : start + size]] = g
            position[ids[start : start + size]] = np.arange(size)
        group = group_of[samples[:, 0]]
        per_group = np.bincount(group, minlength=3)
        np.testing.assert_allclose(per_group, n_draws / 3, rtol=0.03)
        for g, size in enumerate(sizes.tolist()):
            in_group = position[samples[group == g]]
            for slot in range(3):
                counts = np.bincount(in_group[:, slot], minlength=size)
                np.testing.assert_allclose(counts, per_group[g] / size, rtol=0.03)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_a_spawned_child_not_the_seeds_own_stream(self, seed):
        # A synthetic session drawn with the same seed uses default_rng(seed),
        # which default_rng((seed, 0)) repeats.
        draws = ransac._sample_draws(seed, 100)
        child = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        assert draws.tobytes() == child.random((100, 4)).tobytes()
        for stream in (np.random.default_rng(seed), np.random.default_rng((seed, 0))):
            assert not np.isin(draws, stream.random(4000)).any()


class TestSampleChunk:
    @pytest.mark.parametrize("name", list(SAMPLE_SESSIONS))
    def test_equals_per_iteration_solves(self, name):
        cset = generate(SynthConfig(n_joints=17, seed=4, **SAMPLE_SESSIONS[name])).correspondences
        groups = ransac._sample_groups(cset)
        bearings = ransac._entry_bearings(cset)
        draws = ransac._sample_draws(9, 600)
        samples = ransac._sample_ids(groups, draws)
        iters, sols, rots, trans = ransac._sample_chunk(cset, samples, bearings, 100, 600)
        want = []
        for k in range(100, 600):
            for l, pose in enumerate(per_iteration_poses(cset, groups, bearings, draws[k])):
                want.append(((k, l), pose.rotation.tobytes(), pose.translation.tobytes()))
        got = [
            ((k, l), r.tobytes(), t.tobytes())
            for k, l, r, t in zip(iters.tolist(), sols.tolist(), rots, trans)
        ]
        assert got == want
        assert len(want) > 500
        if name == "barrel":
            assert np.isnan(bearings[cset.valid]).any()


def unbounded_score(blocks, rotations, translations, tau):
    """Every entry of every pose scored, as before the bail-out test."""
    totals = [0] * rotations.shape[0]
    sums = [0.0] * rotations.shape[0]
    for block in blocks:
        sq, _, keep = ransac._evaluate_block(block, rotations, translations, tau)
        for h, count in enumerate(np.count_nonzero(keep, axis=1).tolist()):
            if count:
                totals[h] += count
                sums[h] += float(np.sqrt(sq[h][keep[h]]).sum())
    means = [res_sum / total if total else 0.0 for res_sum, total in zip(sums, totals)]
    return totals, means


def unbounded_ransac(cset, cfg):
    """The winner's source, count, mean and pose bytes when every pose is scored in full."""
    samples = drawn_samples(cset, cfg.seed, cfg.iterations)
    bearings = ransac._entry_bearings(cset)
    blocks = cset.camera_blocks(stride=cfg.coarse_stride)
    iters, sols, rots, trans = ransac._sample_chunk(cset, samples, bearings, 0, cfg.iterations)
    best = None
    for lo in range(0, iters.size, 16):
        totals, means = unbounded_score(blocks, rots[lo : lo + 16], trans[lo : lo + 16], cfg.tau)
        for j, total, mean in zip(range(lo, lo + 16), totals, means):
            key = (-total, mean)
            if best is None or key < best[0]:
                best = (key, (int(iters[j]), int(sols[j])), rots[j], trans[j])
    (neg_count, mean), source, rotation, translation = best
    return source, -neg_count, mean, rotation.tobytes() + translation.tobytes()


def outcome(hyp):
    pose = hyp.transform.rotation.tobytes() + hyp.transform.translation.tobytes()
    return hyp.source, hyp.inlier_count, hyp.mean_inlier_residual, pose


def spy_scanned(monkeypatch):
    """Count the (pose, entry) pairs ``_evaluate_block`` scores; returns the running list."""
    scanned = []
    evaluate = ransac._evaluate_block

    def counting(block, rotations, translations, tau=None):
        scanned.append((rotations.shape[0], block.entry_ids.size))
        return evaluate(block, rotations, translations, tau)

    monkeypatch.setattr(ransac, "_evaluate_block", counting)
    return scanned


# The RANSAC settings of the benchmark's workloads, with fewer iterations, and
# a noiseless session, where every good hypothesis ties on its count.
BOUNDED_SESSIONS = {
    "noisy_sweep": (SAMPLE_SESSIONS["noisy_sweep"], dict(tau=6.0, coarse_stride=5)),
    "long_capture": (SAMPLE_SESSIONS["long_capture"], dict(coarse_stride=10)),
    "distorted_mono": (SAMPLE_SESSIONS["distorted_mono"], dict(tau=6.0, coarse_stride=2)),
    "noiseless": (dict(n_frames=40), dict(tau=2.0, coarse_stride=1)),
}


def sampled_poses(synth, n_poses, seed=9):
    """The first ``n_poses`` MoCap poses RANSAC would score on ``synth``, plus its ground truth."""
    cset = synth.correspondences
    _, _, rots, trans = ransac._sample_chunk(
        cset, drawn_samples(cset, seed, n_poses), ransac._entry_bearings(cset), 0, n_poses
    )
    gt = synth.gt_extrinsic
    rots = np.concatenate([rots[: n_poses - 1], gt.rotation[None]])
    trans = np.concatenate([trans[: n_poses - 1], gt.translation[None]])
    return rots, trans


class TestBoundedScoring:
    @pytest.mark.parametrize("name", list(BOUNDED_SESSIONS))
    def test_run_ransac_equals_unbounded_scoring(self, name, monkeypatch):
        synth_kw, ransac_kw = BOUNDED_SESSIONS[name]
        cset = generate(SynthConfig(n_joints=17, seed=6, **synth_kw)).correspondences
        cfg = RansacConfig(iterations=300, seed=21, **ransac_kw)
        want = unbounded_ransac(cset, cfg)
        default = ransac._MIN_SEGMENT
        # Small segment minimums split blocks into many segments of varied
        # widths, so a BLAS whose bits depend on the product's width shows.
        for size, segment in [(1, default), (2, default), (8, default), (8, 16), (2, 7), (8, 2)]:
            monkeypatch.setattr(ransac, "_SCORE_ITERATIONS", size)
            monkeypatch.setattr(ransac, "_MIN_SEGMENT", segment)
            assert outcome(run_ransac(cset, cfg)) == want, (size, segment)

    @pytest.mark.parametrize("name", ["long_capture", "distorted_mono"])
    def test_bound_zero_is_unbounded_scoring(self, name, monkeypatch):
        synth = generate(SynthConfig(n_joints=17, seed=6, **SAMPLE_SESSIONS[name]))
        blocks = synth.correspondences.camera_blocks(stride=2)
        rots, trans = sampled_poses(synth, 24)
        want_totals, want_means = unbounded_score(blocks, rots, trans, 6.0)
        scanned = spy_scanned(monkeypatch)
        totals, means = ransac._score_blocks(blocks, rots, trans, 6.0)
        # One segment per block for every pose; the means reuse that scan.
        assert scanned == [(24, block.entry_ids.size) for block in blocks]
        assert totals == want_totals
        assert means == want_means

    @pytest.mark.parametrize("segment", [2, 7, 1024])
    def test_only_poses_that_reach_the_bound_get_a_mean(self, segment, monkeypatch):
        monkeypatch.setattr(ransac, "_MIN_SEGMENT", segment)
        synth = generate(SynthConfig(n_joints=17, seed=6, **SAMPLE_SESSIONS["long_capture"]))
        blocks = synth.correspondences.camera_blocks(stride=2)
        rots, trans = sampled_poses(synth, 24)
        want_totals, want_means = unbounded_score(blocks, rots, trans, 6.0)
        bound = sorted(want_totals)[-3]
        scanned = spy_scanned(monkeypatch)
        totals, means = ransac._score_blocks(blocks, rots, trans, 6.0, bound)
        survivors = [h for h, total in enumerate(want_totals) if total >= bound]
        assert 3 <= len(survivors) < 24
        # The scan covers each block once, in segments. Then the survivors
        # alone are projected again, once per whole block the scan split;
        # a block scanned in one segment reuses that scan.
        passes = iter(scanned)
        rescored = []
        for block in blocks:
            widths = []
            while sum(widths) < block.entry_ids.size:
                widths.append(next(passes)[1])
            if len(widths) > 1:
                rescored.append((len(survivors), block.entry_ids.size))
        assert list(passes) == rescored
        assert rescored or segment == 1024
        for h in range(24):
            if h in survivors:
                assert totals[h] == want_totals[h]
                assert means[h] == want_means[h]
            else:
                assert totals[h] < bound
                assert means[h] is None

    def test_scans_fewer_entries_than_every_pose_times_every_entry(self, monkeypatch):
        cset = generate(
            SynthConfig(n_joints=17, seed=6, **dict(SAMPLE_SESSIONS["long_capture"], n_frames=2000))
        ).correspondences
        cfg = RansacConfig(iterations=400, seed=21)
        n_scored = sum(block.entry_ids.size for block in cset.camera_blocks(stride=10))
        poses = []
        score = ransac._score_blocks

        def counting(blocks, rotations, translations, tau, bound=0):
            poses.append(rotations.shape[0])
            return score(blocks, rotations, translations, tau, bound)

        monkeypatch.setattr(ransac, "_score_blocks", counting)
        scanned = spy_scanned(monkeypatch)
        run_ransac(cset, cfg)
        share = sum(h * n for h, n in scanned) / (sum(poses) * n_scored)
        assert share < 0.5

    def test_never_splits_off_a_one_entry_segment(self, monkeypatch):
        # One block of 1,700 entries and bound 2: the first segment would end
        # one entry before the block does.
        synth = generate(SynthConfig(n_cameras=1, n_joints=17, n_frames=100, noise_sigma=2.0, seed=6))
        blocks = synth.correspondences.camera_blocks(stride=1)
        assert [block.entry_ids.size for block in blocks] == [1700]
        rots, trans = sampled_poses(synth, 8)
        scanned = spy_scanned(monkeypatch)
        ransac._score_blocks(blocks, rots, trans, 6.0, bound=2)
        assert scanned[0][1] == 1700
        assert all(n >= 2 for _, n in scanned)

