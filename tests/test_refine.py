import math

import numpy as np
import pytest

from mocapcal import (
    AdamState,
    CameraModel,
    DistortionCoeffs,
    EmptyActiveSetError,
    EulerPose,
    RansacConfig,
    RefineConfig,
    RigidTransform,
    adam_step,
    cosine_lr,
    count_inliers,
    loss_and_gradient,
    project_points,
    refine_pose,
    rotation_geodesic_deg,
    rotation_to_euler,
    rotation_zyx,
    run_ransac,
)
from mocapcal import refine
from mocapcal.geometry import (
    _distort,
    _distortion_terms,
    project_stacked,
    rotation_zyx_derivatives,
)
from mocapcal.ransac import CameraBlock
from mocapcal.synth import GAUSSIAN, SynthConfig, generate

from helpers import basic_camera, camera_to_mocap, make_set, random_rotation_matrix, unit_camera


def finite_difference_gradient(cset, pose, stride=1, h=1e-6):
    vec = pose.as_vector()
    grad = np.zeros(6)
    for k in range(6):
        plus, minus = vec.copy(), vec.copy()
        plus[k] += h
        minus[k] -= h
        lp = loss_and_gradient(cset, EulerPose.from_vector(plus), stride=stride).loss
        lm = loss_and_gradient(cset, EulerPose.from_vector(minus), stride=stride).loss
        grad[k] = (lp - lm) / (2.0 * h)
    return grad


def gt_pose(session):
    gt = session.gt_extrinsic
    angles = rotation_to_euler(gt.rotation)
    return EulerPose(*angles, gt.translation)


def uncorrupted_mpjpe(session, transform):
    """Mean reprojection error over entries that are clean or Gaussian-noised."""
    from mocapcal import compute_mpjpe

    keep = np.flatnonzero(session.corruption <= GAUSSIAN)
    return compute_mpjpe(session.correspondences, transform, restrict_to=keep)


class TestLossAndGradient:
    def test_zero_at_ground_truth(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=50, seed=2))
        report = loss_and_gradient(session.correspondences, gt_pose(session))
        assert report.loss < 1e-18
        assert np.linalg.norm(report.gradient) < 1e-9
        assert report.active_count == int(session.correspondences.valid.sum())

    def test_single_correspondence_hand_values(self):
        cam = unit_camera()
        cset = make_set([cam], [(0, 0, 0, (0.0, 0.0, 1.0), (1.0, 0.0), True)], dims=(1, 1, 1))
        report = loss_and_gradient(cset, EulerPose(0.0, 0.0, 0.0, np.zeros(3)))
        assert abs(report.loss - 0.5) < 1e-15
        np.testing.assert_allclose(report.gradient, [0.0, -1.0, 0.0, -1.0, 0.0, 0.0], atol=1e-12)
        assert report.active_count == 1

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            session = generate(
                SynthConfig(
                    n_cameras=2,
                    n_joints=5,
                    n_frames=8,
                    noise_sigma=1.0,
                    seed=int(rng.integers(1 << 31)),
                )
            )
            angles = rng.uniform(-0.3, 0.3, 3)
            pose = EulerPose(*angles, rng.uniform(-0.2, 0.2, 3))
            report = loss_and_gradient(session.correspondences, pose)
            fd = finite_difference_gradient(session.correspondences, pose)
            for k in range(6):
                if abs(fd[k]) > 1e-8:
                    assert abs(report.gradient[k] - fd[k]) / abs(fd[k]) < 1e-4

    def test_matches_finite_differences_with_full_distortion_skew_and_points_behind(self, rng):
        # Two cameras facing each other along z, each with all five
        # Brown-Conrady terms and a skewed K. Points lie between them, or
        # behind one of them, well clear of either principal plane.
        intrinsics = np.array([[900.0, 3.5, 610.0], [0.0, 950.0, 350.0], [0.0, 0.0, 1.0]])
        cameras = [
            CameraModel(
                intrinsics,
                rotation,
                translation,
                DistortionCoeffs(k1=k1, k2=0.05, p1=0.002, p2=-0.0015, k3=0.01),
            )
            for rotation, translation, k1 in (
                (np.eye(3), np.zeros(3), -0.12),
                (np.diag([-1.0, 1.0, -1.0]), np.array([0.0, 0.0, 4.0]), 0.08),
            )
        ]
        depth = np.concatenate(
            [rng.uniform(1.0, 3.0, 24), rng.uniform(-2.0, -1.0, 4), rng.uniform(5.0, 6.0, 4)]
        )
        reach = 0.3 * np.minimum(np.abs(depth), np.abs(4.0 - depth))[:, None]
        points = np.column_stack([rng.uniform(-1.0, 1.0, (depth.size, 2)) * reach, depth])
        truth = EulerPose(0.01, -0.02, 0.015, np.array([0.01, -0.02, 0.03]))
        rows = []
        for c, cam in enumerate(cameras):
            pixels, depths = project_points(cam, truth.to_transform(), points)
            pixels[depths <= 0.0] = (640.0, 360.0)
            pixels += rng.normal(0.0, 2.0, pixels.shape)
            rows += [(c, j, 0, p3, p2, True) for j, (p3, p2) in enumerate(zip(points, pixels))]
        cset = make_set(cameras, rows, dims=(2, depth.size, 1))
        for _ in range(5):
            pose = EulerPose(*rng.uniform(-0.03, 0.03, 3), rng.uniform(-0.03, 0.03, 3))
            report = loss_and_gradient(cset, pose)
            # Each camera sees 28 of the 32 points; the other 4 lie behind it.
            assert report.active_count == 2 * 28
            fd = finite_difference_gradient(cset, pose)
            for k in range(6):
                assert abs(report.gradient[k] - fd[k]) <= 1e-4 * abs(fd[k]) + 1e-8

    def test_behind_camera_observation_is_ignored(self):
        cam = basic_camera()
        front = (0, 0, 0, (0.0, 0.0, 2.0), (640.0, 360.0), True)
        behind_a = (0, 1, 0, (0.0, 0.0, -2.0), (0.0, 0.0), True)
        behind_b = (0, 1, 0, (0.0, 0.0, -2.0), (5000.0, -300.0), True)
        pose = EulerPose(0.0, 0.0, 0.0, np.zeros(3))
        report_a = loss_and_gradient(make_set([cam], [front, behind_a], (1, 2, 1)), pose)
        report_b = loss_and_gradient(make_set([cam], [front, behind_b], (1, 2, 1)), pose)
        assert report_a.loss == report_b.loss
        np.testing.assert_array_equal(report_a.gradient, report_b.gradient)
        assert report_a.active_count == 1

    def test_restrict_to_drops_other_entries(self):
        cam = basic_camera()
        rows = [
            (0, 0, 0, (0.0, 0.0, 2.0), (640.0, 360.0), True),
            (0, 1, 0, (0.1, 0.0, 2.0), (720.0, 360.0), True),
        ]
        cset = make_set([cam], rows, dims=(1, 2, 1))
        pose = EulerPose(0.0, 0.0, 0.0, np.zeros(3))
        only_first = loss_and_gradient(cset, pose, restrict_to=np.array([0]))
        assert only_first.active_count == 1
        solo = make_set([cam], rows[:1], dims=(1, 2, 1))
        alone = loss_and_gradient(solo, pose)
        assert abs(only_first.loss - alone.loss) < 1e-15

    def test_empty_active_set_is_zero(self):
        cam = basic_camera()
        rows = [(0, 0, 0, (0.0, 0.0, -2.0), (640.0, 360.0), True)]
        cset = make_set([cam], rows, dims=(1, 1, 1))
        report = loss_and_gradient(cset, EulerPose(0.0, 0.0, 0.0, np.zeros(3)))
        assert report.loss == 0.0
        np.testing.assert_array_equal(report.gradient, np.zeros(6))
        assert report.active_count == 0

    def test_stride_equals_presubsampled_set(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=6, n_frames=20, noise_sigma=1.0, seed=4))
        cset = session.correspondences
        pose = EulerPose(0.05, -0.02, 0.03, np.array([0.1, 0.0, -0.1]))
        strided = loss_and_gradient(cset, pose, stride=4)
        keep = np.flatnonzero(cset.frame_indices % 4 == 0)
        restricted = loss_and_gradient(cset, pose, restrict_to=keep)
        assert abs(strided.loss - restricted.loss) < 1e-15
        np.testing.assert_allclose(strided.gradient, restricted.gradient, atol=1e-15)
        assert strided.active_count == restricted.active_count


def lean_loss_and_gradient(blocks, pose):
    """The loss and gradient in the operation order of the lean pass.

    Per camera block: the squares ``du**2 + dv**2`` summed pairwise, the
    rows ``pr0 / z``, ``pr1 / z`` and ``-(xn * w0 + yn * w1)`` of W, and one
    product ``W @ Q.T`` with Q the rows X, Y, Z and 1. ``R_c.T`` takes each
    product back to the MoCap frame and the cameras are summed. The first
    three columns of that sum contract with each ``dR``, its last is the
    translation gradient.
    """
    rot, drot_a, drot_b, drot_g = rotation_zyx_derivatives(pose.alpha, pose.beta, pose.gamma)
    loss_sum, pulled, active = 0.0, np.zeros((3, 4)), 0
    for block in blocks:
        cam = block.camera
        z, xn, yn, u, v = (
            coord[0]
            for coord in project_stacked(cam, rot[None], pose.translation[None], block.homogeneous)
        )
        front = z > 0.0
        if not np.any(front):
            continue
        pts3, obs = block.points3d, block.points2d
        if not front.all():
            pts3, obs = pts3[front], obs[front]
            z, xn, yn, u, v = z[front], xn[front], yn[front], u[front], v[front]
        du, dv = u - obs[:, 0], v - obs[:, 1]
        loss_sum += float((du * du + dv * dv).sum())
        active += int(z.size)
        pr0 = cam.fx * du
        pr1 = cam.skew * du + cam.fy * dv
        if cam.distortion is not None:
            _, _, r2, radial = _distort(cam.distortion, xn, yn, terms=True)
            jxx, jxy, jyy = _distortion_terms(cam.distortion, xn, yn, r2, radial)
            pr0, pr1 = jxx * pr0 + jxy * pr1, jxy * pr0 + jyy * pr1
        w0, w1 = pr0 / z, pr1 / z
        w = np.stack([w0, w1, -(xn * w0 + yn * w1)])
        q = np.vstack([pts3.T, np.ones(z.size)])
        pulled += cam.rotation.T @ (w @ q.T)
    if active == 0:
        return 0.0, np.zeros(6), 0
    moment = pulled[:, :3]
    grad = np.concatenate([[(d * moment).sum() for d in (drot_a, drot_b, drot_g)], pulled[:, 3]])
    return loss_sum / (2.0 * active), grad / active, active


def perturbed_poses(transform, rng, count=4):
    alpha, beta, gamma = rotation_to_euler(transform.rotation)
    base = np.concatenate(([alpha, beta, gamma], transform.translation))
    scale = np.array([0.01, 0.01, 0.01, 0.02, 0.02, 0.02])
    return [EulerPose.from_vector(base + scale * rng.normal(size=6)) for _ in range(count)]


def lean_pass(blocks, pose):
    return refine._loss_and_gradient_on_blocks(blocks, pose)


def assert_same_bits(blocks, poses):
    for pose in poses:
        got = lean_pass(blocks, pose)
        loss, grad, active = lean_loss_and_gradient(blocks, pose)
        assert got.loss == loss
        assert got.gradient.tobytes() == grad.tobytes()
        assert got.active_count == active


class TestSameBitsAsStackedFormula:
    def test_undistorted_two_cameras(self, rng):
        synth = generate(SynthConfig(n_frames=60, noise_sigma=2.0, outlier_fraction=0.2, seed=3))
        cset = synth.correspondences
        assert_same_bits(cset.camera_blocks(), perturbed_poses(synth.gt_extrinsic, rng))
        for size in rng.integers(2, cset.n_entries, size=30):
            ids = np.sort(rng.choice(cset.n_entries, size=int(size), replace=False))
            blocks = cset.camera_blocks(restrict_to=ids)
            assert_same_bits(blocks, perturbed_poses(synth.gt_extrinsic, rng, count=1))

    def test_distorted_mono(self, rng):
        synth = generate(
            SynthConfig(
                n_cameras=1,
                n_frames=60,
                noise_sigma=2.0,
                outlier_fraction=0.5,
                invalid_fraction=0.2,
                distortion=DistortionCoeffs(k1=0.3, k2=0.1),
                seed=3,
            )
        )
        blocks = synth.correspondences.camera_blocks()
        assert_same_bits(blocks, perturbed_poses(synth.gt_extrinsic, rng))

    def test_block_with_points_behind_the_camera(self, rng):
        cam = basic_camera()
        pts3 = np.column_stack([rng.uniform(-1.0, 1.0, (40, 2)), rng.uniform(-2.0, 4.0, 40)])
        pix = rng.uniform((0.0, 0.0), (1280.0, 720.0), (40, 2))
        rows = [(0, j, 0, p3, p2, True) for j, (p3, p2) in enumerate(zip(pts3, pix))]
        blocks = make_set([cam], rows, dims=(1, 40, 1)).camera_blocks()
        poses = perturbed_poses(RigidTransform.identity(), rng)
        assert all(0 < lean_pass(blocks, pose).active_count < 40 for pose in poses)
        assert_same_bits(blocks, poses)

    def test_one_entry_block(self, rng):
        rows = [(0, 0, 0, (0.1, -0.2, 3.0), (700.0, 300.0), True)]
        block = make_set([basic_camera()], rows, dims=(1, 1, 1)).camera_blocks()[0]
        assert isinstance(block, CameraBlock) and block.entry_ids.size == 1
        assert_same_bits([block], perturbed_poses(RigidTransform.identity(), rng))


class TestCosineSchedule:
    def test_starts_at_initial_rate(self):
        assert cosine_lr(0, 100, 0.5, floor_frac=0.0) == 0.5

    def test_ends_at_floor(self):
        assert abs(cosine_lr(99, 100, 0.5, floor_frac=0.0)) < 1e-16
        assert abs(cosine_lr(99, 100, 0.5, floor_frac=0.1) - 0.05) < 1e-16

    def test_midpoint_is_half(self):
        assert abs(cosine_lr(50, 101, 1.0, floor_frac=0.0) - 0.5) < 1e-15

    def test_single_step_schedule(self):
        assert cosine_lr(0, 1, 0.3, floor_frac=0.0) == 0.3

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 50, 1.0, floor_frac=0.01) for s in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestAdamStep:
    def test_zero_gradient_is_fixed_point(self):
        state, delta = adam_step(AdamState.zeros(), np.zeros(6), 1e-3, 1e-2)
        np.testing.assert_array_equal(delta, np.zeros(6))
        assert state.step == 1

    def test_componentwise_update(self):
        grad = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        _, delta = adam_step(AdamState.zeros(), grad, 1e-3, 1e-2)
        assert delta[0] != 0.0
        np.testing.assert_array_equal(delta[1:], np.zeros(5))

    def test_first_step_magnitude_near_lr(self):
        # Bias correction makes m-hat/sqrt(v-hat) = 1 at step 1 (up to epsilon).
        grad = np.array([0.7, 0.0, 0.0, 3.0, 0.0, 0.0])
        _, delta = adam_step(AdamState.zeros(), grad, 1e-3, 1e-2)
        assert abs(delta[0] + 1e-3) < 1e-6
        assert abs(delta[3] + 1e-2) < 1e-5

    def test_constant_gradient_limit(self):
        state = AdamState.zeros()
        grad = np.full(6, 2.5)
        for _ in range(3000):
            state, delta = adam_step(state, grad, 1e-3, 1e-2)
        np.testing.assert_allclose(-delta[:3], np.full(3, 1e-3), rtol=1e-6)
        np.testing.assert_allclose(-delta[3:], np.full(3, 1e-2), rtol=1e-6)

    def test_descent_direction(self, rng):
        grad = rng.normal(size=6)
        _, delta = adam_step(AdamState.zeros(), grad, 1e-3, 1e-2)
        assert np.dot(delta, grad) < 0


class TestRefinePose:
    @pytest.mark.parametrize("field", ["lr_rotation", "lr_translation"])
    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_config_rejects_a_bad_learning_rate_naming_it(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            RefineConfig(**{field: value})

    def test_start_at_optimum_stays_there(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=40, seed=5))
        gt = session.gt_extrinsic
        cfg = RefineConfig(steps=50, fine_stride=1, inliers_only=False)
        refined, trace = refine_pose(session.correspondences, gt, cfg)
        assert np.linalg.norm(refined.rotation - gt.rotation) < 1e-9
        assert np.linalg.norm(refined.translation - gt.translation) < 1e-9
        assert trace.shape == (50,)
        assert trace[0] < 1e-18

    def test_converges_from_perturbed_start(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=60, seed=6))
        gt = session.gt_extrinsic
        wobble = rotation_zyx(*np.deg2rad([2.0, 0.0, 0.0]))
        init = RigidTransform(gt.rotation @ wobble, gt.translation + np.array([0.05, 0.0, 0.0]))
        cfg = RefineConfig(steps=500, fine_stride=1, inliers_only=False)
        refined, trace = refine_pose(session.correspondences, init, cfg)
        assert rotation_geodesic_deg(refined.rotation, gt.rotation) < 1e-4
        assert np.linalg.norm(refined.translation - gt.translation) < 1e-5
        # Noise-free, so the optimum's loss is 0; the returned pose's is
        # the least in the trace.
        assert trace.min() < 1e-9

    def test_returned_rotation_is_orthonormal(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=10, n_frames=30, noise_sigma=3.0, seed=7))
        gt = session.gt_extrinsic
        init = RigidTransform(gt.rotation, gt.translation + np.array([0.1, -0.1, 0.2]))
        refined, _ = refine_pose(session.correspondences, init, RefineConfig(steps=100))
        np.testing.assert_allclose(refined.rotation @ refined.rotation.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(refined.rotation) - 1.0) < 1e-9

    def test_best_iterate_never_worse_than_init(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=10, n_frames=30, noise_sigma=2.0, seed=8))
        gt = session.gt_extrinsic
        init = RigidTransform(gt.rotation, gt.translation + np.array([0.3, 0.0, 0.0]))
        cfg = RefineConfig(steps=40, fine_stride=1, inliers_only=False)
        _, trace = refine_pose(session.correspondences, init, cfg)
        init_pose = EulerPose(*rotation_to_euler(init.rotation), init.translation)
        init_loss = loss_and_gradient(session.correspondences, init_pose).loss
        assert trace.min() <= init_loss + 1e-15

    def test_first_trace_entry_is_the_loss_at_the_start(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=10, n_frames=30, noise_sigma=2.0, seed=8))
        cset, gt = session.correspondences, session.gt_extrinsic
        init = RigidTransform(gt.rotation, gt.translation + np.array([0.1, 0.0, -0.05]))
        subset = np.flatnonzero(cset.joint_indices % 3 != 0)
        cfg = RefineConfig(steps=5, fine_stride=2)
        _, trace = refine_pose(cset, init, cfg, restrict_to=subset)
        # The start of the chart: the selected points centred on their
        # centroid, no turn about init's rotation, and the translation that
        # acts on the centred points.
        blocks = cset.camera_blocks(stride=2, restrict_to=subset)
        centroid = np.concatenate([block.points3d for block in blocks]).mean(axis=0)
        for block in blocks:
            block.points3d[...] -= centroid
        start = EulerPose(0.0, 0.0, 0.0, init.translation + init.rotation @ centroid)
        loss = refine._loss_and_gradient_on_blocks(blocks, start, init.rotation).loss
        assert trace[0].tobytes() == np.float64(loss).tobytes()
        uncentred = EulerPose(*rotation_to_euler(init.rotation), init.translation)
        reference = loss_and_gradient(cset, uncentred, stride=2, restrict_to=subset).loss
        assert abs(trace[0] - reference) <= 1e-12 * reference

    def test_all_behind_camera_raises(self):
        cam = basic_camera()
        rows = [(0, j, 0, (0.0, 0.0, -2.0), (640.0, 360.0), True) for j in range(3)]
        cset = make_set([cam], rows, dims=(1, 3, 1))
        with pytest.raises(EmptyActiveSetError):
            refine_pose(cset, RigidTransform.identity(), RefineConfig(steps=10))

    def test_noisy_refinement_reaches_noise_floor(self):
        sigma = 2.0
        session = generate(
            SynthConfig(
                n_cameras=2,
                n_joints=17,
                n_frames=100,
                noise_sigma=sigma,
                outlier_fraction=0.2,
                seed=9,
            )
        )
        cset = session.correspondences
        hyp = run_ransac(cset, RansacConfig(tau=6.0, iterations=400, seed=9, coarse_stride=5))
        inliers = count_inliers(cset, hyp.transform, tau=6.0).ids
        cfg = RefineConfig(steps=800, fine_stride=1)
        refined, _ = refine_pose(cset, hyp.transform, cfg, restrict_to=inliers)
        init_err = uncorrupted_mpjpe(session, hyp.transform)
        final_err = uncorrupted_mpjpe(session, refined)
        floor = sigma * math.sqrt(math.pi / 2.0)
        assert final_err <= init_err
        assert abs(final_err - floor) / floor < 0.10


def noisy_inlier_problem(seed=9):
    """A noisy 2-camera session, its RANSAC pose and that pose's inlier ids."""
    session = generate(
        SynthConfig(
            n_cameras=2,
            n_joints=17,
            n_frames=100,
            noise_sigma=2.0,
            outlier_fraction=0.2,
            seed=seed,
        )
    )
    cset = session.correspondences
    hyp = run_ransac(cset, RansacConfig(tau=6.0, iterations=400, seed=seed, coarse_stride=5))
    return cset, hyp.transform, count_inliers(cset, hyp.transform, tau=6.0).ids


def spy_on_chart_parameters(monkeypatch):
    """Record the chart parameters of every loss evaluation refine_pose makes."""
    seen = []
    kernel = refine._loss_and_gradient_on_blocks

    def spy(blocks, pose, base=None):
        seen.append(pose.as_vector())
        return kernel(blocks, pose, base)

    monkeypatch.setattr(refine, "_loss_and_gradient_on_blocks", spy)
    return seen


def pose_rule_stop(trace, params):
    """The step at which the pose-space plateau rule stops a run, or None.

    Written out from the rule: the anchor starts at the first parameters
    and moves to a new lowest-loss iterate that differs from it by more
    than ``_PLATEAU_TOL`` in some parameter; the run stops once the anchor
    is ``_PLATEAU_STEPS`` steps old.
    """
    best_loss, anchor, anchor_step = math.inf, params[0], 0
    for step, (loss, vec) in enumerate(zip(trace, params)):
        if loss < best_loss:
            best_loss = loss
            if np.abs(vec - anchor).max() > refine._PLATEAU_TOL:
                anchor, anchor_step = vec, step
        if step - anchor_step >= refine._PLATEAU_STEPS:
            return step
    return None


class TestPlateauStop:
    def test_noisy_run_stops_on_a_plateau(self, monkeypatch):
        cset, init, inliers = noisy_inlier_problem()
        cfg = RefineConfig(steps=2000, fine_stride=1)
        params = spy_on_chart_parameters(monkeypatch)
        _, trace = refine_pose(cset, init, cfg, restrict_to=inliers)
        assert len(trace) < cfg.steps
        assert len(params) == len(trace)
        assert pose_rule_stop(trace, params) == len(trace) - 1

    def test_stopped_pose_matches_the_uncapped_run(self, monkeypatch):
        cset, init, inliers = noisy_inlier_problem()
        cfg = RefineConfig(steps=2000, fine_stride=1)
        stopped, stopped_trace = refine_pose(cset, init, cfg, restrict_to=inliers)
        monkeypatch.setattr(refine, "_PLATEAU_STEPS", cfg.steps)
        full, full_trace = refine_pose(cset, init, cfg, restrict_to=inliers)
        assert len(full_trace) == cfg.steps
        # The stop cuts the same run short.
        assert full_trace[: len(stopped_trace)].tobytes() == stopped_trace.tobytes()
        # Bounds from the tolerance: a pose within _PLATEAU_TOL (radians,
        # metres) of the uncapped one, and a loss within that share of it.
        tol = refine._PLATEAU_TOL
        assert stopped_trace.min() - full_trace.min() <= tol * full_trace.min()
        assert rotation_geodesic_deg(stopped.rotation, full.rotation) < math.degrees(tol)
        assert np.abs(stopped.translation - full.translation).max() < tol

    def test_descending_run_uses_every_step_of_its_cap(self, monkeypatch):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=60, seed=6))
        gt = session.gt_extrinsic
        wobble = rotation_zyx(*np.deg2rad([2.0, 0.0, 0.0]))
        init = RigidTransform(gt.rotation @ wobble, gt.translation + np.array([0.05, 0.0, 0.0]))
        cfg = RefineConfig(steps=4 * refine._PLATEAU_STEPS, fine_stride=1, inliers_only=False)
        params = spy_on_chart_parameters(monkeypatch)
        _, trace = refine_pose(session.correspondences, init, cfg)
        assert len(trace) == cfg.steps
        assert pose_rule_stop(trace, params) is None

    def test_start_at_optimum_stops_after_one_window(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=40, seed=5))
        gt = session.gt_extrinsic
        refined, trace = refine_pose(session.correspondences, gt, RefineConfig())
        assert len(trace) == refine._PLATEAU_STEPS + 1
        assert refined.rotation.tobytes() == gt.rotation.tobytes()
        assert refined.translation.tobytes() == gt.translation.tobytes()


def two_step_depths(camera, transform, points):
    """Depths from applying the pose, then the camera."""
    world = points @ transform.rotation.T + transform.translation
    return (world @ camera.rotation.T + camera.translation)[:, 2]


def composed_depths(camera, transform, points):
    """Depths from applying the composed camera-from-MoCap transform."""
    rot = camera.rotation @ transform.rotation
    trans = camera.rotation @ transform.translation + camera.translation
    return (points @ rot.T + trans)[:, 2]


def near_plane_set():
    """Five points the two arithmetics split on, plus one ordinary point.

    Points within 1e-15 m of a camera's principal plane get a depth whose
    sign depends on the order of the arithmetic. The five points are those
    where the two-step arithmetic puts them in front of the camera and the
    composed one does not.
    """
    rng = np.random.default_rng(2024)
    camera = basic_camera(
        rotation=random_rotation_matrix(rng), translation=np.array([0.4, -0.3, 2.5])
    )
    # The refinement's rotation is bit-equal to the closed form in
    # to_transform(), as it is for any angles.
    pose = EulerPose(0.0, 0.0, 0.7, np.array([0.3, -0.2, 0.5]))
    transform = pose.to_transform()
    assert np.array_equal(transform.rotation, rotation_zyx_derivatives(0.0, 0.0, 0.7)[0])

    # Camera-frame points within 1e-15 m of the principal plane, taken back
    # to the MoCap frame, and one point 3 m in front.
    n = 4000
    near = np.column_stack(
        [rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1e-15, 1e-15, n)]
    )
    to_mocap = camera_to_mocap(camera, transform)
    candidates = to_mocap.apply(near)
    split = (two_step_depths(camera, transform, candidates) > 0.0) & ~(
        composed_depths(camera, transform, candidates) > 0.0
    )
    points = np.vstack([candidates[np.flatnonzero(split)[:5]], to_mocap.apply([0.1, -0.2, 3.0])])
    cset = make_set(
        [camera],
        [(0, j, 0, p, (640.0, 360.0), True) for j, p in enumerate(points)],
        (1, len(points), 1),
    )
    return cset, camera, pose, transform, points


class TestDepthDecisionNearPrincipalPlane:
    def test_the_set_splits_the_two_arithmetics(self):
        _, camera, _, transform, points = near_plane_set()
        two_step = two_step_depths(camera, transform, points) > 0.0
        composed = composed_depths(camera, transform, points) > 0.0
        assert np.count_nonzero(two_step != composed) == 5
        assert two_step[-1] and composed[-1]

    def test_loss_counts_the_points_projection_puts_in_front(self):
        cset, camera, pose, transform, points = near_plane_set()
        _, depths = project_points(camera, transform, points)
        report = loss_and_gradient(cset, pose)
        assert report.active_count == int(np.count_nonzero(depths > 0.0))
