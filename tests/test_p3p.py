import math

import numpy as np
import pytest

from mocapcal import (
    DegenerateConfigurationError,
    DistortionCoeffs,
    MinimalProblem,
    RigidTransform,
    recover_mocap_pose,
    rotation_zyx,
    solve_p3p,
)
from mocapcal import p3p

from helpers import basic_camera, random_rotation_matrix


def make_problem(rng, n_attempts=100):
    """Random pose + 3 points in front of the camera; returns gt too."""
    for _ in range(n_attempts):
        rot = random_rotation_matrix(rng)
        trans = rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, 4.0])
        pts = rng.uniform(-1.0, 1.0, (3, 3))
        cam_pts = pts @ rot.T + trans
        if np.any(cam_pts[:, 2] <= 0.1):
            continue
        bearings = cam_pts / np.linalg.norm(cam_pts, axis=1, keepdims=True)
        return MinimalProblem(world_points=pts, bearings=bearings), rot, trans
    raise RuntimeError("could not build a problem")


def problem_from_ranges(bearings, ranges, rot, trans):
    """World points seen along exact unit ``bearings`` at the given ranges."""
    bearings = np.array([np.asarray(b, dtype=np.float64) / np.linalg.norm(b) for b in bearings])
    cam_pts = np.asarray(ranges, dtype=np.float64)[:, None] * bearings
    return MinimalProblem(world_points=(cam_pts - trans) @ rot, bearings=bearings)


def make_near_double_problem(rng, rel_gap=1e-3):
    """A problem whose quartic has two real roots about ``rel_gap`` apart.

    At s3/s1 = cg/ca the quartic has a double root (see the quadratic
    fallback test); moving s3 off that ratio by ``rel_gap`` splits it.
    """
    while True:
        bearings = np.c_[rng.uniform(-0.5, 0.5, (3, 2)), np.ones(3)]
        unit = bearings / np.linalg.norm(bearings, axis=1, keepdims=True)
        ratio = float(np.dot(unit[0], unit[1]) / np.dot(unit[1], unit[2]))
        ratio *= 1.0 + rel_gap * rng.choice([-1.0, 1.0])
        ranges = [4.0, rng.uniform(2.0, 6.0), 4.0 * ratio]
        rot = random_rotation_matrix(rng)
        trans = rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, 4.0])
        problem = problem_from_ranges(bearings, ranges, rot, trans)
        if np.linalg.norm(np.cross(*(problem.world_points[1:] - problem.world_points[0]))) > 1e-3:
            return problem


def fallback_problem():
    """A problem whose back-substitution denominator vanishes at a root.

    s3/s1 = cg/ca zeroes the linear back-substitution's denominator, which
    makes that root of the quartic a double root; u then comes from the
    quadratic law-of-cosines constraint.
    """
    bearings = [[-0.3, 0.1, 1.0], [0.05, -0.25, 1.0], [0.2, 0.3, 1.0]]
    unit = np.array(bearings) / np.linalg.norm(bearings, axis=1, keepdims=True)
    ratio = float(np.dot(unit[0], unit[1]) / np.dot(unit[1], unit[2]))
    rot = rotation_zyx(0.3, -0.4, 0.5)
    trans = np.array([0.2, -0.1, 4.0])
    return problem_from_ranges(bearings, [4.0, 3.0, 4.0 * ratio], rot, trans), rot, trans


def biquadratic_problem():
    """A problem whose quartic has no odd terms and a negative c0/c4.

    Bearing 1 orthogonal to bearings 2 and 3 zeroes the odd coefficients,
    so the depressed quartic has no linear term; with c0/c4 < 0 the
    resolvent cubic's only real root is 0 and cannot split the quartic.
    """
    bearings = [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -0.3, 1.0]]
    rot = rotation_zyx(0.3, -0.4, 0.5)
    trans = np.array([0.2, -0.1, 4.0])
    return problem_from_ranges(bearings, [5.0, 5.5, 2.4], rot, trans), rot, trans


def quartic_of(problem):
    """Grunert quartic coefficients and (ca, cb, cg) exactly as the solver forms them."""
    p1, p2, p3 = problem.world_points.tolist()
    f1, f2, f3 = problem.bearings.tolist()
    ca, cb, cg = (sum(a * b for a, b in zip(x, y)) for x, y in ((f2, f3), (f1, f3), (f1, f2)))
    b2 = math.dist(p1, p3) ** 2
    A = math.dist(p2, p3) ** 2 / b2
    B = math.dist(p1, p2) ** 2 / b2
    coeffs = p3p._grunert_quartic(A, B, ca, cb, cg, (A - B - 1.0) ** 2, (A - B + 1.0) ** 2)
    return coeffs, ca, cb, cg


def companion_matrix_roots(coeffs):
    """Reference root finder: eigenvalues of the companion matrix (``np.roots``).

    Keeps roots within 1e-8 of the real axis and applies the same two Newton
    steps the solver's closed form gets.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8].real
    deriv = np.polyder(coeffs)
    for _ in range(2):
        val = np.polyval(coeffs, real)
        dval = np.polyval(deriv, real)
        safe = np.abs(dval) > 1e-300
        real = np.where(safe, real - val / np.where(safe, dval, 1.0), real)
    return real.tolist()


def contains_pose(solutions, rot, trans, tol=1e-6):
    return any(
        np.linalg.norm(s.rotation - rot) < tol and np.linalg.norm(s.translation - trans) < tol
        for s in solutions
    )


class TestMinimalProblem:
    def test_rejects_non_unit_bearings(self):
        pts = np.eye(3)
        bearings = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="unit"):
            MinimalProblem(world_points=pts, bearings=bearings)

    def test_rejects_coincident_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        bearings = np.tile([0.0, 0.0, 1.0], (3, 1))
        with pytest.raises(DegenerateConfigurationError, match="coincide"):
            MinimalProblem(world_points=pts, bearings=bearings)

    def test_from_observations_matches_direct_bearings(self, rng):
        cam = basic_camera()
        problem, rot, trans = make_problem(rng)
        cam_pts = problem.world_points @ rot.T + trans
        pixels = 1000.0 * cam_pts[:, :2] / cam_pts[:, 2:3] + np.array([640.0, 360.0])
        rebuilt = MinimalProblem.from_observations(cam, problem.world_points, pixels)
        np.testing.assert_allclose(rebuilt.bearings, problem.bearings, atol=1e-12)

    def test_from_observations_undoes_distortion(self, rng):
        coeffs = DistortionCoeffs(k1=-0.2, k2=0.03, p1=1e-3, p2=-1e-3, k3=0.004)
        cam = basic_camera(distortion=coeffs)
        problem, rot, trans = make_problem(rng)
        from mocapcal import distort_normalized

        cam_pts = problem.world_points @ rot.T + trans
        norm = cam_pts[:, :2] / cam_pts[:, 2:3]
        dist = distort_normalized(coeffs, norm)
        pixels = 1000.0 * dist + np.array([640.0, 360.0])
        rebuilt = MinimalProblem.from_observations(cam, problem.world_points, pixels)
        np.testing.assert_allclose(rebuilt.bearings, problem.bearings, atol=1e-9)

    def test_from_observations_with_an_uninvertible_pixel_is_degenerate(self):
        # With k1 = -1 the distorted radius peaks at about 0.385, so the third
        # pixel (normalized x = 0.5) has no bearing.
        cam = basic_camera(distortion=DistortionCoeffs(k1=-1.0))
        pts = np.array([[0.0, 0.0, 2.0], [0.1, 0.0, 2.0], [0.0, 0.1, 2.0]])
        pixels = np.array([[640.0, 360.0], [690.0, 360.0], [1140.0, 360.0]])
        with pytest.raises(DegenerateConfigurationError, match="pixel 2"):
            MinimalProblem.from_observations(cam, pts, pixels)
        pixels[2] = (np.nan, 360.0)
        with pytest.raises(ValueError, match="finite") as info:
            MinimalProblem.from_observations(cam, pts, pixels)
        assert not isinstance(info.value, DegenerateConfigurationError)
        with pytest.raises(ValueError, match="finite"):
            MinimalProblem(world_points=pts, bearings=np.full((3, 3), np.nan))


class TestSolveP3P:
    def test_known_pose_is_recovered(self, rng):
        problem, rot, trans = make_problem(rng)
        solutions = solve_p3p(problem)
        assert contains_pose(solutions, rot, trans, tol=1e-8)

    def test_canonical_points_round_trip(self):
        from mocapcal import rotation_zyx

        # An asymmetric pose: equal point-to-camera distances would make the
        # underlying quartic root a double root, which no solver resolves to 1e-8.
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rot = rotation_zyx(0.3, -0.4, 0.5)
        trans = np.array([0.2, -0.1, 4.0])
        cam_pts = pts @ rot.T + trans
        bearings = cam_pts / np.linalg.norm(cam_pts, axis=1, keepdims=True)
        solutions = solve_p3p(MinimalProblem(world_points=pts, bearings=bearings))
        assert contains_pose(solutions, rot, trans, tol=1e-8)

    def test_collinear_points_raise(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        bearings = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.8, 0.0, 0.6]])
        with pytest.raises(DegenerateConfigurationError, match="area"):
            solve_p3p(MinimalProblem(world_points=pts, bearings=bearings))

    def test_monte_carlo_recovery_and_bounds(self, rng):
        for _ in range(2000):
            problem, rot, trans = make_problem(rng)
            solutions = solve_p3p(problem)
            assert len(solutions) <= 4
            assert contains_pose(solutions, rot, trans)
            for sol in solutions:
                proj = problem.world_points @ sol.rotation.T + sol.translation
                assert np.all(proj[:, 2] > 0.0)
                reproj = proj[:, :2] / proj[:, 2:3]
                observed = problem.bearings[:, :2] / problem.bearings[:, 2:3]
                assert np.abs(reproj - observed).max() < 1e-8

    def test_closed_form_roots_match_companion_matrix(self, rng, monkeypatch):
        # Ferrari's closed form must not drop roots the eigenvalue solver keeps
        # (near-double roots are the risk), nor admit poses it would not find.
        problems = [make_problem(rng)[0] for _ in range(1000)]
        problems += [make_near_double_problem(rng) for _ in range(1000)]
        closed_form = [len(solve_p3p(problem)) for problem in problems]
        monkeypatch.setattr(p3p, "_real_roots", companion_matrix_roots)
        reference = [len(solve_p3p(problem)) for problem in problems]
        assert closed_form == reference
        assert sum(closed_form) > len(problems)

    def test_vanishing_back_substitution_takes_quadratic_fallback(self):
        problem, rot, trans = fallback_problem()
        coeffs, ca, _, cg = quartic_of(problem)
        assert any(abs(2.0 * (cg - v * ca)) <= 1e-12 for v in p3p._real_roots(coeffs))
        assert contains_pose(solve_p3p(problem), rot, trans, tol=1e-8)

    def test_vanishing_leading_coefficient_keeps_the_cubic_roots(self):
        # (v - 1)(v - 2)(v - 3) written as a quartic with c4 = 0; the fourth
        # root is at infinity and may come back as a huge value.
        roots = p3p._real_roots((0.0, 1.0, -6.0, 11.0, -6.0))
        for expected in (1.0, 2.0, 3.0):
            assert min(abs(v - expected) for v in roots) < 1e-12

    def test_biquadratic_quartic(self):
        problem, rot, trans = biquadratic_problem()
        coeffs, _, _, _ = quartic_of(problem)
        assert coeffs[1] == 0.0 and coeffs[3] == 0.0
        assert coeffs[4] / coeffs[0] < 0.0
        assert contains_pose(solve_p3p(problem), rot, trans, tol=1e-8)

    def test_solutions_are_distinct(self, rng):
        for _ in range(200):
            problem, _, _ = make_problem(rng)
            sols = list(solve_p3p(problem))
            for i in range(len(sols)):
                for j in range(i + 1, len(sols)):
                    apart = (
                        np.linalg.norm(sols[i].rotation - sols[j].rotation) >= 1e-6
                        or np.linalg.norm(sols[i].translation - sols[j].translation) >= 1e-6
                    )
                    assert apart


def solve_batch(problems):
    return p3p.solve_p3p_batch(
        np.stack([p.world_points for p in problems]), np.stack([p.bearings for p in problems])
    )


def assert_batch_matches_scalar(problems):
    """``solve_p3p_batch`` gives each problem's ``solve_p3p`` poses, byte for byte."""
    batch = solve_batch(problems)
    assert not batch.degenerate.any()
    first = 0
    for i, problem in enumerate(problems):
        want = solve_p3p(problem)
        assert batch.counts[i] == len(want), i
        for j, sol in enumerate(want):
            assert batch.rotations[first + j].tobytes() == sol.rotation.tobytes(), i
            assert batch.translations[first + j].tobytes() == sol.translation.tobytes(), i
        first += len(want)
    assert first == batch.rotations.shape[0] == batch.translations.shape[0]
    return batch


class TestSolveP3PBatch:
    def test_matches_scalar_on_criterion_1_problems(self):
        from test_acceptance import random_minimal_problem

        rng = np.random.default_rng(0)
        problems = [random_minimal_problem(rng)[0] for _ in range(10_000)]
        batch = assert_batch_matches_scalar(problems)
        assert (batch.counts == 4).any() and batch.counts.sum() > len(problems)
        reversed_ = [abs(c[0]) > abs(c[4]) for c, *_ in map(quartic_of, problems[:200])]
        assert any(reversed_) and not all(reversed_)

    def test_matches_scalar_on_clustered_roots(self, rng, monkeypatch):
        # Exact double roots: the closed form returns a split pair, and the
        # poses lifted from it are merged by the deduplication.
        problems = [make_near_double_problem(rng, rel_gap) for rel_gap in (1e-3, 0.0) * 300]
        dropped = []
        distinct = p3p._distinct

        def spy(rotations, translations):
            kept = distinct(rotations, translations)
            dropped.append(len(rotations) - len(kept))
            return kept

        monkeypatch.setattr(p3p, "_distinct", spy)
        assert_batch_matches_scalar(problems)
        assert any(dropped)

    @pytest.mark.parametrize("build", [fallback_problem, biquadratic_problem])
    def test_matches_scalar_on_special_quartics(self, build):
        problem, _, _ = build()
        batch = assert_batch_matches_scalar([problem, problem])
        assert batch.counts[0] == batch.counts[1] > 0

    def test_degenerate_samples(self, rng):
        good, _, _ = make_problem(rng)
        collinear = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        coincident = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        lost = good.bearings.copy()
        lost[1] = np.nan
        points = np.stack([collinear, good.world_points, coincident, good.world_points])
        bearings = np.stack([good.bearings, good.bearings, good.bearings, lost])
        batch = p3p.solve_p3p_batch(points, bearings)
        assert batch.degenerate.tolist() == [True, False, True, True]
        assert batch.counts[1] == len(solve_p3p(good)) and batch.counts.sum() == batch.counts[1]

    def test_bearing_without_positive_depth_has_no_solution(self, rng):
        problem, _, _ = make_problem(rng)
        for z in (0.0, -0.6):
            bearings = problem.bearings.copy()
            bearings[2] = (np.sqrt(1.0 - z * z), 0.0, z)
            behind = MinimalProblem(problem.world_points, bearings)
            assert solve_p3p(behind) == ()
            batch = assert_batch_matches_scalar([behind, problem])
            assert batch.counts[0] == 0 and batch.counts[1] > 0

    def test_distinct_drops_near_duplicates_and_keeps_four(self):
        rots = [[float(i)] * 9 for i in range(6)]
        trans = [[0.0, 0.0, float(i)] for i in range(6)]
        rots.insert(1, [1e-7] * 9)
        trans.insert(1, [0.0, 0.0, 1e-7])
        assert p3p._distinct(rots, trans) == [0, 2, 3, 4]
        assert p3p._distinct(rots[:3], trans[:3]) == [0, 2]


class TestRecoverMocapPose:
    def test_stacked_recovery_is_byte_identical(self, rng):
        cam = basic_camera(rotation=random_rotation_matrix(rng), translation=rng.uniform(-1, 1, 3))
        rots = np.stack([random_rotation_matrix(rng) for _ in range(500)])
        trans = rng.uniform(-5.0, 5.0, (500, 3))
        got_rot, got_trans = p3p.recover_mocap_poses(rots, trans, cam)
        for r, t, gr, gt in zip(rots, trans, got_rot, got_trans):
            want = recover_mocap_pose(RigidTransform(r, t), cam)
            assert gr.tobytes() == want.rotation.tobytes()
            assert gt.tobytes() == want.translation.tobytes()

    def test_identity_camera_returns_input(self, rng):
        cam = basic_camera()
        pose = RigidTransform(random_rotation_matrix(rng), rng.uniform(-1, 1, 3))
        out = recover_mocap_pose(pose, cam)
        np.testing.assert_allclose(out.rotation, pose.rotation, atol=1e-12)
        np.testing.assert_allclose(out.translation, pose.translation, atol=1e-12)

    def test_compose_then_recover_round_trip(self, rng):
        cam = basic_camera(rotation=random_rotation_matrix(rng), translation=rng.uniform(-1, 1, 3))
        target = RigidTransform(random_rotation_matrix(rng), rng.uniform(-1, 1, 3))
        camera_from_mocap = RigidTransform(
            cam.rotation @ target.rotation, cam.rotation @ target.translation + cam.translation
        )
        recovered = recover_mocap_pose(camera_from_mocap, cam)
        np.testing.assert_allclose(recovered.rotation, target.rotation, atol=1e-10)
        np.testing.assert_allclose(recovered.translation, target.translation, atol=1e-10)

    def test_camera_extrinsics_recover_identity(self, rng):
        cam = basic_camera(rotation=random_rotation_matrix(rng), translation=rng.uniform(-1, 1, 3))
        out = recover_mocap_pose(RigidTransform(cam.rotation, cam.translation), cam)
        np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-10)
