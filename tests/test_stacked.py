"""The stacked projection chain and the bearings RANSAC computes in bulk.

Scoring a stack of poses must give, bit for bit, what scoring each pose
alone gives, and a pixel's bearing must not depend on the other pixels it
is computed with: the winner of a search, and its tie-breaks, rest on both.
The chain's shortcuts must be exact too: the squared-residual inlier test,
the skipped zero terms and the one product on homogeneous points.
"""

import itertools
import math

import numpy as np
import pytest

from mocapcal import (
    CameraModel,
    DistortionCoeffs,
    MinimalProblem,
    RigidTransform,
    distort_normalized,
    project_points,
    rotation_zyx,
    undistort_normalized,
)
from mocapcal import ransac
from mocapcal.geometry import _distort, _distortion_terms, project_stacked
from mocapcal.synth import SynthConfig, generate

from helpers import BASIC_K, basic_camera, camera_to_mocap, make_set, random_rotation_matrix
from test_refine import near_plane_set

STRONG = DistortionCoeffs(k1=0.3, k2=0.1, p1=1e-3, p2=-1e-3, k3=0.004)


def stack_with_every_gate():
    """One distorted camera block and five poses.

    The points are the near-principal-plane set, points in front and
    points behind the camera under the first pose; the first pose is the
    one the near-plane set was built for, the rest are perturbations of it.
    """
    _, camera, _, transform, near = near_plane_set()
    camera = basic_camera(camera.rotation, camera.translation, distortion=STRONG)
    rng = np.random.default_rng(7)
    to_mocap = camera_to_mocap(camera, transform)
    in_cam = np.column_stack(
        [rng.uniform(-1.0, 1.0, 40), rng.uniform(-0.6, 0.6, 40), rng.uniform(-3.0, 5.0, 40)]
    )
    points = np.vstack([near, to_mocap.apply(in_cam)])
    pixels, _ = project_points(camera, transform, points)
    pixels += rng.normal(0.0, 2.0, pixels.shape) * rng.choice([1.0, 20.0], (len(points), 1))
    pixels[~np.isfinite(pixels).all(axis=1)] = (640.0, 360.0)
    rows = [(0, j, 0, p, pix, True) for j, (p, pix) in enumerate(zip(points, pixels))]
    block = make_set([camera], rows, (1, len(points), 1)).camera_blocks()[0]
    poses = [transform] + [
        RigidTransform(
            transform.rotation @ rotation_zyx(*rng.normal(0.0, 0.01, 3)),
            transform.translation + rng.normal(0.0, 0.02, 3),
        )
        for _ in range(4)
    ]
    return block, poses


class TestStackedEvaluation:
    def test_the_stack_exercises_every_gate(self):
        block, poses = stack_with_every_gate()
        sq, front, keep = ransac._evaluate_block(
            block, poses[0].rotation[None], poses[0].translation[None], 6.0
        )
        assert not front.all() and front.any()
        assert keep.any() and not keep[front].all()
        assert not np.isfinite(sq).all()
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(keep, front & (np.sqrt(sq) < 6.0))

    def test_stack_of_five_equals_five_single_calls(self):
        block, poses = stack_with_every_gate()
        rotations = np.stack([p.rotation for p in poses])
        translations = np.stack([p.translation for p in poses])
        stacked = ransac._evaluate_block(block, rotations, translations, 6.0)
        for h in range(len(poses)):
            single = ransac._evaluate_block(
                block, rotations[h : h + 1], translations[h : h + 1], 6.0
            )
            for got, want in zip(stacked, single):
                assert got.shape == (len(poses), block.entry_ids.size)
                np.testing.assert_array_equal(got[h], want[0])


def all_bearings_by_triples(cset):
    """Each valid entry's bearing as ``from_observations`` gives it, entry by entry."""
    out = {}
    for cam_index, camera in enumerate(cset.cameras):
        ids = np.flatnonzero(cset.valid & (cset.cam_indices == cam_index))
        for start in range(0, ids.size, 3):
            triple = np.take(ids, range(start, start + 3), mode="wrap")
            problem = MinimalProblem.from_observations(
                camera, cset.points3d[triple], cset.points2d[triple]
            )
            for row, entry in enumerate(triple):
                out[int(entry)] = problem.bearings[row]
    return out


class TestBulkBearings:
    @pytest.mark.parametrize("distortion", [None, STRONG], ids=["pinhole", "distorted"])
    def test_bulk_rows_equal_per_sample_bearings(self, distortion):
        session = generate(
            SynthConfig(
                n_cameras=2,
                n_frames=20,
                outlier_fraction=0.3,
                invalid_fraction=0.2,
                distortion=distortion,
                seed=3,
            )
        )
        cset = session.correspondences
        bulk = ransac._entry_bearings(cset)
        single = all_bearings_by_triples(cset)
        assert sorted(single) == np.flatnonzero(cset.valid).tolist()
        for entry, bearing in single.items():
            assert np.array_equal(bulk[entry], bearing), entry
        assert np.isnan(bulk[~cset.valid]).all()


def frame_grid():
    """Distorted normalized coordinates of a 161 x 91 pixel grid over a 1280 x 720 frame."""
    u, v = np.meshgrid(np.linspace(0.0, 1280.0, 161), np.linspace(0.0, 720.0, 91))
    return np.column_stack(
        [(u.ravel() - BASIC_K[0, 2]) / BASIC_K[0, 0], (v.ravel() - BASIC_K[1, 2]) / BASIC_K[1, 1]]
    )


class TestNewtonUndistortion:
    def test_round_trip_over_the_frame(self):
        distorted = frame_grid()
        recovered = undistort_normalized(STRONG, distorted)
        err = np.abs(distort_normalized(STRONG, recovered) - distorted).max()
        assert err < 1e-12

    def test_a_point_does_not_depend_on_its_neighbours(self):
        rng = np.random.default_rng(11)
        many = np.column_stack([rng.uniform(-0.64, 0.64, 1000), rng.uniform(-0.36, 0.36, 1000)])
        many[417] = [0.05, -0.03]
        alone = undistort_normalized(STRONG, many[417:418])
        assert np.array_equal(undistort_normalized(STRONG, many)[417], alone[0])

    def test_singular_point_returns_nan(self):
        # With k1 = -2 and k2 = 1 the Jacobian at (1, 0) is exactly zero, so
        # the first Newton step is 0/0 and the start is kept; it distorts to
        # (0, 0), not back to (1, 0).
        coeffs = DistortionCoeffs(k1=-2.0, k2=1.0)
        out = undistort_normalized(coeffs, np.array([[1.0, 0.0]]))
        assert out.shape == (1, 2) and np.isnan(out).all()

    @pytest.mark.parametrize("k1", [-0.3, -0.5, -1.0])
    def test_points_it_cannot_invert_come_back_nan(self, k1):
        # Barrel distortion folds the frame's corners: r (1 + k1 r^2) peaks at
        # radius 2 / (3 sqrt(-3 k1)), and Newton cannot reach some points past it.
        coeffs = DistortionCoeffs(k1=k1)
        distorted = frame_grid()
        recovered = undistort_normalized(coeffs, distorted)
        lost = np.isnan(recovered).any(axis=1)
        assert lost.any() and np.isnan(recovered[lost]).all()
        radius = np.hypot(distorted[:, 0], distorted[:, 1])
        peak = 2.0 / (3.0 * np.sqrt(-3.0 * k1))
        assert (radius[lost] > peak).all()
        err = np.abs(distort_normalized(coeffs, recovered[~lost]) - distorted[~lost]).max()
        assert err <= 1e-9
        # A root on the folded branch distorts back onto its pixel too, but it
        # lies across the optical axis from it; none may come back.
        found = recovered[~lost]
        assert (1.0 + k1 * (found * found).sum(axis=1) > 0.0).all()
        # This point lies past the peak radius from k1 = -0.5 on; at -0.5 the
        # folded root (1.422, 0.881) distorts back onto it.
        corner = np.array([[-0.568, -0.352]])
        assert np.isnan(undistort_normalized(coeffs, corner)).all() == (np.hypot(*corner[0]) > peak)


class TestSquaredThreshold:
    @pytest.mark.parametrize("tau", [6.0, 10.0, 0.1, 1e-3, math.pi, 1e3])
    def test_squared_test_is_the_root_test(self, tau):
        t = ransac._squared_threshold(tau)
        square = tau * tau
        sq = np.array(
            [
                t,
                math.nextafter(t, 0.0),
                math.nextafter(t, math.inf),
                square,
                math.nextafter(square, 0.0),
                math.nextafter(square, math.inf),
                0.0,
                -0.0,
                math.inf,
                math.nan,
            ]
        )
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(sq < t, np.sqrt(sq) < tau)
        assert math.sqrt(math.nextafter(t, 0.0)) < tau <= math.sqrt(t)

    def test_evaluate_block_keeps_exactly_the_residuals_below_tau(self):
        # The points project onto the principal point (640, 360) exactly, and
        # each observation lies du pixels left of it, so du and du**2 are exact
        # for du = 6 and 0; the last point lies behind the camera.
        offsets = [6.0, 6.0 - 2.0**-40, 6.0 + 2.0**-40, 0.0, 40.0, 0.0]
        depths = [1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
        rows = [
            (0, j, 0, (0.0, 0.0, z), (640.0 - du, 360.0), True)
            for j, (du, z) in enumerate(zip(offsets, depths))
        ]
        block = make_set([basic_camera()], rows, (1, len(rows), 1)).camera_blocks()[0]
        identity = RigidTransform.identity()
        sq, front, keep = ransac._evaluate_block(
            block, identity.rotation[None], identity.translation[None], 6.0
        )
        assert sq[0, 0] == 36.0 and sq[0, 3] == 0.0
        assert keep[0].tolist() == [False, True, False, True, False, False]
        np.testing.assert_array_equal(keep, front & (np.sqrt(sq) < 6.0))


def five_term_distort(coeffs, x, y):
    """Brown-Conrady distortion with every term, in ``_distort``'s operation order."""
    k1, k2, p1, p2, k3 = coeffs.as_tuple()
    r2 = x * x + y * y
    radial = ((r2 * k3 + k2) * r2 + k1) * r2 + 1.0
    xd = x * radial + 2.0 * p1 * x * y + (2.0 * x * x + r2) * p2
    yd = y * radial + (2.0 * y * y + r2) * p1 + 2.0 * p2 * x * y
    return xd, yd


def five_term_terms(coeffs, x, y):
    """The radial factor and Jacobian entries with every term."""
    k1, k2, p1, p2, k3 = coeffs.as_tuple()
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    dradial = k1 + r2 * (2.0 * k2 + 3.0 * k3 * r2)
    jxx = radial + 2.0 * x * x * dradial + 2.0 * p1 * y + 6.0 * p2 * x
    jxy = 2.0 * x * y * dradial + 2.0 * p1 * x + 2.0 * p2 * y
    jyy = radial + 2.0 * y * y * dradial + 6.0 * p1 * y + 2.0 * p2 * x
    return radial, jxx, jxy, jyy


def two_step_project(camera, rotations, translations, points):
    """The chain as ``R_c R P`` plus ``R_c t + t_c``, with every skew and distortion term.

    ``points`` is ``(3, N)``; returns ``z``, ``x``, ``y``, ``u`` and ``v``, each ``(H, N)``.
    """
    rot = camera.rotation @ rotations
    trans = (camera.rotation @ translations[:, :, None])[:, :, 0] + camera.translation
    pts = np.ascontiguousarray(points)
    cam = (rot.reshape(-1, 3) @ pts).reshape(rotations.shape[0], 3, -1) + trans[:, :, None]
    z = cam[:, 2]
    x, y = cam[:, 0] / z, cam[:, 1] / z
    coeffs = camera.distortion or DistortionCoeffs()
    xd, yd = five_term_distort(coeffs, x, y)
    u = camera.fx * xd + camera.skew * yd + camera.cx
    v = camera.fy * yd + camera.cy
    return z, x, y, u, v


def random_poses(rng, count):
    rotations = np.stack([random_rotation_matrix(rng) for _ in range(count)])
    translations = rng.normal(0.0, 0.05, (count, 3))
    return rotations, translations


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# Every zero pattern of (k3, p1, p2), with k1 and k2 always non-zero.
ZERO_PATTERNS = [
    DistortionCoeffs(k1=-0.2, k2=0.05, k3=k3, p1=p1, p2=p2)
    for k3, p1, p2 in itertools.product([0.0, -0.01], [0.0, 1e-3], [0.0, -5e-4])
]


class TestZeroTermsKeepTheBits:
    """A skipped zero term changes no finite non-zero value: inputs here have no zeros."""

    @pytest.mark.parametrize("coeffs", ZERO_PATTERNS, ids=str)
    def test_distortion_and_its_jacobian(self, coeffs, rng):
        x, y = rng.uniform(-0.6, 0.6, (2, 3, 400))
        assert_same_bytes(_distort(coeffs, x.copy(), y.copy()), five_term_distort(coeffs, x, y))
        assert_same_bytes(_distortion_terms(coeffs, x, y), five_term_terms(coeffs, x, y))

    @pytest.mark.parametrize("skew", [0.0, 2.5])
    @pytest.mark.parametrize("coeffs", ZERO_PATTERNS + [None], ids=str)
    def test_projection(self, coeffs, skew, rng):
        intrinsics = BASIC_K.copy()
        intrinsics[0, 1] = skew
        camera = CameraModel(
            intrinsics, random_rotation_matrix(rng), rng.normal(0.0, 0.1, 3), distortion=coeffs
        )
        rotations, translations = random_poses(rng, 5)
        in_cam = np.column_stack([rng.uniform(-1.0, 1.0, (300, 2)), rng.uniform(2.0, 6.0, 300)])
        # MoCap points that lie in front of the camera under the first pose.
        rc = camera.rotation @ rotations[0]
        tc = camera.rotation @ translations[0] + camera.translation
        points = ((in_cam - tc) @ rc).T
        q = np.empty((4, points.shape[1]))
        q[:3] = points
        q[3] = 1.0
        got = project_stacked(camera, rotations, translations, q)
        want = two_step_project(camera, rotations, translations, points)
        assert all(np.isfinite(a).all() for a in want)
        assert_same_bytes(got, want)


class TestHomogeneousProduct:
    """``[R|t] @ Q`` has the bits of ``R @ P + t`` for N >= 2, whole or sliced.

    At N = 1 NumPy takes a matrix-vector path instead, whose bits may
    differ; ``ransac._score_blocks`` never splits off such a segment.
    """

    @pytest.mark.parametrize("n_poses", [1, 8, 13])
    def test_whole_blocks_and_column_slices(self, n_poses, rng):
        synth = generate(SynthConfig(n_cameras=2, n_frames=100, outlier_fraction=0.2, seed=5))
        for block in synth.correspondences.camera_blocks():
            n = block.entry_ids.size
            rotations, translations = random_poses(rng, n_poses)
            rotations[0] = synth.gt_extrinsic.rotation
            translations[0] = synth.gt_extrinsic.translation
            for lo, hi in [(0, n), (0, 2), (5, 7), (3, 515), (517, 1541), (100, n), (n - 2, n)]:
                got = project_stacked(
                    block.camera, rotations, translations, block.homogeneous[:, lo:hi]
                )
                want = two_step_project(
                    block.camera, rotations, translations, block.points3d[lo:hi].T
                )
                assert got[0].shape == (n_poses, hi - lo)
                assert_same_bytes(got[:3], want[:3])
