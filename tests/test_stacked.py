"""The stacked projection chain and the bearings RANSAC computes in bulk.

Scoring a stack of poses must give, bit for bit, what scoring each pose
alone gives, and a pixel's bearing must not depend on the other pixels it
is computed with: the winner of a search, and its tie-breaks, rest on both.
"""

import numpy as np
import pytest

from mocapcal import (
    DistortionCoeffs,
    MinimalProblem,
    RigidTransform,
    distort_normalized,
    project_points,
    rotation_zyx,
    undistort_normalized,
)
from mocapcal import ransac
from mocapcal.synth import SynthConfig, generate

from helpers import BASIC_K, basic_camera, camera_to_mocap, make_set
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
        norms, front, keep = ransac._evaluate_block(
            block, poses[0].rotation[None], poses[0].translation[None], 6.0
        )
        assert not front.all() and front.any()
        assert keep.any() and not keep[front].all()
        assert not np.isfinite(norms).all()

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
