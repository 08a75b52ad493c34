import math

import numpy as np
import pytest
from scipy import stats

from mocapcal import InfeasibleRigError, project_points
from mocapcal.synth import (
    CLEAN,
    CORRUPTION_LABELS,
    GAUSSIAN,
    INVALID,
    OUTLIER,
    SynthConfig,
    generate,
)


def residual_norms(session, labels):
    """Residual norms under gt_extrinsic for entries carrying any given label."""
    cset = session.correspondences
    keep = np.isin(session.corruption, labels)
    norms = np.full(cset.n_entries, np.nan)
    for block in cset.camera_blocks(stride=1):
        pixels, depths = project_points(block.camera, session.gt_extrinsic, block.points3d)
        diff = pixels - block.points2d
        norms[block.entry_ids] = np.hypot(diff[:, 0], diff[:, 1])
        assert np.all(depths > 0)
    return norms[keep & cset.valid]


class TestConfigValidation:
    def test_rejects_camera_inside_motion_volume(self):
        with pytest.raises(InfeasibleRigError):
            generate(SynthConfig(rig_radius=1.5, motion_extent=2.0))
        with pytest.raises(InfeasibleRigError):
            generate(SynthConfig(rig_radius=2.0, motion_extent=2.0))

    def test_rejects_bad_counts_and_fractions(self):
        with pytest.raises(ValueError):
            SynthConfig(n_cameras=0)
        with pytest.raises(ValueError):
            SynthConfig(n_joints=2)
        with pytest.raises(ValueError):
            SynthConfig(n_frames=0)
        with pytest.raises(ValueError):
            SynthConfig(outlier_fraction=1.2)
        with pytest.raises(ValueError):
            SynthConfig(invalid_fraction=-0.1)
        with pytest.raises(ValueError, match="^seed must"):
            SynthConfig(seed=-1)
        for field in ("noise_sigma", "rig_radius", "motion_extent", "focal_px"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{field} must"):
                    SynthConfig(**{field: value})


class TestCleanGeneration:
    def test_clean_entries_reproject_exactly(self):
        session = generate(SynthConfig(n_cameras=3, n_joints=17, n_frames=50, seed=0))
        norms = residual_norms(session, [CLEAN])
        assert norms.size == session.correspondences.n_entries
        assert norms.max() < 1e-9

    def test_dims_and_entry_count(self):
        session = generate(SynthConfig(n_cameras=3, n_joints=5, n_frames=7, seed=1))
        cset = session.correspondences
        assert cset.dims == (3, 5, 7)
        assert cset.n_entries == 3 * 5 * 7
        assert session.corruption.shape == (cset.n_entries,)

    def test_seed_determinism(self):
        cfg = SynthConfig(n_cameras=2, n_joints=8, n_frames=20, noise_sigma=1.5, outlier_fraction=0.1, invalid_fraction=0.05, seed=33)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.correspondences.points2d, b.correspondences.points2d)
        np.testing.assert_array_equal(a.correspondences.points3d, b.correspondences.points3d)
        np.testing.assert_array_equal(a.corruption, b.corruption)
        np.testing.assert_array_equal(a.gt_extrinsic.rotation, b.gt_extrinsic.rotation)

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=0, n_frames=10))
        b = generate(SynthConfig(seed=1, n_frames=10))
        assert not np.array_equal(a.correspondences.points2d, b.correspondences.points2d)

    def test_motion_stays_within_extent(self):
        cfg = SynthConfig(n_cameras=2, n_joints=17, n_frames=500, motion_extent=2.0, seed=5)
        session = generate(cfg)
        world = session.correspondences.points3d @ session.gt_extrinsic.rotation.T
        world = world + session.gt_extrinsic.translation
        # root walk bounded by extent/2, joint offsets and jitter add at most ~0.5 m
        assert np.abs(world).max() < cfg.motion_extent / 2.0 + 1.0


class TestNoiseModel:
    def test_gaussian_noise_matches_rayleigh_mean(self):
        # 2 cams x 17 joints x 3000 frames > 1e5 entries
        sigma = 2.0
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=3000, noise_sigma=sigma, seed=7))
        norms = residual_norms(session, [GAUSSIAN])
        assert norms.size >= 100_000
        expected = sigma * math.sqrt(math.pi / 2.0)
        assert abs(norms.mean() - expected) / expected < 0.02

    def test_gaussian_residuals_pass_ks_against_rayleigh(self):
        sigma = 1.5
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=300, noise_sigma=sigma, seed=11))
        norms = residual_norms(session, [GAUSSIAN])
        assert norms.size >= 10_000
        result = stats.kstest(norms[:10_000], stats.rayleigh(scale=sigma).cdf)
        assert result.pvalue > 0.01

    def test_outlier_count_is_binomial(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=3000, outlier_fraction=0.2, seed=13))
        n = session.correspondences.n_entries
        count = int((session.corruption == OUTLIER).sum())
        mean = 0.2 * n
        spread = 3.0 * math.sqrt(n * 0.2 * 0.8)
        assert abs(count - mean) <= spread

    def test_outliers_are_uniform_over_image(self):
        cfg = SynthConfig(n_cameras=2, n_joints=17, n_frames=1000, outlier_fraction=0.5, seed=17)
        session = generate(cfg)
        cset = session.correspondences
        pts = cset.points2d[session.corruption == OUTLIER]
        w, h = cfg.image_size
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= w
        assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= h
        # A uniform draw fills the rectangle; exact projections rarely stray this wide.
        assert pts[:, 0].std() > 0.2 * w

    def test_invalid_fraction_marks_entries(self):
        session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=1000, invalid_fraction=0.3, seed=19))
        cset = session.correspondences
        n = cset.n_entries
        count = int((session.corruption == INVALID).sum())
        spread = 3.0 * math.sqrt(n * 0.3 * 0.7)
        assert abs(count - 0.3 * n) <= spread
        assert not cset.valid[session.corruption == INVALID].any()
        assert cset.valid[session.corruption != INVALID].all()

    def test_labels_cover_every_entry(self):
        session = generate(
            SynthConfig(n_cameras=2, n_joints=17, n_frames=200, noise_sigma=1.0, outlier_fraction=0.1, invalid_fraction=0.1, seed=23)
        )
        assert set(np.unique(session.corruption)).issubset({CLEAN, GAUSSIAN, OUTLIER, INVALID})
        assert len(CORRUPTION_LABELS) == 4


class TestBehindCamera:
    def test_points_behind_a_camera_are_invalid(self):
        # Rig barely outside the motion volume: some joints wander behind cameras.
        cfg = SynthConfig(
            n_cameras=8,
            n_joints=17,
            n_frames=400,
            rig_radius=1.3001,
            motion_extent=1.3,
            seed=2,
        )
        session = generate(cfg)
        cset = session.correspondences
        invalid = session.corruption == INVALID
        assert invalid.any()
        assert not cset.valid[invalid].any()
        for k in np.flatnonzero(invalid):
            cam = cset.cameras[int(cset.cam_indices[k])]
            cam_pt = cam.rotation @ session.gt_extrinsic.apply(cset.points3d[k]) + cam.translation
            assert cam_pt[2] <= 0.0
        for block in cset.camera_blocks(stride=1):
            _, depths = project_points(block.camera, session.gt_extrinsic, block.points3d)
            assert np.all(depths > 0)
