"""Synthetic capture sessions with known ground truth.

Builds a ring of calibrated cameras around a bounded random walk of
skeleton-like joint clouds, projects everything, then corrupts the
detections: a fraction is invalidated, a fraction is replaced by uniform
pixels anywhere in the image, and the rest gets isotropic Gaussian
noise. Every entry carries a label recording which of these happened, so
tests can score estimators against the exact corruption mask.

All randomness flows from one seeded generator in a fixed draw order,
making sessions reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleRigError
from .geometry import CameraModel, DistortionCoeffs, RigidTransform, project_points
from .ransac import CorrespondenceSet

# Corruption labels stored per entry.
CLEAN = 0
GAUSSIAN = 1
OUTLIER = 2
INVALID = 3
CORRUPTION_LABELS = ("clean", "gaussian", "outlier", "invalid")

# Joint layout: fixed per-joint offsets from the root plus per-frame jitter.
JOINT_OFFSET_RANGE = 0.35
JOINT_JITTER_SIGMA = 0.02


@dataclass(frozen=True, eq=False)
class SynthConfig:
    """Parameters of a synthetic session.

    Cameras sit on a circle of radius ``rig_radius`` looking at the
    origin; the motion stays inside a cube of side ``motion_extent``
    centered there. ``gt_extrinsic`` fixes the MoCap-to-world transform,
    otherwise one is drawn from the seed.
    """

    n_cameras: int = 2
    n_joints: int = 17
    n_frames: int = 300
    rig_radius: float = 4.0
    focal_px: float = 1000.0
    image_size: tuple[int, int] = (1280, 720)
    motion_extent: float = 2.0
    noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    invalid_fraction: float = 0.0
    distortion: Optional[DistortionCoeffs] = None
    gt_extrinsic: Optional[RigidTransform] = None
    seed: int = 0

    def __post_init__(self):
        if self.n_cameras < 1:
            raise ValueError("n_cameras must be >= 1")
        if self.n_joints < 3:
            raise ValueError("n_joints must be >= 3")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        for name in ("rig_radius", "motion_extent", "focal_px"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        for name in ("outlier_fraction", "invalid_fraction"):
            frac = getattr(self, name)
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        w, h = self.image_size
        if int(w) <= 0 or int(h) <= 0:
            raise ValueError("image_size must be positive")
        object.__setattr__(self, "image_size", (int(w), int(h)))


@dataclass(frozen=True, eq=False)
class SynthSession:
    """A generated correspondence set plus its ground truth and labels."""

    correspondences: CorrespondenceSet
    gt_extrinsic: RigidTransform
    corruption: np.ndarray

    def __post_init__(self):
        labels = np.ascontiguousarray(self.corruption, dtype=np.uint8)
        if labels.shape != (self.correspondences.n_entries,):
            raise ValueError("corruption labels must align with the entries")
        labels.setflags(write=False)
        object.__setattr__(self, "corruption", labels)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _look_at(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation: z toward target, x right, y down."""
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, -1.0])
    right = np.cross(forward, up)
    norm = np.linalg.norm(right)
    if norm < 1e-9:
        up = np.array([0.0, -1.0, 0.0])
        right = np.cross(forward, up)
        norm = np.linalg.norm(right)
    right /= norm
    down = np.cross(forward, right)
    return np.stack([right, down, forward], axis=0)


def _ring_cameras(cfg: SynthConfig, rng: np.random.Generator) -> list[CameraModel]:
    width, height = cfg.image_size
    intrinsics = np.array(
        [
            [cfg.focal_px, 0.0, width / 2.0],
            [0.0, cfg.focal_px, height / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    cameras = []
    for i in range(cfg.n_cameras):
        angle = 2.0 * np.pi * i / cfg.n_cameras + rng.normal(0.0, 0.05)
        height_z = 0.25 * cfg.rig_radius + rng.normal(0.0, 0.05 * cfg.rig_radius)
        position = np.array(
            [cfg.rig_radius * np.cos(angle), cfg.rig_radius * np.sin(angle), height_z]
        )
        rot = _look_at(position, np.zeros(3))
        cameras.append(
            CameraModel(
                intrinsics=intrinsics,
                rotation=rot,
                translation=-rot @ position,
                distortion=cfg.distortion,
                image_size=cfg.image_size,
            )
        )
    return cameras


def _joint_trajectories(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """World joint positions, shape (n_frames, n_joints, 3).

    The root follows a smoothed autoregressive walk clipped to the
    motion cube; joints add fixed offsets and per-frame jitter.
    """
    half = cfg.motion_extent / 2.0
    steps = rng.normal(0.0, cfg.motion_extent / 20.0, size=(cfg.n_frames, 3))
    root = np.empty((cfg.n_frames, 3))
    pos = np.zeros(3)
    for t in range(cfg.n_frames):
        pos = np.clip(0.98 * pos + steps[t], -half, half)
        root[t] = pos
    offsets = rng.uniform(-JOINT_OFFSET_RANGE, JOINT_OFFSET_RANGE, size=(cfg.n_joints, 3))
    jitter = rng.normal(0.0, JOINT_JITTER_SIGMA, size=(cfg.n_frames, cfg.n_joints, 3))
    return root[:, None, :] + offsets[None, :, :] + jitter


def generate(cfg: SynthConfig = SynthConfig()) -> SynthSession:
    """Generate a corrupted synthetic session.

    Entries are ordered camera-major, then frame, then joint. Points
    projecting behind a camera are marked invalid regardless of the
    corruption draws; otherwise each entry is invalidated with
    ``invalid_fraction`` probability, else replaced by a uniform image
    point with ``outlier_fraction`` probability, else perturbed by
    Gaussian noise of ``noise_sigma`` pixels per axis (zero sigma leaves
    it clean).

    Raises :class:`InfeasibleRigError` when the camera ring would not
    enclose the motion volume.
    """
    if cfg.rig_radius <= cfg.motion_extent:
        raise InfeasibleRigError(
            f"rig_radius {cfg.rig_radius} must exceed motion_extent {cfg.motion_extent}"
        )
    rng = np.random.default_rng(cfg.seed)
    gt = cfg.gt_extrinsic
    if gt is None:
        gt = RigidTransform(
            rotation=_random_rotation(rng), translation=rng.uniform(-1.0, 1.0, size=3)
        )
    cameras = _ring_cameras(cfg, rng)
    world = _joint_trajectories(cfg, rng)
    mocap = gt.inverse().apply(world)

    n, t_frames, j_joints = cfg.n_cameras, cfg.n_frames, cfg.n_joints
    per_cam = t_frames * j_joints
    width, height = cfg.image_size

    # Fixed draw order keeps sessions reproducible for a given seed.
    invalid_draw = rng.random(size=(n, t_frames, j_joints))
    outlier_draw = rng.random(size=(n, t_frames, j_joints))
    outlier_px = rng.uniform(0.0, 1.0, size=(n, t_frames, j_joints, 2)) * np.array(
        [width, height], dtype=np.float64
    )
    noise = rng.normal(0.0, 1.0, size=(n, t_frames, j_joints, 2))

    pixels = np.empty((n, t_frames, j_joints, 2))
    labels = np.empty((n, t_frames, j_joints), dtype=np.uint8)
    flat_world = world.reshape(-1, 3)
    for i, cam in enumerate(cameras):
        proj, depths = project_points(cam, RigidTransform.identity(), flat_world)
        proj = proj.reshape(t_frames, j_joints, 2)
        depths = depths.reshape(t_frames, j_joints)
        behind = (depths <= 0.0) | ~np.all(np.isfinite(proj), axis=-1)
        invalid = behind | (invalid_draw[i] < cfg.invalid_fraction)
        outlier = ~invalid & (outlier_draw[i] < cfg.outlier_fraction)
        noisy = ~invalid & ~outlier & (cfg.noise_sigma > 0.0)
        lab = np.full((t_frames, j_joints), CLEAN, dtype=np.uint8)
        lab[noisy] = GAUSSIAN
        lab[outlier] = OUTLIER
        lab[invalid] = INVALID
        px = np.nan_to_num(proj, nan=0.0, posinf=0.0, neginf=0.0)
        px = np.where(noisy[..., None], px + cfg.noise_sigma * noise[i], px)
        px = np.where(outlier[..., None], outlier_px[i], px)
        pixels[i] = px
        labels[i] = lab

    frame_grid, joint_grid = np.meshgrid(
        np.arange(t_frames), np.arange(j_joints), indexing="ij"
    )
    cset = CorrespondenceSet(
        cameras=cameras,
        cam_indices=np.repeat(np.arange(n, dtype=np.int64), per_cam),
        joint_indices=np.tile(joint_grid.ravel(), n),
        frame_indices=np.tile(frame_grid.ravel(), n),
        points3d=np.tile(mocap.reshape(-1, 3), (n, 1)),
        points2d=pixels.reshape(-1, 2),
        valid=(labels != INVALID).ravel(),
        dims=(n, j_joints, t_frames),
    )
    return SynthSession(
        correspondences=cset, gt_extrinsic=gt, corruption=labels.ravel()
    )
