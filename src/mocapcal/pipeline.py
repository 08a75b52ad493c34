"""End-to-end calibration: robust search, refinement, and reporting.

``calibrate`` wires the stages together: a RANSAC search over minimal
samples initializes the MoCap-to-world transform, its stride-1 inliers
feed the gradient refinement, and the refined pose is accepted only when
it does not worsen the full-set mean reprojection error. Each pose is
evaluated in one pass over the stride-1 blocks. The report holds the
estimate, quality metrics, optional ground-truth errors, timing, and an
echo of the configuration for reproducibility.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyActiveSetError
from .geometry import EulerPose, RigidTransform, rotation_geodesic_deg, rotation_to_euler
from .ransac import CameraBlock, CorrespondenceSet, RansacConfig, _evaluate_block, run_ransac
from .refine import RefineConfig, refine_pose


class CorrespondenceCounts(NamedTuple):
    """Entry totals: all rows, valid rows, valid rows in front of a camera."""

    total: int
    valid: int
    positive_depth: int


@dataclass(frozen=True)
class Timing:
    """Wall-clock milliseconds per stage plus the per-frame average."""

    ransac_ms: float
    refine_ms: float
    total_ms: float
    ms_per_frame: float


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """Everything produced by one calibration run."""

    transform: RigidTransform
    euler: EulerPose
    mpjpe_init: float
    mpjpe_refined: float
    mpjpe_gt: Optional[float]
    gt_rotation_err_deg: Optional[float]
    gt_translation_err_m: Optional[float]
    inlier_ratio: float
    inlier_count: int
    refinement_rejected: bool
    correspondence_counts: CorrespondenceCounts
    timing: Timing
    config_echo: dict
    seed: int
    warnings: tuple[str, ...] = ()


def _evaluate(
    blocks: Sequence[CameraBlock], transform: RigidTransform, tau: Optional[float] = None
) -> tuple[float, int, Optional[np.ndarray]]:
    """One pass of ``transform``: MPJPE, positive-depth count, inlier ids if ``tau``."""
    total = 0.0
    count = 0
    id_chunks = []
    rotations, translations = transform.rotation[None], transform.translation[None]
    for block in blocks:
        sq, front, keep = _evaluate_block(block, rotations, translations, tau)
        total += float(np.sqrt(sq[0][front[0]]).sum())
        count += int(np.count_nonzero(front))
        if keep is not None:
            id_chunks.append(block.entry_ids[keep[0]])
    if count == 0:
        raise EmptyActiveSetError("no valid positive-depth correspondence to average")
    return total / count, count, np.concatenate(id_chunks) if id_chunks else None


def compute_mpjpe(
    cset: CorrespondenceSet,
    transform: RigidTransform,
    restrict_to: Optional[np.ndarray] = None,
) -> float:
    """Mean per-joint reprojection error in pixels at frame stride 1.

    Averages the residual norm over every valid (optionally restricted)
    entry whose depth under ``transform`` is strictly positive. Raises
    :class:`EmptyActiveSetError` when no entry contributes.
    """
    return _evaluate(cset.camera_blocks(stride=1, restrict_to=restrict_to), transform)[0]


def calibrate(
    cset: CorrespondenceSet,
    ransac_cfg: RansacConfig = RansacConfig(),
    refine_cfg: RefineConfig = RefineConfig(),
    gt_extrinsic: Optional[RigidTransform] = None,
    warnings: Sequence[str] = (),
) -> CalibrationReport:
    """Estimate the MoCap-to-world transform and report on the run.

    The search scores hypotheses at ``ransac_cfg.coarse_stride``. Then each
    pose (initial, refined, ground truth) is evaluated in one pass over the
    stride-1 blocks; the initial pass also gives the inliers that, when
    ``refine_cfg.inliers_only`` is set, restrict the refinement. If
    refinement worsens the stride-1 mean reprojection error over all valid
    entries, the initial estimate and its positive-depth count are kept and
    the report says so.

    Ground-truth errors and ``mpjpe_gt`` are filled in when
    ``gt_extrinsic`` is given. Timing excludes I/O performed by callers.
    """
    t_start = time.perf_counter()
    hypothesis = run_ransac(cset, ransac_cfg)
    t_ransac = time.perf_counter()

    init = _evaluate(cset.camera_blocks(stride=1), hypothesis.transform, ransac_cfg.tau)
    mpjpe_init, init_depth, inlier_ids = init
    restrict = inlier_ids if refine_cfg.inliers_only else None
    refined, _ = refine_pose(cset, hypothesis.transform, refine_cfg, restrict_to=restrict)
    # Built again, not held: held through refinement they slow it down.
    blocks = cset.camera_blocks(stride=1)
    mpjpe_refined, positive_depth, _ = _evaluate(blocks, refined)

    rejected = bool(mpjpe_refined > mpjpe_init)
    final = refined
    if rejected:
        final, mpjpe_refined, positive_depth = hypothesis.transform, mpjpe_init, init_depth
    t_refine = time.perf_counter()

    mpjpe_gt = None
    rot_err = None
    trans_err = None
    if gt_extrinsic is not None:
        mpjpe_gt = _evaluate(blocks, gt_extrinsic)[0]
        rot_err = rotation_geodesic_deg(final.rotation, gt_extrinsic.rotation)
        trans_err = float(np.linalg.norm(final.translation - gt_extrinsic.translation))

    alpha, beta, gamma = rotation_to_euler(final.rotation)
    counts = CorrespondenceCounts(
        total=cset.n_entries,
        valid=int(np.count_nonzero(cset.valid)),
        positive_depth=positive_depth,
    )
    t_end = time.perf_counter()
    n_frames = cset.dims[2]
    timing = Timing(
        ransac_ms=(t_ransac - t_start) * 1e3,
        refine_ms=(t_refine - t_ransac) * 1e3,
        total_ms=(t_end - t_start) * 1e3,
        ms_per_frame=(t_end - t_start) * 1e3 / n_frames,
    )
    return CalibrationReport(
        transform=final,
        euler=EulerPose(alpha, beta, gamma, final.translation),
        mpjpe_init=mpjpe_init,
        mpjpe_refined=mpjpe_refined,
        mpjpe_gt=mpjpe_gt,
        gt_rotation_err_deg=rot_err,
        gt_translation_err_m=trans_err,
        inlier_ratio=hypothesis.inlier_ratio,
        inlier_count=hypothesis.inlier_count,
        refinement_rejected=rejected,
        correspondence_counts=counts,
        timing=timing,
        config_echo={"ransac": asdict(ransac_cfg), "refine": asdict(refine_cfg)},
        seed=ransac_cfg.seed,
        warnings=tuple(warnings),
    )
