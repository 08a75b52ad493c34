"""Storage of 3D-2D correspondences and robust pose hypothesis search.

A correspondence ties one MoCap-frame 3D joint position at one frame to
one pixel detection in one camera. :class:`CorrespondenceSet` holds them
as parallel columns, built by its constructor only, and hands them out as
per-camera blocks. The sampler draws minimal samples of three joints seen
by a single camera in a single frame, solves the three-point pose
problem, and scores each hypothesis by counting reprojection inliers over
a frame-strided subset of the data. ``_evaluate_block`` alone decides
what is in front of a camera and what is an inlier, for a stack of poses
at once, through the stacked projection chain; scoring and the stride-1
evaluation reduce what it returns.

The work is done in bulk. Every valid pixel's bearing is computed once
per run, and each iteration indexes the three it samples; a sample with a
pixel the distortion model cannot invert is degenerate. Samples are drawn
per iteration but solved per chunk: the samples of ``_SAMPLE_ITERATIONS``
consecutive iterations go through one batch P3P call, and their MoCap
poses come out of one stacked product per camera. The solutions of
``_SCORE_ITERATIONS`` consecutive iterations are scored together, in one
pass of the stacked projection chain per camera block (the batching of
preemptive RANSAC, Nister 2005, without its early termination). Only the
winner becomes a :class:`RigidTransform`.

The search is embarrassingly parallel. Each iteration seeds its own RNG
substream from ``(seed, iteration)``, so results are bit-identical no
matter how many worker threads score hypotheses; the ``RPGD_THREADS``
environment variable (0 = auto) sets the default worker count. Threads
only pay off on large passes: below ``POOL_MIN_ENTRIES`` scored entries
the GIL-bound sampling and P3P of each thread wait on the other's, and
how long they wait depends on what else the machine runs, so the auto
count is then one thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InsufficientConsensusError, NoValidSampleError
from .geometry import CameraModel, RigidTransform, pixel_bearings, project_stacked
from .p3p import recover_mocap_poses, solve_p3p_batch

MAX_WORKERS = 64

# Scored entries per hypothesis pass from which the auto worker count is
# one thread per CPU rather than one thread.
POOL_MIN_ENTRIES = 20_000

# Consecutive iterations whose solutions are scored in one pass per block.
_SCORE_ITERATIONS = 2

# Consecutive iterations whose minimal samples are solved in one batch.
_SAMPLE_ITERATIONS = 256


def worker_count(requested: Optional[int] = None, n_scored: Optional[int] = None) -> int:
    """Resolve a worker count from an argument or ``RPGD_THREADS``.

    ``None`` falls back to the environment variable; 0 (from either
    source) means auto: one thread per CPU, or one thread when
    ``n_scored``, the entries each hypothesis is scored on, is below
    ``POOL_MIN_ENTRIES``. The result is clamped to [1, MAX_WORKERS].
    """
    if requested is None:
        raw = os.environ.get("RPGD_THREADS", "").strip()
        if raw:
            try:
                requested = int(raw)
            except ValueError as exc:
                raise ValueError(f"RPGD_THREADS must be an integer, got {raw!r}") from exc
        else:
            requested = 0
    if requested == 0:
        small = n_scored is not None and n_scored < POOL_MIN_ENTRIES
        requested = 1 if small else os.cpu_count() or 1
    return max(1, min(int(requested), MAX_WORKERS))


class CameraBlock(NamedTuple):
    """All selected entries of one camera, flattened for vectorized math.

    ``points3d`` (N, 3) and ``points2d`` (N, 2) are views of
    coordinate-major arrays, so ``points3d.T`` is the contiguous (3, N)
    input of :func:`mocapcal.geometry.project_stacked`.
    """

    cam_index: int
    camera: CameraModel
    entry_ids: np.ndarray
    points3d: np.ndarray
    points2d: np.ndarray


class CorrespondenceSet:
    """Columnar store of correspondences for N cameras, J joints, T frames.

    Entries live in parallel arrays, which keeps scoring and refinement
    vectorizable for hundreds of thousands of rows.
    """

    def __init__(
        self,
        cameras: Sequence[CameraModel],
        cam_indices: np.ndarray,
        joint_indices: np.ndarray,
        frame_indices: np.ndarray,
        points3d: np.ndarray,
        points2d: np.ndarray,
        valid: np.ndarray,
        dims: tuple[int, int, int],
    ):
        if len(cameras) == 0:
            raise ValueError("a correspondence set needs at least one camera")
        n_cams, n_joints, n_frames = (int(d) for d in dims)
        if n_cams != len(cameras):
            raise ValueError("dims[0] must equal the number of cameras")
        self.cameras: tuple[CameraModel, ...] = tuple(cameras)
        self.dims = (n_cams, n_joints, n_frames)
        self.cam_indices = np.ascontiguousarray(cam_indices, dtype=np.int64)
        self.joint_indices = np.ascontiguousarray(joint_indices, dtype=np.int64)
        self.frame_indices = np.ascontiguousarray(frame_indices, dtype=np.int64)
        self.points3d = np.ascontiguousarray(points3d, dtype=np.float64)
        self.points2d = np.ascontiguousarray(points2d, dtype=np.float64)
        self.valid = np.ascontiguousarray(valid, dtype=bool)
        m = self.cam_indices.shape[0]
        shapes_ok = (
            self.joint_indices.shape == (m,)
            and self.frame_indices.shape == (m,)
            and self.points3d.shape == (m, 3)
            and self.points2d.shape == (m, 2)
            and self.valid.shape == (m,)
        )
        if not shapes_ok:
            raise ValueError("correspondence arrays disagree in length")
        for name, arr, bound in (
            ("cam_indices", self.cam_indices, n_cams),
            ("joint_indices", self.joint_indices, n_joints),
            ("frame_indices", self.frame_indices, n_frames),
        ):
            if m and (arr.min() < 0 or arr.max() >= bound):
                raise ValueError(f"{name} out of range for dims {self.dims}")
        if m:
            bad3 = ~np.all(np.isfinite(self.points3d), axis=1)
            bad2 = ~np.all(np.isfinite(self.points2d), axis=1)
            if np.any(self.valid & (bad3 | bad2)):
                raise ValueError("valid correspondences must have finite coordinates")
        for arr in (
            self.cam_indices,
            self.joint_indices,
            self.frame_indices,
            self.points3d,
            self.points2d,
            self.valid,
        ):
            arr.setflags(write=False)

    @property
    def n_entries(self) -> int:
        return int(self.cam_indices.shape[0])

    def __len__(self) -> int:
        return self.n_entries

    def selection_mask(
        self, stride: int = 1, restrict_to: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Boolean mask of valid entries at the given frame stride.

        ``restrict_to``, when given, is a 1-D integer array of entry ids
        in ``[0, n_entries)`` that further limits the selection; anything
        else, an empty array aside, raises :class:`ValueError` naming the
        first bad id.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        mask = self.valid.copy()
        if stride > 1:
            mask &= self.frame_indices % stride == 0
        if restrict_to is not None:
            ids = np.asarray(restrict_to)
            keep = np.zeros(self.n_entries, dtype=bool)
            if ids.size:
                if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
                    raise ValueError(
                        f"restrict_to id {ids.ravel()[:1].tolist()[0]!r}: ids must be "
                        f"a 1-D integer array, got {ids.dtype} of shape {ids.shape}"
                    )
                if ids.min() < 0 or ids.max() >= self.n_entries:
                    bad = ids[(ids < 0) | (ids >= self.n_entries)][0]
                    raise ValueError(f"restrict_to id {bad} is outside [0, {self.n_entries})")
                keep[ids] = True
            mask &= keep
        return mask

    def camera_blocks(
        self, stride: int = 1, restrict_to: Optional[np.ndarray] = None
    ) -> list[CameraBlock]:
        """Per-camera flattened views of the selected entries.

        Cameras appear in index order and entries keep their storage
        order within each block, so reductions over blocks are
        deterministic.
        """
        mask = self.selection_mask(stride=stride, restrict_to=restrict_to)
        blocks = []
        for i, cam in enumerate(self.cameras):
            ids = np.flatnonzero(mask & (self.cam_indices == i))
            if ids.size:
                pts3 = np.take(self.points3d.T, ids, axis=1).T
                pts2 = np.take(self.points2d.T, ids, axis=1).T
                blocks.append(CameraBlock(i, cam, ids, pts3, pts2))
        return blocks


class InlierCount(NamedTuple):
    """Sorted inlier entry ids plus their mean reprojection residual."""

    ids: np.ndarray
    mean_residual: float


def _evaluate_block(
    block: CameraBlock,
    rotations: np.ndarray,
    translations: np.ndarray,
    tau: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Residual norms, positive-depth mask and, given ``tau``, inlier mask.

    Scores H poses, ``rotations`` (H, 3, 3) and ``translations`` (H, 3),
    at once; each result is (H, N). The norm is ``sqrt(du**2 + dv**2)``,
    evaluated in place over the projected pixels.
    """
    z, _, _, du, dv = project_stacked(block.camera, rotations, translations, block.points3d.T)
    obs = block.points2d.T
    with np.errstate(invalid="ignore", over="ignore"):
        du -= obs[0]
        dv -= obs[1]
        np.square(du, out=du)
        np.square(dv, out=dv)
        du += dv
        norms = np.sqrt(du, out=du)
        front = z > 0.0
        if tau is None:
            return norms, front, None
        return norms, front, front & np.isfinite(norms) & (norms < tau)


def _score_blocks(
    blocks: Sequence[CameraBlock], rotations: np.ndarray, translations: np.ndarray, tau: float
) -> tuple[list[int], list[float], list[np.ndarray]]:
    """Per pose, inlier count and mean inlier residual; per block, the inlier mask.

    Scores the H poses ``rotations`` (H, 3, 3) and ``translations`` (H, 3).
    Each pose's residual sum is added block by block, in block order, so
    its mean does not depend on the other poses scored with it.
    """
    totals = [0] * rotations.shape[0]
    sums = [0.0] * rotations.shape[0]
    keep_per_block: list[np.ndarray] = []
    for block in blocks:
        norms, _, keep = _evaluate_block(block, rotations, translations, tau)
        keep_per_block.append(keep)
        for h, count in enumerate(np.count_nonzero(keep, axis=1).tolist()):
            if count:
                totals[h] += count
                sums[h] += float(norms[h][keep[h]].sum())
    means = [res_sum / total if total else 0.0 for res_sum, total in zip(sums, totals)]
    return totals, means, keep_per_block


def count_inliers(
    cset: CorrespondenceSet,
    transform: RigidTransform,
    tau: float,
    stride: int = 1,
    restrict_to: Optional[np.ndarray] = None,
) -> InlierCount:
    """Inliers of ``transform`` among valid entries at a frame stride."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    blocks = cset.camera_blocks(stride=stride, restrict_to=restrict_to)
    _, means, keep_per_block = _score_blocks(
        blocks, transform.rotation[None], transform.translation[None], tau
    )
    id_chunks = [block.entry_ids[keep[0]] for block, keep in zip(blocks, keep_per_block)]
    ids = np.sort(np.concatenate(id_chunks)) if id_chunks else np.empty(0, dtype=np.int64)
    return InlierCount(ids=ids, mean_residual=means[0])


@dataclass(frozen=True)
class RansacConfig:
    """Settings for the hypothesis search.

    ``tau`` is the inlier radius in pixels, ``coarse_stride`` the frame
    stride used while scoring, and ``min_inlier_ratio`` the fraction of
    scored entries the winning hypothesis must explain.
    """

    tau: float = 10.0
    iterations: int = 2000
    seed: int = 0
    coarse_stride: int = 10
    min_inlier_ratio: float = 0.2

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.coarse_stride < 1:
            raise ValueError("coarse_stride must be >= 1")
        if not 0.0 <= self.min_inlier_ratio <= 1.0:
            raise ValueError("min_inlier_ratio must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """A scored pose hypothesis; ``source`` is (iteration, solution index)."""

    transform: RigidTransform
    inlier_count: int
    inlier_ratio: float  # inlier_count over the number of scored entries
    mean_inlier_residual: float
    source: tuple[int, int]


def _sample_groups(cset: CorrespondenceSet) -> list[tuple[int, np.ndarray]]:
    """Entry-id groups per (camera, frame) pair with at least three joints."""
    valid_ids = np.flatnonzero(cset.valid)
    if valid_ids.size == 0:
        return []
    n_frames = cset.dims[2]
    keys = cset.cam_indices[valid_ids] * n_frames + cset.frame_indices[valid_ids]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq, starts, counts = np.unique(sorted_keys, return_index=True, return_counts=True)
    groups = []
    for key, start, count in zip(uniq, starts, counts):
        if count >= 3:
            groups.append((int(key), valid_ids[order[start : start + count]]))
    return groups


# Candidate ordering: more inliers, then lower mean residual, then the
# earliest (iteration, solution) pair. Stored as a min-key.
def _candidate_key(count: int, mean: float, k: int, l: int):
    return (-count, mean, k, l)


def _entry_bearings(cset: CorrespondenceSet) -> np.ndarray:
    """Unit bearing of each valid entry's pixel, indexed by entry id; NaN elsewhere."""
    bearings = np.full((cset.n_entries, 3), np.nan)
    for i, cam in enumerate(cset.cameras):
        ids = np.flatnonzero(cset.valid & (cset.cam_indices == i))
        bearings[ids] = pixel_bearings(cam, cset.points2d[ids])
    return bearings


def _sample_chunk(
    cset: CorrespondenceSet,
    groups: list[tuple[int, np.ndarray]],
    bearings: np.ndarray,
    seed: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MoCap poses solved from the minimal samples of iterations ``[start, stop)``.

    Each iteration draws its sample from its own RNG substream; then all of
    them are solved in one :func:`mocapcal.p3p.solve_p3p_batch` call. A
    sample is degenerate, and yields nothing, when P3P rejects it or when
    one of its pixels has no bearing (NaN: the distortion model cannot be
    inverted there). Returns each solution's iteration and solution index
    and the stacked rotations (S, 3, 3) and translations (S, 3).
    """
    ids = np.empty((stop - start, 3), dtype=np.int64)
    for row, k in enumerate(range(start, stop)):
        rng = np.random.default_rng((seed, k))
        _, group_ids = groups[int(rng.integers(len(groups)))]
        ids[row] = group_ids[rng.choice(group_ids.size, size=3, replace=False)]
    batch = solve_p3p_batch(cset.points3d[ids], bearings[ids])
    counts = batch.counts
    iterations = np.repeat(np.arange(start, stop), counts)
    solution = np.arange(iterations.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cams = np.repeat(cset.cam_indices[ids[:, 0]], counts)
    rotations = np.empty_like(batch.rotations)
    translations = np.empty_like(batch.translations)
    for i, camera in enumerate(cset.cameras):
        sel = cams == i
        if sel.any():
            rotations[sel], translations[sel] = recover_mocap_poses(
                batch.rotations[sel], batch.translations[sel], camera
            )
    return iterations, solution, rotations, translations


def run_ransac(
    cset: CorrespondenceSet,
    cfg: RansacConfig = RansacConfig(),
    workers: Optional[int] = None,
) -> Hypothesis:
    """Search for the pose hypothesis with the largest consensus.

    Every iteration draws a (camera, frame) pair uniformly among those
    with at least three valid joints, then three distinct joints within
    it, from its own RNG substream, and indexes their bearings, computed
    once per run. The samples of ``_SAMPLE_ITERATIONS`` consecutive
    iterations are solved in one batch; degenerate samples and rootless
    quartics consume their iteration. The solutions of
    ``_SCORE_ITERATIONS`` consecutive iterations are scored in one pass.
    Neither chunk size changes the result.
    Ties are broken by mean inlier residual, then by iteration order, so
    the result is independent of thread count. ``workers`` resolves
    through :func:`worker_count` with the number of scored entries.

    Raises :class:`NoValidSampleError` when nothing can be sampled and
    :class:`InsufficientConsensusError` when the best hypothesis explains
    less than ``min_inlier_ratio`` of the scored entries.
    """
    groups = _sample_groups(cset)
    if not groups:
        raise NoValidSampleError(
            "no (camera, frame) pair has three valid correspondences"
        )
    blocks = cset.camera_blocks(stride=cfg.coarse_stride)
    n_scored = int(sum(block.entry_ids.size for block in blocks))
    if n_scored == 0:
        raise InsufficientConsensusError(
            f"no valid entry survives coarse stride {cfg.coarse_stride}"
        )

    n_workers = worker_count(workers, n_scored)
    bearings = _entry_bearings(cset)
    best = None

    def reduce_chunk(start: int, stop: int):
        local = None
        for first in range(start, stop, _SAMPLE_ITERATIONS):
            last = min(first + _SAMPLE_ITERATIONS, stop)
            iters, sols, rots, transs = _sample_chunk(cset, groups, bearings, cfg.seed, first, last)
            edges = np.searchsorted(iters, range(first, last, _SCORE_ITERATIONS)).tolist()
            for lo, hi in zip(edges, edges[1:] + [iters.size]):
                if lo == hi:
                    continue
                totals, means, _ = _score_blocks(blocks, rots[lo:hi], transs[lo:hi], cfg.tau)
                sources = zip(iters[lo:hi].tolist(), sols[lo:hi].tolist())
                for j, (k, l), total, mean in zip(range(lo, hi), sources, totals, means):
                    key = _candidate_key(total, mean, k, l)
                    if local is None or key < local[0]:
                        local = (key, rots[j], transs[j])
        return local

    if n_workers == 1:
        best = reduce_chunk(0, cfg.iterations)
    else:
        chunk = max(1, -(-cfg.iterations // (n_workers * 4)))
        bounds = [
            (s, min(s + chunk, cfg.iterations)) for s in range(0, cfg.iterations, chunk)
        ]
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for cand in pool.map(lambda b: reduce_chunk(*b), bounds):
                if cand is not None and (best is None or cand[0] < best[0]):
                    best = cand

    if best is None:
        raise InsufficientConsensusError(
            "no sample produced a scorable pose hypothesis"
        )
    (neg_count, mean, k, l), rotation, translation = best
    count = -neg_count
    ratio = count / n_scored
    if ratio < cfg.min_inlier_ratio:
        raise InsufficientConsensusError(
            f"best hypothesis explains {ratio:.3f} of scored entries, "
            f"below the required {cfg.min_inlier_ratio:.3f}"
        )
    return Hypothesis(
        RigidTransform(rotation, translation),
        inlier_count=count, inlier_ratio=ratio, mean_inlier_residual=mean, source=(k, l)
    )
