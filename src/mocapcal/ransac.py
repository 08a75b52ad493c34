"""Storage of 3D-2D correspondences and robust pose hypothesis search.

A correspondence ties one MoCap-frame 3D joint position at one frame to
one pixel detection in one camera. :class:`CorrespondenceSet` holds them
as parallel columns, built by its constructor only, and hands them out as
per-camera blocks. The sampler draws minimal samples of three joints seen
by a single camera in a single frame, solves the three-point pose
problem, and scores each hypothesis by counting reprojection inliers over
a frame-strided subset of the data. ``_evaluate_block`` alone decides
what is in front of a camera and what is an inlier, for a stack of poses
at once, through the stacked projection chain. It works on squared
residuals: an entry is an inlier when its squared residual is below the
least double whose square root rounds to at least ``tau``, which is
exactly ``residual < tau``, and NaN or inf fail that test with no
separate finiteness pass. Scoring and the stride-1 evaluation reduce
what it returns and take the square root only of the residuals they sum.

The work is done in bulk. Every valid pixel's bearing is computed once
per run, and each iteration indexes the three it samples; a sample with a
pixel the distortion model cannot invert is degenerate. Samples are drawn
per iteration but solved per chunk: the samples of ``_SAMPLE_ITERATIONS``
consecutive iterations go through one batch P3P call, and their MoCap
poses come out of one stacked product per camera. The solutions of
``_SCORE_ITERATIONS`` consecutive iterations are scored together on the
stacked projection chain (the batching of preemptive RANSAC, Nister
2005), each camera block in segments. After each segment a hypothesis is
dropped once its inliers so far plus the entries still unscored fall
below the best count so far: the bail-out test of Capel ("An effective
bail-out test for RANSAC consensus scoring", BMVC 2005) in its exact
form, without the statistics, so the winner is the one full scoring
would pick. Only the winner becomes a :class:`RigidTransform`.

Each iteration draws its sample from its own RNG substream, seeded from
``(seed, iteration)``, so the result depends neither on how iterations
are chunked nor, the bail-out test being exact, on the segment sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InsufficientConsensusError, NoValidSampleError
from .geometry import CameraModel, RigidTransform, pixel_bearings, project_stacked
from .p3p import recover_mocap_poses, solve_p3p_batch

# Consecutive iterations whose solutions are scored in one pass per block.
# Larger passes pay less per-call overhead but grow the (H, N) temporaries;
# 8 measured fastest on the benchmark's workloads. At 16 the projection
# product grows past OpenBLAS's threading threshold on the larger blocks,
# and CPU time per job rose by about 1.4x.
_SCORE_ITERATIONS = 8

# Entries the first scoring segment of a block covers at least; each later
# one covers at least twice the one before. Shorter segments drop hopeless
# poses sooner but pay more per-call overhead, and a pose that cannot be
# dropped, such as a perfect one on noiseless data, is rescanned in a
# logarithmic number of calls. On the benchmark's workloads 256 and 1024
# came within 5 % of 512 either way, with no consistent winner.
_MIN_SEGMENT = 512

# Consecutive iterations whose minimal samples are solved in one batch.
_SAMPLE_ITERATIONS = 256


class CameraBlock(NamedTuple):
    """All selected entries of one camera, flattened for vectorized math.

    ``homogeneous`` is the C-ordered (4, N) matrix of the MoCap points,
    rows X, Y, Z and 1: the input of
    :func:`mocapcal.geometry.project_stacked`, and the ``Q`` of
    refinement's gradient product. ``points3d`` (N, 3) is the view of its
    first three rows, and ``points2d`` (N, 2) a view of a coordinate-major
    array, so ``points2d.T`` is contiguous.
    """

    cam_index: int
    camera: CameraModel
    entry_ids: np.ndarray
    points3d: np.ndarray
    points2d: np.ndarray
    homogeneous: np.ndarray


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
                q = np.empty((4, ids.size))
                np.take(self.points3d.T, ids, axis=1, out=q[:3])
                q[3] = 1.0
                pts2 = np.take(self.points2d.T, ids, axis=1).T
                blocks.append(CameraBlock(i, cam, ids, q[:3].T, pts2, q))
        return blocks


class InlierCount(NamedTuple):
    """Sorted inlier entry ids plus their mean reprojection residual."""

    ids: np.ndarray
    mean_residual: float


def _squared_threshold(tau: float) -> float:
    """The least double whose correctly rounded square root is at least ``tau``.

    The square root rounds monotonically, so for every non-negative double
    ``sq``, ``sq < _squared_threshold(tau)`` holds exactly when
    ``sqrt(sq) < tau`` does; both fail for NaN and inf.
    """
    t = tau * tau
    while math.sqrt(t) < tau:
        t = math.nextafter(t, math.inf)
    while math.sqrt(below := math.nextafter(t, 0.0)) >= tau:
        t = below
    return t


def _evaluate_block(
    block: CameraBlock,
    rotations: np.ndarray,
    translations: np.ndarray,
    tau: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Squared residuals, positive-depth mask and, given ``tau``, inlier mask.

    Scores H poses, ``rotations`` (H, 3, 3) and ``translations`` (H, 3),
    at once; each result is (H, N). The squared residual is
    ``du**2 + dv**2``, evaluated in place over the projected pixels. An
    inlier lies in front of the camera with a squared residual below
    :func:`_squared_threshold` of ``tau``, so exactly when its residual,
    the correctly rounded square root, is below ``tau``.
    """
    z, _, _, du, dv = project_stacked(block.camera, rotations, translations, block.homogeneous)
    obs = block.points2d.T
    with np.errstate(invalid="ignore", over="ignore"):
        du -= obs[0]
        dv -= obs[1]
        np.square(du, out=du)
        np.square(dv, out=dv)
        du += dv
    front = z > 0.0
    if tau is None:
        return du, front, None
    keep = du < _squared_threshold(tau)
    keep &= front
    return du, front, keep


def _score_blocks(
    blocks: Sequence[CameraBlock],
    rotations: np.ndarray,
    translations: np.ndarray,
    tau: float,
    bound: int = 0,
) -> tuple[list[int], list[Optional[float]]]:
    """Inlier counts of H poses, and the mean inlier residual of those reaching ``bound``.

    Scores the H poses ``rotations`` (H, 3, 3) and ``translations`` (H, 3)
    block by block, and each block in segments in storage order. After
    each segment it drops every pose whose inliers so far plus the entries
    still unscanned fall below ``bound``: that pose cannot reach ``bound``
    (Capel's bail-out test, BMVC 2005, in its exact form, without the
    statistics). A pose that could still tie keeps its place. A segment
    runs up to the first entry at which a pose could be dropped, and the
    k-th segment of a block over at least ``_MIN_SEGMENT * 2**k`` entries,
    so with ``bound`` 0 each block is one segment.

    Returns per pose its inlier count (a dropped pose's count so far) and
    its mean inlier residual, or ``None`` for a pose that was dropped or
    ends below ``bound``. A mean adds each block's kept residuals, the
    square roots of the kept squared residuals, in storage order, then the
    block sums in block order, so it depends neither on the other poses
    scored with it nor on the segments. A segment reads a column slice of
    the block's homogeneous matrix, with no copy. The result holds as long
    as the BLAS product of the stacked projection gives each entry the
    same bits whatever the number of poses and entries it is computed for
    and whether it reads a whole matrix or a column slice, which the tests
    check on the machine they run on. A one-entry product does not: NumPy
    computes it as a matrix-vector product, whose bits may differ, so no
    one-entry segment is split off a longer block.
    """
    counts = np.zeros(rotations.shape[0], dtype=np.int64)
    live = np.arange(rotations.shape[0])
    remaining = sum(block.entry_ids.size for block in blocks)
    scans = []
    for block in blocks:
        n = block.entry_ids.size
        segments = []
        lo = 0
        while lo < n and live.size:
            reach = int(counts[live].min()) + remaining - bound + 1
            hi = min(n, lo + max(reach, _MIN_SEGMENT << len(segments)))
            if hi == n - 1:
                hi = n
            segment = block._replace(
                entry_ids=block.entry_ids[lo:hi],
                points3d=block.points3d[lo:hi],
                points2d=block.points2d[lo:hi],
                homogeneous=block.homogeneous[:, lo:hi],
            )
            sq, _, keep = _evaluate_block(segment, rotations[live], translations[live], tau)
            counts[live] += np.count_nonzero(keep, axis=1)
            remaining -= hi - lo
            segments.append((live, sq, keep))
            live = live[counts[live] + remaining >= bound]
            lo = hi
        scans.append(segments)

    totals = counts.tolist()
    means: list[Optional[float]] = [None] * len(totals)
    if not live.size:
        return totals, means
    sums = [0.0] * live.size
    for segments in scans:
        rows = [np.searchsorted(scanned, live) for scanned, _, _ in segments]
        sq = np.concatenate([s[r] for r, (_, s, _) in zip(rows, segments)], axis=1)
        keep = np.concatenate([k[r] for r, (_, _, k) in zip(rows, segments)], axis=1)
        for i in range(live.size):
            sums[i] += float(np.sqrt(sq[i][keep[i]]).sum())
    for res_sum, h in zip(sums, live.tolist()):
        means[h] = res_sum / totals[h] if totals[h] else 0.0
    return totals, means


def count_inliers(
    cset: CorrespondenceSet,
    transform: RigidTransform,
    tau: float,
    stride: int = 1,
    restrict_to: Optional[np.ndarray] = None,
) -> InlierCount:
    """Inliers of ``transform`` among valid entries at a frame stride.

    The mean adds each block's inlier residuals, in storage order, then the
    block sums in block order, as :func:`run_ransac`'s scoring does; it is
    0.0 when there is no inlier.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    rotations, translations = transform.rotation[None], transform.translation[None]
    id_chunks = []
    res_sum = 0.0
    for block in cset.camera_blocks(stride=stride, restrict_to=restrict_to):
        sq, _, keep = _evaluate_block(block, rotations, translations, tau)
        id_chunks.append(block.entry_ids[keep[0]])
        res_sum += float(np.sqrt(sq[0][keep[0]]).sum())
    ids = np.sort(np.concatenate(id_chunks)) if id_chunks else np.empty(0, dtype=np.int64)
    return InlierCount(ids=ids, mean_residual=res_sum / ids.size if ids.size else 0.0)


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


def _sample_groups(cset: CorrespondenceSet) -> list[np.ndarray]:
    """Entry-id groups per (camera, frame) pair with at least three joints."""
    valid_ids = np.flatnonzero(cset.valid)
    keys = cset.cam_indices[valid_ids] * cset.dims[2] + cset.frame_indices[valid_ids]
    order = np.argsort(keys, kind="stable")
    _, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    return [
        valid_ids[order[start : start + count]]
        for start, count in zip(starts, counts)
        if count >= 3
    ]


# Candidate ordering: more inliers, then lower mean residual. Stored as a
# min-key; candidates arrive in (iteration, solution) order and only a
# strictly smaller key replaces the best, so the earliest wins a tie.
def _candidate_key(count: int, mean: float):
    return (-count, mean)


def _entry_bearings(cset: CorrespondenceSet) -> np.ndarray:
    """Unit bearing of each valid entry's pixel, indexed by entry id; NaN elsewhere."""
    bearings = np.full((cset.n_entries, 3), np.nan)
    for i, cam in enumerate(cset.cameras):
        ids = np.flatnonzero(cset.valid & (cset.cam_indices == i))
        bearings[ids] = pixel_bearings(cam, cset.points2d[ids])
    return bearings


def _sample_chunk(
    cset: CorrespondenceSet,
    groups: list[np.ndarray],
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
        group_ids = groups[int(rng.integers(len(groups)))]
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
    ``_SCORE_ITERATIONS`` consecutive iterations are scored in one pass,
    bounded by the best count so far: a solution is dropped, and gets no
    mean, once it can no longer reach that count, so ties still go to the
    mean. Neither chunk size nor the bound changes the result.
    Ties are broken by mean inlier residual, then by iteration order.
    ``workers`` has no effect: the search runs one sequential path. It is
    accepted only because the benchmark's per-layer probe still passes it
    (ROADMAP item 3); it goes when that probe does.

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

    bearings = _entry_bearings(cset)
    best = None
    for first in range(0, cfg.iterations, _SAMPLE_ITERATIONS):
        last = min(first + _SAMPLE_ITERATIONS, cfg.iterations)
        iters, sols, rots, transs = _sample_chunk(cset, groups, bearings, cfg.seed, first, last)
        edges = np.searchsorted(iters, range(first, last, _SCORE_ITERATIONS)).tolist()
        for lo, hi in zip(edges, edges[1:] + [iters.size]):
            if lo == hi:
                continue
            bound = 0 if best is None else -best[0][0]
            totals, means = _score_blocks(blocks, rots[lo:hi], transs[lo:hi], cfg.tau, bound)
            sources = zip(iters[lo:hi].tolist(), sols[lo:hi].tolist())
            for j, (k, l), total, mean in zip(range(lo, hi), sources, totals, means):
                if mean is None:
                    continue
                key = _candidate_key(total, mean)
                if best is None or key < best[0]:
                    best = (key, (k, l), rots[j], transs[j])

    if best is None:
        raise InsufficientConsensusError(
            "no sample produced a scorable pose hypothesis"
        )
    (neg_count, mean), source, rotation, translation = best
    count = -neg_count
    ratio = count / n_scored
    if ratio < cfg.min_inlier_ratio:
        raise InsufficientConsensusError(
            f"best hypothesis explains {ratio:.3f} of scored entries, "
            f"below the required {cfg.min_inlier_ratio:.3f}"
        )
    return Hypothesis(
        RigidTransform(rotation, translation),
        inlier_count=count, inlier_ratio=ratio, mean_inlier_residual=mean, source=source
    )
