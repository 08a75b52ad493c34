"""Gradient refinement of a pose hypothesis.

Minimizes half the mean squared reprojection residual over an active set
of correspondences. The pose is parameterized in a local chart about the
starting pose ``(R0, t0)``: the points are centred on their centroid
``c``, the rotation is ``R0 @ R_zyx(delta)`` with ZYX Euler angles
``delta`` that start at 0, and the translation is ``t' = t0 + R0 c``,
the one that acts on the centred points. The angles stay near 0, far
from gimbal lock, and turning about the centroid instead of the MoCap
origin decouples rotation from translation (the local-chart idea of
Solà et al., "A micro Lie theory for state estimation in robotics",
arXiv:1812.01537). The forward pass runs the stacked projection chain of
:mod:`mocapcal.geometry` with one pose, the code RANSAC scoring and every
evaluation run, so refinement and evaluation agree on which points lie in
front of a camera. Gradients are analytic: the pixel residual is chained
back through the intrinsics, the distortion Jacobian (built on the
squared radius and radial factor the forward pass computed) and the
perspective division to one camera-frame vector per entry, the rows of
``W``; a zero skew adds no term to that pull-back. One ``(3, 4)``
product ``W @ Q.T``, with ``Q`` the camera block's homogeneous matrix
(rows X, Y, Z and 1), the one the forward pass projects, gives both the
moment the angle gradients contract with and the column sums of the
translation gradient; ``R0.T`` takes the moment into the chart.
The loss and that product use NumPy's pairwise and BLAS's blocked sums,
not a sequential one. Updates use Adam with the standard decay rates and
guard, separate learning rates for the angle and translation blocks, and
a cosine-annealed schedule over ``steps`` that ends at 1 % of each rate.
``steps`` caps the run: it stops earlier once the best iterate has
stopped moving.

Only strictly positive-depth entries contribute; the active-set size
therefore varies with the pose, and the loss is always an average over
the entries actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyActiveSetError
from .geometry import (
    EulerPose,
    RigidTransform,
    _distortion_terms,
    project_stacked,
    rotation_zyx,
    rotation_zyx_derivatives,
)
from .ransac import CameraBlock, CorrespondenceSet

# Plateau stop: refinement ends once the best iterate has stayed within
# _PLATEAU_TOL of the anchor, in every chart parameter (radians about R0,
# metres on the centred translation), for _PLATEAU_STEPS steps.
_PLATEAU_TOL = 1e-5
_PLATEAU_STEPS = 50

# Adam's decay rates and denominator guard, the standard values of Kingma
# and Ba ("Adam", ICLR 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8

# Fraction of each initial learning rate the cosine schedule ends at.
_COSINE_FLOOR = 0.01


@dataclass(frozen=True)
class RefineConfig:
    """Settings for the refinement stage.

    ``steps`` caps the number of Adam steps and sets the length of the
    cosine schedule; a run stops earlier once its best pose stops moving
    (see :func:`refine_pose`). ``lr_rotation`` and ``lr_translation`` are
    the initial learning rates of the angle and translation blocks.
    ``fine_stride`` subsamples frames during optimization; ``inliers_only``
    restricts the active set to the RANSAC inliers when the caller
    provides them.
    """

    steps: int = 2000
    lr_rotation: float = 1e-3
    lr_translation: float = 1e-2
    fine_stride: int = 2
    inliers_only: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        for name in ("lr_rotation", "lr_translation"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.fine_stride < 1:
            raise ValueError("fine_stride must be >= 1")


@dataclass(frozen=True, eq=False)
class LossReport:
    """Loss value, 6-vector gradient, and the active entry count."""

    loss: float
    gradient: np.ndarray
    active_count: int


@dataclass(frozen=True, eq=False)
class AdamState:
    """First and second moment accumulators plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @staticmethod
    def zeros() -> "AdamState":
        return AdamState(m=np.zeros(6), v=np.zeros(6), step=0)


def cosine_lr(step: int, total: int, lr0: float, floor_frac: float = 0.0) -> float:
    """Cosine-annealed learning rate for ``step`` in [0, total)."""
    if total < 1:
        raise ValueError("total must be >= 1")
    if not 0 <= step < total:
        raise ValueError("step must lie in [0, total)")
    if total == 1:
        return lr0
    floor = floor_frac * lr0
    return floor + (lr0 - floor) * 0.5 * (1.0 + math.cos(math.pi * step / (total - 1)))


def adam_step(
    state: AdamState,
    gradient: np.ndarray,
    lr_rotation: float,
    lr_translation: float,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, delta).

    The delta is the signed step to add to the parameter vector. The
    first three components use ``lr_rotation``, the last three
    ``lr_translation``. The decay rates are 0.9 and 0.999 and the
    denominator guard 1e-8.
    """
    grad = np.asarray(gradient, dtype=np.float64)
    step = state.step + 1
    m = _BETA1 * state.m + (1.0 - _BETA1) * grad
    v = _BETA2 * state.v + (1.0 - _BETA2) * grad * grad
    m_hat = m / (1.0 - _BETA1**step)
    v_hat = v / (1.0 - _BETA2**step)
    lrs = np.array([lr_rotation] * 3 + [lr_translation] * 3)
    delta = -lrs * m_hat / (np.sqrt(v_hat) + _EPSILON)
    return AdamState(m=m, v=v, step=step), delta


def _loss_and_gradient_on_blocks(
    blocks: Sequence[CameraBlock], pose: EulerPose, base: Optional[np.ndarray] = None
) -> LossReport:
    """Loss and gradient at rotation ``base @ R_zyx(angles)``.

    Without ``base`` the rotation is ``R_zyx(angles)``, as in
    :func:`loss_and_gradient`.
    """
    rot, *drots = rotation_zyx_derivatives(pose.alpha, pose.beta, pose.gamma)
    if base is not None:
        rot = base @ rot
    trans = pose.translation
    loss_sum = 0.0
    # The sum over cameras of R_c^T S, with S = W Q^T: its first three
    # columns are the moment sum_m w_m p_m^T and its last the sum of w_m,
    # both taken back to the MoCap frame.
    pulled = np.zeros((3, 4))
    active = 0
    for block in blocks:
        cam, q, obs = block.camera, block.homogeneous, block.points2d.T
        z, xn, yn, u, v, r2, radial = (
            None if coord is None else coord[0]
            for coord in project_stacked(cam, rot[None], trans[None], q, terms=True)
        )
        front = z > 0.0
        count = int(np.count_nonzero(front))
        if count == 0:
            continue
        if count < z.size:
            q, obs = q[:, front], obs[:, front]
            z, xn, yn, u, v = z[front], xn[front], yn[front], u[front], v[front]
            if radial is not None:
                r2, radial = r2[front], radial[front]
        du = np.subtract(u, obs[0], out=u)
        dv = np.subtract(v, obs[1], out=v)
        sq = du * du
        sq += dv * dv
        loss_sum += float(sq.sum())
        active += count

        # Pull the residual back through intrinsics (A^T r), distortion
        # (D^T), and perspective division (N^T) to camera-frame vectors,
        # the rows of W.
        pr0 = cam.fx * du
        pr1 = cam.fy * dv
        if cam.skew:
            pr1 += cam.skew * du
        if cam.distortion is not None:
            jxx, jxy, jyy = _distortion_terms(cam.distortion, xn, yn, r2, radial)
            pr0, pr1 = jxx * pr0 + jxy * pr1, jxy * pr0 + jyy * pr1
        w = np.empty((3, count))
        np.divide(pr0, z, out=w[0])
        np.divide(pr1, z, out=w[1])
        np.multiply(xn, w[0], out=w[2])
        w[2] += np.multiply(yn, w[1], out=pr1)
        np.negative(w[2], out=w[2])
        pulled += cam.rotation.T @ (w @ q.T)
    if active == 0:
        return LossReport(loss=0.0, gradient=np.zeros(6), active_count=0)
    # Each angle gradient is sum_c <R_c B dR, moment_c> = <dR, B^T R_c^T moment_c>.
    moment = pulled[:, :3] if base is None else base.T @ pulled[:, :3]
    grad = np.empty(6)
    for axis, drot in enumerate(drots):
        grad[axis] = (drot * moment).sum()
    grad[3:] = pulled[:, 3]
    grad /= active
    return LossReport(loss=loss_sum / (2.0 * active), gradient=grad, active_count=active)


def loss_and_gradient(
    cset: CorrespondenceSet,
    pose: EulerPose,
    stride: int = 1,
    restrict_to: Optional[np.ndarray] = None,
) -> LossReport:
    """Half mean squared residual and its analytic 6-vector gradient.

    The active set is the valid entries at the given frame stride
    (optionally restricted to specific entry ids) whose depth under
    ``pose`` is strictly positive. An empty active set yields a zero
    loss, zero gradient, and ``active_count == 0``.
    """
    blocks = cset.camera_blocks(stride=stride, restrict_to=restrict_to)
    return _loss_and_gradient_on_blocks(blocks, pose)


def refine_pose(
    cset: CorrespondenceSet,
    init: RigidTransform,
    cfg: RefineConfig = RefineConfig(),
    restrict_to: Optional[np.ndarray] = None,
) -> tuple[RigidTransform, np.ndarray]:
    """Polish ``init`` by Adam on the reprojection loss.

    Optimizes the chart parameters of the module docstring, ``delta`` and
    ``t'``, about ``init`` and the centroid of the selected points, and
    maps the result back as ``R = R0 @ R_zyx(delta)``, ``t = t' - R c``.
    Runs at most ``cfg.steps`` updates, evaluating the loss before each
    one. The anchor starts at the initial parameters and moves to the
    lowest-loss iterate whenever that iterate differs from it by more
    than 1e-5 in some parameter (radians, or metres); the run stops once
    the anchor is 50 steps old. Returns the iterate with the lowest
    recorded loss together with the loss trace, one entry per step run,
    starting at the initial pose. When no step lowers the initial loss,
    as on noise-free data whose initial pose is already optimal, ``init``
    itself is returned.

    Raises :class:`EmptyActiveSetError` when no correspondence is active
    at the initial pose.
    """
    blocks = cset.camera_blocks(stride=cfg.fine_stride, restrict_to=restrict_to)
    # camera_blocks returns fresh arrays, and points3d views the rows of
    # homogeneous that projection reads, so centring them here is safe.
    points = [block.points3d for block in blocks]
    centroid = np.concatenate(points).mean(axis=0) if points else np.zeros(3)
    for block_points in points:
        block_points -= centroid
    base = init.rotation
    params = np.concatenate((np.zeros(3), init.translation + base @ centroid))

    state = AdamState.zeros()
    trace = np.empty(cfg.steps)
    best_loss, best_params, best_step = math.inf, params, 0
    anchor, anchor_step = params, 0
    for step in range(cfg.steps):
        report = _loss_and_gradient_on_blocks(blocks, EulerPose.from_vector(params), base)
        if step == 0 and report.active_count == 0:
            raise EmptyActiveSetError(
                "no valid positive-depth correspondence at the initial pose"
            )
        trace[step] = report.loss
        if report.active_count > 0 and report.loss < best_loss:
            best_loss, best_params, best_step = report.loss, params, step
            if np.abs(params - anchor).max() > _PLATEAU_TOL:
                anchor, anchor_step = params, step
        if step - anchor_step >= _PLATEAU_STEPS:
            break
        lr_rot = cosine_lr(step, cfg.steps, cfg.lr_rotation, _COSINE_FLOOR)
        lr_trans = cosine_lr(step, cfg.steps, cfg.lr_translation, _COSINE_FLOOR)
        state, delta = adam_step(state, report.gradient, lr_rot, lr_trans)
        params = params + delta
    trace = trace[: step + 1]
    if best_step == 0:
        return init, trace
    rotation = base @ rotation_zyx(*best_params[:3])
    return RigidTransform(rotation, best_params[3:] - rotation @ centroid), trace
