"""Gradient refinement of a pose hypothesis.

Minimizes half the mean squared reprojection residual over an active set
of correspondences, parameterizing the pose as ZYX Euler angles plus a
translation. The forward pass runs the stacked projection chain of
:mod:`mocapcal.geometry` with one pose, the code RANSAC scoring and every
evaluation run, so refinement and evaluation agree on which points lie in
front of a camera. Gradients are analytic: the pixel residual is chained
back through the intrinsics, the distortion Jacobian and the perspective
division to one camera-frame vector per entry, the rows of ``W``; a zero
skew adds no term to that pull-back. One ``(3, 4)`` product ``W @ Q.T``,
with ``Q`` the camera block's homogeneous matrix (rows X, Y, Z and 1),
the one the forward pass projects, gives both the moment the angle
gradients contract with and the column sums of the translation gradient.
The loss and that product use NumPy's pairwise and BLAS's blocked sums,
not a sequential one. Updates use Adam with the standard decay rates and
guard, separate learning rates for the angle and translation blocks, and
a cosine-annealed schedule over ``steps`` that ends at 1 % of each rate.
``steps`` caps the run: it stops earlier once the best loss has reached
a plateau.

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
    rotation_to_euler,
    rotation_zyx_derivatives,
)
from .ransac import CameraBlock, CorrespondenceSet

# Plateau stop: refinement ends once the best loss has not fallen below
# (1 - _PLATEAU_RTOL) times the last anchor loss for _PLATEAU_STEPS steps.
_PLATEAU_RTOL = 1e-12
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
    cosine schedule. ``lr_rotation`` and ``lr_translation`` are the
    initial learning rates of the angle and translation blocks.
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
        if self.lr_rotation <= 0.0 or self.lr_translation <= 0.0:
            raise ValueError("learning rates must be positive")
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


def _loss_and_gradient_on_blocks(blocks: Sequence[CameraBlock], pose: EulerPose) -> LossReport:
    rot, *drots = rotation_zyx_derivatives(pose.alpha, pose.beta, pose.gamma)
    trans = pose.translation
    loss_sum = 0.0
    # The sum over cameras of R_c^T S, with S = W Q^T: its first three
    # columns are the moment sum_m w_m p_m^T and its last the sum of w_m,
    # both taken back to the MoCap frame.
    pulled = np.zeros((3, 4))
    active = 0
    for block in blocks:
        cam, q, obs = block.camera, block.homogeneous, block.points2d.T
        z, xn, yn, u, v = (
            coord[0] for coord in project_stacked(cam, rot[None], trans[None], q)
        )
        front = z > 0.0
        count = int(np.count_nonzero(front))
        if count == 0:
            continue
        if count < z.size:
            q, obs = q[:, front], obs[:, front]
            z, xn, yn, u, v = z[front], xn[front], yn[front], u[front], v[front]
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
            _, jxx, jxy, jyy = _distortion_terms(cam.distortion, xn, yn)
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
    # Each angle gradient is sum_c <R_c dR, moment_c> = <dR, R_c^T moment_c>.
    grad = np.empty(6)
    for axis, drot in enumerate(drots):
        grad[axis] = (drot * pulled[:, :3]).sum()
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

    Runs at most ``cfg.steps`` updates, evaluating the loss before each
    one. It stops early once the best loss has not fallen below
    ``(1 - 1e-12)`` times the last anchor loss for 50 consecutive steps;
    each such fall moves the anchor to the new best loss. Returns the
    iterate with the lowest recorded loss together with the loss trace,
    one entry per step run, starting at the initial pose. On noise-free
    data the initial pose is already optimal and is returned unchanged.

    Raises :class:`EmptyActiveSetError` when no correspondence is active
    at the initial pose.
    """
    alpha, beta, gamma = rotation_to_euler(init.rotation)
    params = np.concatenate(([alpha, beta, gamma], init.translation))
    blocks = cset.camera_blocks(stride=cfg.fine_stride, restrict_to=restrict_to)

    state = AdamState.zeros()
    trace = np.empty(cfg.steps)
    best_params = params.copy()
    best_loss = math.inf
    anchor_loss, anchor_step = math.inf, 0
    for step in range(cfg.steps):
        report = _loss_and_gradient_on_blocks(blocks, EulerPose.from_vector(params))
        if step == 0 and report.active_count == 0:
            raise EmptyActiveSetError(
                "no valid positive-depth correspondence at the initial pose"
            )
        trace[step] = report.loss
        if report.active_count > 0 and report.loss < best_loss:
            best_loss = report.loss
            best_params = params.copy()
        if best_loss < (1.0 - _PLATEAU_RTOL) * anchor_loss:
            anchor_loss, anchor_step = best_loss, step
        elif step - anchor_step >= _PLATEAU_STEPS:
            break
        lr_rot = cosine_lr(step, cfg.steps, cfg.lr_rotation, _COSINE_FLOOR)
        lr_trans = cosine_lr(step, cfg.steps, cfg.lr_translation, _COSINE_FLOOR)
        state, delta = adam_step(state, report.gradient, lr_rot, lr_trans)
        params = params + delta
    best = EulerPose.from_vector(best_params)
    return best.to_transform(), trace[: step + 1]
