"""Gradient refinement of a pose hypothesis.

Minimizes half the mean squared reprojection residual over an active set
of correspondences, parameterizing the pose as ZYX Euler angles plus a
translation. The forward pass runs the stacked projection chain of
:mod:`mocapcal.geometry` with one pose, the code RANSAC scoring and every
evaluation run, so refinement and evaluation agree on which points lie in
front of a camera. Gradients are analytic: the pixel residual is chained
back through the intrinsics, the distortion Jacobian, the perspective
division, and the camera and pose rotations. Updates use Adam with
separate learning rates for the angle and translation blocks and a
cosine-annealed schedule over ``steps``, which caps the run: it stops
earlier once the best loss has reached a plateau.

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
    distortion_jacobian,
    project_stacked,
    rotation_to_euler,
    rotation_zyx_derivatives,
)
from .ransac import CameraBlock, CorrespondenceSet

# Plateau stop: refinement ends once the best loss has not fallen below
# (1 - _PLATEAU_RTOL) times the last anchor loss for _PLATEAU_STEPS steps.
_PLATEAU_RTOL = 1e-12
_PLATEAU_STEPS = 50


@dataclass(frozen=True)
class RefineConfig:
    """Settings for the refinement stage.

    ``steps`` caps the number of Adam steps and sets the length of the
    cosine schedule. ``fine_stride`` subsamples frames during optimization;
    ``inliers_only`` restricts the active set to the RANSAC inliers when
    the caller provides them. ``cosine_floor`` is the fraction of the
    initial learning rate kept at the end of the schedule.
    """

    steps: int = 2000
    lr_rotation: float = 1e-3
    lr_translation: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    fine_stride: int = 2
    inliers_only: bool = True
    cosine_floor: float = 0.01

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.lr_rotation <= 0.0 or self.lr_translation <= 0.0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("betas must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.fine_stride < 1:
            raise ValueError("fine_stride must be >= 1")
        if not 0.0 <= self.cosine_floor <= 1.0:
            raise ValueError("cosine_floor must lie in [0, 1]")


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
    def zeros(size: int = 6) -> "AdamState":
        return AdamState(m=np.zeros(size), v=np.zeros(size), step=0)


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
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, delta).

    The delta is the signed step to add to the parameter vector. The
    first three components use ``lr_rotation``, the last three
    ``lr_translation``.
    """
    grad = np.asarray(gradient, dtype=np.float64)
    step = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    lrs = np.array([lr_rotation] * 3 + [lr_translation] * 3)
    delta = -lrs * m_hat / (np.sqrt(v_hat) + epsilon)
    return AdamState(m=m, v=v, step=step), delta


def _loss_and_gradient_on_blocks(
    blocks: Sequence[CameraBlock], pose: EulerPose
) -> LossReport:
    rot, drot_a, drot_b, drot_g = rotation_zyx_derivatives(pose.alpha, pose.beta, pose.gamma)
    trans = pose.translation
    loss_sum = 0.0
    grad = np.zeros(6)
    active = 0
    for block in blocks:
        cam = block.camera
        z, xn, yn, u, v = (
            coord[0] for coord in project_stacked(cam, rot[None], trans[None], block.points3d.T)
        )
        front = z > 0.0
        if not np.any(front):
            continue
        if front.all():
            pts3 = block.points3d
            obs = block.points2d
        else:
            pts3 = block.points3d[front]
            obs = block.points2d[front]
            z, xn, yn, u, v = z[front], xn[front], yn[front], u[front], v[front]
        jac = (
            None
            if cam.distortion is None
            else distortion_jacobian(cam.distortion, np.stack([xn, yn], axis=-1))
        )
        # A C-ordered (N, 2) residual, whatever the layout of obs, so the
        # loss sum keeps its summation order.
        res = np.stack([u - obs[:, 0], v - obs[:, 1]], axis=-1)
        loss_sum += float((res * res).sum())
        active += int(z.size)

        # Pull the residual back through intrinsics (A^T r), distortion
        # (D^T), and perspective division (N^T) to camera-frame vectors.
        pr0 = cam.fx * res[:, 0]
        pr1 = cam.skew * res[:, 0] + cam.fy * res[:, 1]
        if jac is not None:
            pr0, pr1 = (
                jac[:, 0, 0] * pr0 + jac[:, 1, 0] * pr1,
                jac[:, 0, 1] * pr0 + jac[:, 1, 1] * pr1,
            )
        cr = np.stack([pr0 / z, pr1 / z, -(xn * pr0 + yn * pr1) / z], axis=-1)
        grad[3:] += cam.rotation.T @ cr.sum(axis=0)
        # Each angle gradient is <R_c @ dR, sum_m cr_m p_m^T>; the moment
        # matrix makes that three 3x3 contractions instead of big matmuls.
        moment = cr.T @ pts3
        for axis, drot in enumerate((drot_a, drot_b, drot_g)):
            grad[axis] += float(((cam.rotation @ drot) * moment).sum())
    if active == 0:
        return LossReport(loss=0.0, gradient=np.zeros(6), active_count=0)
    return LossReport(loss=loss_sum / (2.0 * active), gradient=grad / active, active_count=active)


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
        lr_rot = cosine_lr(step, cfg.steps, cfg.lr_rotation, cfg.cosine_floor)
        lr_trans = cosine_lr(step, cfg.steps, cfg.lr_translation, cfg.cosine_floor)
        state, delta = adam_step(
            state,
            report.gradient,
            lr_rot,
            lr_trans,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            epsilon=cfg.epsilon,
        )
        params = params + delta
    best = EulerPose.from_vector(best_params)
    return best.to_transform(), trace[: step + 1]
