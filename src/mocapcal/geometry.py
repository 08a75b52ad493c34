"""Camera models, rigid transforms, rotations, and the projection chain.

Conventions used throughout the package:

* World and MoCap coordinates are metric (meters); image coordinates are
  pixels; angles are radians unless a name says otherwise.
* Rotation matrices act on column vectors. A camera maps world points to
  its own frame as ``X_cam = R_c @ X_world + t_c`` (x right, y down,
  z along the optical axis).
* Euler angles follow the intrinsic Z(gamma) Y(beta) X(alpha) order:
  ``R = Rz(gamma) @ Ry(beta) @ Rx(alpha)``.
* Lens distortion is the Brown-Conrady model ``(k1, k2, p1, p2, k3)``
  applied to normalized image coordinates.

The projection chain lives only here, in one stacked, coordinate-major
form: for H poses, camera and pose are composed into ``[R_c R | R_c t +
t_c]`` and applied to the points, stored as one ``(4, N)`` matrix with rows
X, Y, Z and 1, in a single ``(3H, 4) @ (4, N)`` product. Depth, the
normalized and the pixel coordinates then come out as ``(H, N)`` arrays.
Skew and distortion terms whose coefficient is 0 are not evaluated: the
±0 they would add leaves every finite non-zero value unchanged.
RANSAC scoring, every evaluation (via :func:`project_points`, its H = 1
case) and the refinement run this chain, and it is the only way a point is
projected. It never raises for a point on the principal plane: that
point's pixel comes out non-finite, and callers gate on depth. Its inverse
for pixels, :func:`pixel_bearings`, gives each pixel's unit bearing on its
own, so a bearing computed in bulk equals the one computed for that pixel
alone; a pixel where the distortion model cannot be inverted gets a NaN
bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Orthonormality tolerance for rotations accepted by constructors.
ROTATION_TOL = 1e-9

# Largest forward residual, in normalized coordinates, of an undistorted
# point that counts as converged.
UNDISTORT_RESIDUAL_TOL = 1e-9

# Newton steps undistortion takes at most per point, and the step, in
# normalized coordinates, below which a point stops.
UNDISTORT_ITERATIONS = 10
UNDISTORT_STEP_TOL = 1e-10


def _as_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Read-only float64 copy of ``value``, checked for shape and finiteness."""
    out = np.array(value, dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    out.flags.writeable = False
    return out


def _check_rotation(matrix: np.ndarray, name: str, tol: float = ROTATION_TOL) -> None:
    """Reject a 3x3 matrix unless ``R R^T = I`` within ``tol`` and ``det R = +1``.

    Works on Python floats: the orthonormality error is the largest of the
    six distinct entries of ``R R^T - I`` and the determinant is a cofactor
    expansion, which any NaN entry turns to NaN, so NaN is rejected.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(matrix, dtype=np.float64).tolist()
    err = max(
        abs(a * a + b * b + c * c - 1.0),
        abs(d * d + e * e + f * f - 1.0),
        abs(g * g + h * h + i * i - 1.0),
        abs(a * d + b * e + c * f),
        abs(a * g + b * h + c * i),
        abs(d * g + e * h + f * i),
    )
    if not err <= tol:
        raise ValueError(f"{name} is not orthonormal (max deviation {err:.3e})")
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) <= 1e-6:
        raise ValueError(f"{name} must have determinant +1, got {det:.6f}")


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation plus translation, mapping points as ``R @ p + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_array(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _as_array(self.translation, (3,), "translation"))
        _check_rotation(self.rotation, "rotation")

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point ``(3,)`` or a batch ``(..., 3)``."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


@dataclass(frozen=True)
class DistortionCoeffs:
    """Brown-Conrady coefficients: radial k1, k2, k3 and tangential p1, p2."""

    k1: float = 0.0
    k2: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    k3: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "p1", "p2", "k3"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"distortion coefficient {name} must be finite")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.k1, self.k2, self.p1, self.p2, self.k3)


@dataclass(frozen=True, eq=False)
class CameraModel:
    """A calibrated pinhole camera with optional lens distortion.

    ``intrinsics`` is an upper-triangular 3x3 matrix (fx, fy > 0, optional
    skew); ``rotation``/``translation`` map world points into the camera
    frame. ``image_size`` is (width, height) in pixels when known.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    distortion: Optional[DistortionCoeffs] = None
    image_size: Optional[tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "intrinsics", _as_array(self.intrinsics, (3, 3), "intrinsics"))
        object.__setattr__(self, "rotation", _as_array(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _as_array(self.translation, (3,), "translation"))
        _check_rotation(self.rotation, "camera rotation")
        k = self.intrinsics
        if k[1, 0] != 0.0 or k[2, 0] != 0.0 or k[2, 1] != 0.0 or k[2, 2] != 1.0:
            raise ValueError("intrinsics must be upper triangular with K[2,2] == 1")
        if k[0, 0] <= 0.0 or k[1, 1] <= 0.0:
            raise ValueError("focal lengths must be positive")
        if self.image_size is not None:
            w, h = self.image_size
            if int(w) <= 0 or int(h) <= 0:
                raise ValueError("image_size must be positive")
            object.__setattr__(self, "image_size", (int(w), int(h)))

    @property
    def fx(self) -> float:
        return float(self.intrinsics[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsics[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsics[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsics[1, 2])

    @property
    def skew(self) -> float:
        return float(self.intrinsics[0, 1])


@dataclass(frozen=True, eq=False)
class EulerPose:
    """A pose parameterized as ZYX Euler angles plus a translation."""

    alpha: float
    beta: float
    gamma: float
    translation: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "translation", _as_array(self.translation, (3,), "translation"))

    def as_vector(self) -> np.ndarray:
        """Pack as ``[alpha, beta, gamma, tx, ty, tz]``."""
        return np.concatenate(([self.alpha, self.beta, self.gamma], self.translation))

    @staticmethod
    def from_vector(vec: np.ndarray) -> "EulerPose":
        vec = np.asarray(vec, dtype=np.float64)
        return EulerPose(float(vec[0]), float(vec[1]), float(vec[2]), vec[3:6])

    def to_transform(self) -> RigidTransform:
        return RigidTransform(rotation_zyx(self.alpha, self.beta, self.gamma), self.translation)


def rotation_zyx(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Build ``Rz(gamma) @ Ry(beta) @ Rx(alpha)`` in closed form."""
    return rotation_zyx_derivatives(alpha, beta, gamma)[0].copy()


def rotation_zyx_derivatives(
    alpha: float, beta: float, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return ``R`` and its partial derivatives w.r.t. each angle.

    All four are closed forms in the angles' sines and cosines, and
    :func:`rotation_zyx` returns this ``R``.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    r00, r01, r02 = cg * cb, cg * sb * sa - sg * ca, cg * sb * ca + sg * sa
    r10, r11, r12 = sg * cb, sg * sb * sa + cg * ca, sg * sb * ca - cg * sa
    r20, r21, r22 = -sb, cb * sa, cb * ca
    # One flat list: NumPy builds it several times faster than nested ones.
    # dR/dalpha = R [e_x]x has columns 0, R[:, 2], -R[:, 1], and
    # dR/dgamma = [e_z]x R has rows -R[1], R[0], 0.
    entries = [
        r00, r01, r02, r10, r11, r12, r20, r21, r22,
        0.0, r02, -r01, 0.0, r12, -r11, 0.0, r22, -r21,
        -cg * sb, cg * cb * sa, cg * cb * ca,
        -sg * sb, sg * cb * sa, sg * cb * ca,
        -cb, -sb * sa, -sb * ca,
        -r10, -r11, -r12, r00, r01, r02, 0.0, 0.0, 0.0,
    ]
    stacked = np.array(entries).reshape(4, 3, 3)
    return stacked[0], stacked[1], stacked[2], stacked[3]


def rotation_to_euler(rotation: np.ndarray) -> tuple[float, float, float]:
    """Recover ZYX Euler angles ``(alpha, beta, gamma)`` from a rotation.

    Away from gimbal lock the angles are the unique triple with
    ``beta`` in the open interval (-pi/2, pi/2). At gimbal lock
    (``|cos beta|`` below 1e-9) only ``gamma - alpha`` (for beta = +pi/2)
    or ``gamma + alpha`` (for beta = -pi/2) is observable; the convention
    here pins ``alpha = 0`` and folds everything into ``gamma``.
    """
    rot = np.asarray(rotation, dtype=np.float64)
    _check_rotation(rot, "rotation", tol=1e-6)
    cos_beta = math.hypot(rot[2, 1], rot[2, 2])
    beta = math.asin(max(-1.0, min(1.0, -rot[2, 0])))
    if cos_beta < 1e-9:
        alpha = 0.0
        gamma = math.atan2(-rot[0, 1], rot[1, 1])
    else:
        alpha = math.atan2(rot[2, 1], rot[2, 2])
        gamma = math.atan2(rot[1, 0], rot[0, 0])
    return alpha, beta, gamma


def _distort(coeffs: DistortionCoeffs, x: np.ndarray, y: np.ndarray):
    """Brown-Conrady distortion of normalized coordinates given as separate arrays.

    Evaluates ``r2 = x x + y y``, ``radial = 1 + r2 (k1 + r2 (k2 + r2 k3))``,
    ``xd = x radial + 2 p1 x y + p2 (r2 + 2 x x)`` and
    ``yd = y radial + p1 (r2 + 2 y y) + 2 p2 x y``, in place on three
    temporaries: on stacked (H, N) inputs fresh arrays per step would
    cost more in allocation than in arithmetic. ``r2 k3`` is skipped when
    ``k3`` is 0, and the four tangential terms when ``p1`` and ``p2`` both
    are; every term that is evaluated is evaluated operation for operation,
    left to right, so the result has the bits of the five-term form
    wherever that is finite and non-zero.
    """
    k1, k2, p1, p2, k3 = coeffs.as_tuple()
    r2 = x * x
    tmp = y * y
    r2 += tmp
    if k3:
        radial = r2 * k3
        radial += k2
        radial *= r2
    else:
        radial = r2 * k2
    radial += k1
    radial *= r2
    radial += 1.0
    xd = x * radial
    yd = np.multiply(y, radial, out=radial)
    if p1 or p2:
        np.multiply(2.0 * p1, x, out=tmp)
        tmp *= y
        xd += tmp
        np.multiply(2.0, x, out=tmp)
        tmp *= x
        tmp += r2
        tmp *= p2
        xd += tmp
        np.multiply(2.0, y, out=tmp)
        tmp *= y
        tmp += r2
        tmp *= p1
        yd += tmp
        np.multiply(2.0 * p2, x, out=tmp)
        tmp *= y
        yd += tmp
    return xd, yd


def distort_normalized(coeffs: DistortionCoeffs, xy: np.ndarray) -> np.ndarray:
    """Apply Brown-Conrady distortion to normalized points ``(..., 2)``."""
    xy = np.asarray(xy, dtype=np.float64)
    flat = xy.reshape(-1, 2)
    return np.stack(_distort(coeffs, flat[:, 0], flat[:, 1]), axis=-1).reshape(xy.shape)


def undistort_normalized(coeffs: DistortionCoeffs, xy: np.ndarray) -> np.ndarray:
    """Invert :func:`distort_normalized` by Newton's method, point by point.

    Starts from the distorted point and takes Newton steps with the
    distortion Jacobian, solving each 2x2 system in closed form. Each point
    stops on its own once its step falls below ``UNDISTORT_STEP_TOL`` in
    both coordinates, or after ``UNDISTORT_ITERATIONS`` steps, so its
    result never depends on the other points in ``xy``. A point whose step
    comes out non-finite (a singular Jacobian) keeps its last finite
    iterate. A point whose result, distorted again, misses its input by
    more than ``UNDISTORT_RESIDUAL_TOL`` in either coordinate did not
    converge (its pixel lies where the model cannot be inverted) and comes
    back as NaN. So does a root on a folded branch of the model, where the
    radial factor ``1 + k1 r^2 + k2 r^4 + k3 r^6`` or the Jacobian
    determinant is not positive: barrel distortion maps such a point across
    the optical axis from its pixel, and its pixel lies past the peak
    radius, where no unfolded root exists.
    """
    distorted = np.asarray(xy, dtype=np.float64)
    target = distorted.reshape(-1, 2)
    current = target.copy()
    active = np.arange(current.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(UNDISTORT_ITERATIONS):
            if active.size == 0:
                break
            x, y = current[active, 0], current[active, 1]
            xd, yd = _distort(coeffs, x, y)
            rx = xd - target[active, 0]
            ry = yd - target[active, 1]
            _, jxx, jxy, jyy = _distortion_terms(coeffs, x, y)
            det = jxx * jyy - jxy * jxy
            dx = (jyy * rx - jxy * ry) / det
            dy = (jxx * ry - jxy * rx) / det
            nx, ny = x - dx, y - dy
            finite = np.isfinite(nx) & np.isfinite(ny)
            current[active[finite], 0] = nx[finite]
            current[active[finite], 1] = ny[finite]
            settled = np.maximum(np.abs(dx), np.abs(dy)) < UNDISTORT_STEP_TOL
            active = active[finite & ~settled]
        x, y = current[:, 0], current[:, 1]
        xd, yd = _distort(coeffs, x, y)
        miss = np.maximum(np.abs(xd - target[:, 0]), np.abs(yd - target[:, 1]))
        radial, jxx, jxy, jyy = _distortion_terms(coeffs, x, y)
        unfolded = (radial > 0.0) & (jxx * jyy - jxy * jxy > 0.0)
        current[~((miss <= UNDISTORT_RESIDUAL_TOL) & unfolded)] = np.nan
    return current.reshape(distorted.shape)


def _distortion_terms(coeffs: DistortionCoeffs, x: np.ndarray, y: np.ndarray):
    """Radial factor and the distinct Jacobian entries ``jxx``, ``jxy``, ``jyy``.

    The Jacobian of the distortion map at ``(x, y)`` is symmetric, so these
    three terms are all of it. As in :func:`_distort`, the ``k3`` terms are
    skipped when ``k3`` is 0 and the tangential ones when ``p1`` and ``p2``
    both are, and the rest keep the five-term form's order.
    """
    k1, k2, p1, p2, k3 = coeffs.as_tuple()
    r2 = x * x + y * y
    if k3:
        poly, dpoly = k2 + r2 * k3, 2.0 * k2 + 3.0 * k3 * r2
    else:
        poly, dpoly = k2, 2.0 * k2
    radial = 1.0 + r2 * (k1 + r2 * poly)
    dradial = k1 + r2 * dpoly
    jxx = radial + 2.0 * x * x * dradial
    jxy = 2.0 * x * y * dradial
    jyy = radial + 2.0 * y * y * dradial
    if p1 or p2:
        jxx = jxx + 2.0 * p1 * y + 6.0 * p2 * x
        jxy = jxy + 2.0 * p1 * x + 2.0 * p2 * y
        jyy = jyy + 6.0 * p1 * y + 2.0 * p2 * x
    return radial, jxx, jxy, jyy


def pixel_bearings(camera: CameraModel, pixels: np.ndarray) -> np.ndarray:
    """Unit camera-frame bearings ``(N, 3)`` of pixels ``(N, 2)``.

    Maps each pixel back through the intrinsics (honoring skew), then
    through the inverse of the distortion model, and normalizes the ray
    ``(x, y, 1)``. Every step is per pixel, so a bearing does not depend on
    the other pixels in ``pixels``. A pixel :func:`undistort_normalized`
    cannot invert gets a NaN bearing.
    """
    pix = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    yn = (pix[:, 1] - camera.cy) / camera.fy
    xn = (pix[:, 0] - camera.cx - camera.skew * yn) / camera.fx
    norm = np.stack([xn, yn], axis=-1)
    if camera.distortion is not None:
        norm = undistort_normalized(camera.distortion, norm)
    rays = np.concatenate([norm, np.ones((norm.shape[0], 1))], axis=1)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return rays


def project_stacked(
    camera: CameraModel, rotations: np.ndarray, translations: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project homogeneous MoCap points ``(4, N)`` under H poses through ``camera``.

    ``points`` is a C-ordered matrix with rows X, Y, Z and 1, or a column
    slice of one, which serves as it is; BLAS reads a transposed layout in
    another order, so its bits would differ. ``rotations`` is
    ``(H, 3, 3)`` and ``translations`` ``(H, 3)``. Returns depth ``z``,
    normalized ``x``, ``y`` and pixel ``u``, ``v``, each ``(H, N)``.

    Each pose is composed with the camera into ``[R_c R | R_c t + t_c]``,
    the rows stacked coordinate-major (every pose's X row, then the Y
    rows, then the Z rows, so each coordinate comes out as one contiguous
    ``(H, N)`` array), and one ``(3H, 4) @ (4, N)`` product takes the
    points into every camera frame. The row of ones adds the translation
    as the last term of each sum, so for N >= 2 the result has the bits of
    ``R_c R P`` plus ``R_c t + t_c``; at N = 1 NumPy computes a
    matrix-vector product, whose bits may differ. Then ``x = X / z``,
    ``y = Y / z`` (stored over ``X`` and ``Y``), distortion,
    ``u = fx xd + skew yd + cx`` (the skew term skipped when skew is 0) and
    ``v = fy yd + cy``. Points on the principal plane get non-finite
    coordinates; callers gate on ``z``.
    """
    n_poses = rotations.shape[0]
    pose = np.empty((3, n_poses, 4))
    pose[:, :, :3] = (camera.rotation @ rotations).transpose(1, 0, 2)
    pose[:, :, 3] = ((camera.rotation @ translations[:, :, None])[:, :, 0] + camera.translation).T
    cam = (pose.reshape(3 * n_poses, 4) @ points).reshape(3, n_poses, -1)
    z = cam[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.divide(cam[0], z, out=cam[0])
        y = np.divide(cam[1], z, out=cam[1])
        xd, yd = (x, y) if camera.distortion is None else _distort(camera.distortion, x, y)
        u = camera.fx * xd
        if camera.skew:
            u += camera.skew * yd
        u += camera.cx
        v = camera.fy * yd
        v += camera.cy
    return z, x, y, u, v


def project_points(
    camera: CameraModel, transform: RigidTransform, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project MoCap-frame points through ``transform`` and ``camera``.

    Vectorized and exception-free: returns ``(pixels (..., 2), depths)``.
    A point on the camera's principal plane (depth 0) gets a non-finite
    pixel and a point behind the camera a finite one, so callers gate on
    depth. This is :func:`project_stacked` with one pose, on the points'
    ``(4, N)`` homogeneous matrix.
    """
    pts = np.asarray(points, dtype=np.float64)
    lead = pts.shape[:-1]
    flat = pts.reshape(-1, 3)
    q = np.empty((4, flat.shape[0]))
    q[:3] = flat.T
    q[3] = 1.0
    z, _, _, u, v = project_stacked(
        camera, transform.rotation[None], transform.translation[None], q
    )
    return np.stack([u[0], v[0]], axis=-1).reshape(lead + (2,)), z[0].reshape(lead)


def rotation_geodesic_deg(rot_a: np.ndarray, rot_b: np.ndarray) -> float:
    """Geodesic distance between two rotations, in degrees.

    Up to 90 degrees the angle comes from the chordal distance,
    ``2 asin(||R_a - R_b||_F / sqrt(8))``, which resolves angles down to
    rounding of the matrix entries; ``acos`` of the trace would round every
    angle below about 1e-6 degrees to 0 or 8.5e-7. Wider angles use the
    trace form, which is well conditioned there.
    """
    rot_a = np.asarray(rot_a, dtype=np.float64)
    rot_b = np.asarray(rot_b, dtype=np.float64)
    half_chord = float(np.linalg.norm(rot_a - rot_b)) / math.sqrt(8.0)
    if half_chord <= math.sqrt(0.5):
        return math.degrees(2.0 * math.asin(half_chord))
    cos_angle = (np.trace(rot_a.T @ rot_b) - 1.0) / 2.0
    return math.degrees(math.acos(max(-1.0, min(1.0, cos_angle))))


def nearest_rotation(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal projection of ``matrix`` (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=np.float64))
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        rot = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return rot
