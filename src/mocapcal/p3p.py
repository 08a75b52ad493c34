"""Minimal three-point pose solver and MoCap pose recovery.

Solves the classical perspective-three-point problem: given three known
3D points and the unit bearing vectors under which one camera sees them,
find the camera-from-points rigid transform. The solver reduces the three
law-of-cosines constraints to Grunert's quartic in the ratio of two point
ranges, finds its real roots in closed form (Ferrari), polishes the
candidate ranges with Newton steps, and lifts each range triple to a pose
by mapping an orthonormal triad of the world triangle onto the same triad
of the camera-frame triangle (as in Kneip et al., CVPR 2011, and Lambda
Twist, Persson and Nordberg, ECCV 2018), with no SVD. The per-sample
arithmetic runs on Python floats, where NumPy's per-call cost would
dominate 3x3 work. Combined with :func:`recover_mocap_pose` this turns a
camera-frame answer into the MoCap-to-world transform the rest of the
package estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError
from .geometry import CameraModel, RigidTransform, pixel_bearings

# Minimal triangle area (m^2) below which a sample is treated as collinear.
MIN_TRIANGLE_AREA = 1e-9

# Reprojection bound, in normalized image coordinates, for accepting a
# candidate pose produced from one root of the quartic.
NORMALIZED_REPROJ_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MinimalProblem:
    """Three world points and the unit bearings observing them.

    ``world_points`` is (3, 3) with one point per row; ``bearings`` is
    (3, 3) with unit-norm rows in the camera frame. Construction rejects
    non-unit bearings and coincident world points outright; collinearity
    is checked by :func:`solve_p3p` so callers can distinguish the two.
    """

    world_points: np.ndarray
    bearings: np.ndarray

    def __post_init__(self):
        pts = np.array(self.world_points, dtype=np.float64)
        brs = np.array(self.bearings, dtype=np.float64)
        if pts.shape != (3, 3) or brs.shape != (3, 3):
            raise ValueError("world_points and bearings must both be (3, 3)")
        pts_rows = pts.tolist()
        brs_rows = brs.tolist()
        if not all(math.isfinite(x) for row in pts_rows + brs_rows for x in row):
            raise ValueError("world_points and bearings must be finite")
        if any(abs(math.hypot(*row) - 1.0) > 1e-9 for row in brs_rows):
            raise ValueError("bearings must be unit vectors")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if math.dist(pts_rows[i], pts_rows[j]) < 1e-12:
                raise DegenerateConfigurationError(f"world points {i} and {j} coincide")
        pts.flags.writeable = False
        brs.flags.writeable = False
        object.__setattr__(self, "world_points", pts)
        object.__setattr__(self, "bearings", brs)

    @classmethod
    def from_observations(
        cls, camera: CameraModel, world_points: np.ndarray, pixels: np.ndarray
    ) -> "MinimalProblem":
        """Build a problem from pixel observations of three points.

        The bearings come from :func:`mocapcal.geometry.pixel_bearings`:
        intrinsics (honoring skew), per-point Newton undistortion, then
        normalization. It works pixel by pixel, so these bearings equal,
        bit for bit, the rows :func:`mocapcal.ransac.run_ransac` computes
        for the same pixels in bulk once per run.
        """
        pts = np.asarray(world_points, dtype=np.float64).reshape(3, 3)
        pix = np.asarray(pixels, dtype=np.float64).reshape(3, 2)
        return cls(world_points=pts, bearings=pixel_bearings(camera, pix))


def _grunert_quartic(a2, b2, c2, ca, cb, cg):
    """Quartic coefficients in v = s3/s1 after eliminating the other ranges."""
    A = a2 / b2
    B = c2 / b2
    ca2 = ca * ca
    cb2 = cb * cb
    cg2 = cg * cg
    c4 = (A - B - 1.0) ** 2 - 4.0 * B * ca2
    c3 = -4.0 * (
        A * A * cb
        - 2.0 * A * B * cb
        - A * ca * cg
        - A * cb
        + B * B * cb
        - 2.0 * B * ca2 * cb
        - B * ca * cg
        + B * cb
        + ca * cg
    )
    c2_ = 2.0 * (
        2.0 * A * A * cb2
        + A * A
        - 4.0 * A * B * cb2
        - 2.0 * A * B
        - 4.0 * A * ca * cb * cg
        - 2.0 * A * cg2
        + 2.0 * B * B * cb2
        + B * B
        - 2.0 * B * ca2
        - 4.0 * B * ca * cb * cg
        + 2.0 * ca2
        + 2.0 * cg2
        - 1.0
    )
    c1 = -4.0 * (
        A * A * cb
        - 2.0 * A * B * cb
        - A * ca * cg
        - 2.0 * A * cb * cg2
        + A * cb
        + B * B * cb
        - B * ca * cg
        - B * cb
        + ca * cg
    )
    c0 = (A - B + 1.0) ** 2 - 4.0 * A * cg2
    return (c4, c3, c2_, c1, c0), A, B


def _quadratic_roots(b: float, c: float) -> list[float]:
    """Real roots of ``y^2 + b y + c``.

    A discriminant that is negative by less than 1e-10 of the coefficient
    scale is rounding around a double root, which then counts twice at the
    parabola's vertex: dropping it would lose the pose, and the vertex is far
    more accurate than either root of the split pair.
    """
    disc = 0.25 * b * b - c
    if not disc >= -1e-10 * (0.25 * b * b + abs(c)):
        return []
    big = -0.5 * b - math.copysign(math.sqrt(max(disc, 0.0)), b)
    if big == 0.0:
        return [0.0, 0.0]
    return [big, c / big]


def _largest_cubic_root(a: float, b: float, c: float) -> float:
    """Largest real root of ``x^3 + a x^2 + b x + c``, Newton-polished once."""
    a3 = a / 3.0
    p = b - a * a3
    q = c - a3 * b + 2.0 * a3 * a3 * a3
    half_q = 0.5 * q
    third_p = p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    if disc >= 0.0:
        w = -half_q - math.copysign(math.sqrt(disc), half_q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        t = u - third_p / u if u != 0.0 else 0.0
    else:
        rho = math.sqrt(-third_p)
        cos3 = max(-1.0, min(1.0, -half_q / (rho * rho * rho)))
        t = 2.0 * rho * math.cos(math.acos(cos3) / 3.0)
    x = t - a3
    dval = (3.0 * x + 2.0 * a) * x + b
    if dval != 0.0:
        x -= (((x + a) * x + b) * x + c) / dval
    return x


def _ferrari(c4, c3, c2, c1, c0) -> list[float]:
    """Real roots of a quartic with ``c4 != 0`` by Ferrari's method.

    The monic quartic is depressed to ``y^4 + p y^2 + q y + r`` and split
    into two quadratics through the largest root ``m`` of its resolvent
    cubic. When ``q`` is zero the quartic is a quadratic in ``y^2`` and is
    solved as one: ``m`` is then 0 or rounding noise and cannot split it.
    """
    b, c, d, e = c3 / c4, c2 / c4, c1 / c4, c0 / c4
    bb = b * b
    p = c - 0.375 * bb
    q = d - 0.5 * b * c + 0.125 * bb * b
    r = e - 0.25 * b * d + 0.0625 * bb * c - 0.01171875 * bb * bb
    m = _largest_cubic_root(p, 0.25 * p * p - r, -0.125 * q * q)
    if m > 0.0 and q != 0.0:
        s = math.sqrt(2.0 * m)
        k = q / (2.0 * s)
        ys = _quadratic_roots(-s, 0.5 * p + m + k) + _quadratic_roots(s, 0.5 * p + m - k)
    else:
        ys = []
        for z in _quadratic_roots(p, r):
            if z >= 0.0:
                ys += [math.sqrt(z), -math.sqrt(z)]
    return [y - 0.25 * b for y in ys]


def _real_roots(coeffs) -> list[float]:
    """Real roots of the quartic in closed form, then two Newton steps each.

    Ferrari's method divides by the leading coefficient, so when ``|c4|`` is
    below ``|c0|`` it solves the reversed quartic for ``1/v`` instead; a
    vanishing ``c4`` then only loses the root at infinity.
    """
    c4, c3, c2, c1, c0 = coeffs
    if abs(c0) > abs(c4):
        guesses = [1.0 / w for w in _ferrari(c0, c1, c2, c3, c4) if w != 0.0]
    elif c4 != 0.0:
        guesses = _ferrari(c4, c3, c2, c1, c0)
    else:
        return []
    roots = []
    for v in guesses:
        val = (((c4 * v + c3) * v + c2) * v + c1) * v + c0
        for _ in range(2):
            dval = ((4.0 * c4 * v + 3.0 * c3) * v + 2.0 * c2) * v + c1
            if not abs(dval) > 1e-300:
                break
            step = v - val / dval
            step_val = (((c4 * step + c3) * step + c2) * step + c1) * step + c0
            # At a double root both values are rounding noise; a step that
            # does not shrink the residual would only throw the root away.
            if not abs(step_val) < abs(val):
                break
            v, val = step, step_val
        if math.isfinite(v):
            roots.append(v)
    return roots


def _polish_ranges(s1, s2, s3, a2, b2, c2, ca, cb, cg):
    """Newton steps on the three law-of-cosines residuals in (s1, s2, s3).

    The Jacobian has a zero diagonal, so the 3x3 solve unrolls to short
    Cramer expressions; a near-singular Jacobian stops the polish early.
    """
    for _ in range(2):
        f0 = s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2
        f1 = s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2
        f2 = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2
        j01 = 2.0 * (s2 - s3 * ca)
        j02 = 2.0 * (s3 - s2 * ca)
        j10 = 2.0 * (s1 - s3 * cb)
        j12 = 2.0 * (s3 - s1 * cb)
        j20 = 2.0 * (s1 - s2 * cg)
        j21 = 2.0 * (s2 - s1 * cg)
        det = j01 * j12 * j20 + j02 * j10 * j21
        if abs(det) < 1e-300:
            break
        d0 = -f0 * j12 * j21 + j01 * j12 * f2 + j02 * f1 * j21
        d1 = f0 * j12 * j20 + j02 * j10 * f2 - j02 * f1 * j20
        d2 = -j01 * j10 * f2 + j01 * f1 * j20 + f0 * j10 * j21
        s1 -= d0 / det
        s2 -= d1 / det
        s3 -= d2 / det
    return s1, s2, s3


def _triad(p0, p1, p2):
    """Orthonormal right-handed frame of a triangle, or None if it is degenerate.

    The first axis runs from ``p0`` to ``p1``, the third is the triangle's
    normal and the second completes the frame.
    """
    ax, ay, az = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
    bx, by, bz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    la = math.sqrt(ax * ax + ay * ay + az * az)
    ln = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not (la > 0.0 and ln > 0.0):
        return None
    ax, ay, az = ax / la, ay / la, az / la
    nx, ny, nz = nx / ln, ny / ln, nz / ln
    return (ax, ay, az), (ny * az - nz * ay, nz * ax - nx * az, nx * ay - ny * ax), (nx, ny, nz)


def solve_p3p(problem: MinimalProblem) -> tuple[RigidTransform, ...]:
    """Enumerate camera-from-points poses for a minimal sample.

    Returns a tuple of zero to four transforms, ordered by reprojection
    residual, each verified to reproject all three points onto their
    bearings within 1e-8 in normalized image coordinates with strictly
    positive depths. Poses closer than 1e-6 in both rotation and
    translation (Frobenius norm) to a better one are dropped. Raises
    :class:`DegenerateConfigurationError` for collinear samples, which
    admit a one-parameter family of poses rather than a finite set.

    The quartic's real roots come from Ferrari's closed form and each
    range triple is lifted to a pose by mapping an orthonormal triad of
    the world triangle onto the same triad of the camera-frame triangle;
    everything runs on Python floats, and only surviving poses become
    :class:`RigidTransform` objects.
    """
    pts = problem.world_points.tolist()
    brs = problem.bearings.tolist()
    p1, p2, p3 = pts
    f1, f2, f3 = brs

    e1 = (p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2])
    e2 = (p3[0] - p1[0], p3[1] - p1[1], p3[2] - p1[2])
    cross = (
        e1[1] * e2[2] - e1[2] * e2[1],
        e1[2] * e2[0] - e1[0] * e2[2],
        e1[0] * e2[1] - e1[1] * e2[0],
    )
    area = 0.5 * math.hypot(*cross)
    if area < MIN_TRIANGLE_AREA:
        raise DegenerateConfigurationError(
            f"sample triangle area {area:.3e} m^2 is below {MIN_TRIANGLE_AREA:.0e}"
        )
    # A bearing without positive depth admits no pose in front of the camera.
    if min(f1[2], f2[2], f3[2]) <= 0.0:
        return ()

    a2 = math.dist(p2, p3) ** 2
    b2 = math.dist(p1, p3) ** 2
    c2 = math.dist(p1, p2) ** 2
    ca = f2[0] * f3[0] + f2[1] * f3[1] + f2[2] * f3[2]
    cb = f1[0] * f3[0] + f1[1] * f3[1] + f1[2] * f3[2]
    cg = f1[0] * f2[0] + f1[1] * f2[1] + f1[2] * f2[2]

    coeffs, A, B = _grunert_quartic(a2, b2, c2, ca, cb, cg)
    w1, w2, w3 = _triad(p1, p2, p3)
    centroid = [(p1[i] + p2[i] + p3[i]) / 3.0 for i in range(3)]
    observed = [(f[0] / f[2], f[1] / f[2]) for f in brs]
    candidates: list[tuple[float, tuple[float, ...], tuple[float, float, float]]] = []

    for v in _real_roots(coeffs):
        denom_sq = 1.0 + v * v - 2.0 * v * cb
        if denom_sq <= 0.0:
            continue
        s1 = math.sqrt(b2 / denom_sq)
        # Back-substitute for u = s2/s1; fall back to the quadratic
        # constraint when the linear denominator vanishes.
        den = 2.0 * (cg - v * ca)
        term1 = v * v * (1.0 - A) + 2.0 * v * A * cb - A
        term2 = -B * v * v + 2.0 * B * v * cb + 1.0 - B
        u_values: list[float]
        if abs(den) > 1e-12:
            u_values = [(term2 - term1) / den]
        else:
            disc = cg * cg - (1.0 - B * denom_sq)
            if disc < 0.0:
                continue
            root = math.sqrt(disc)
            u_values = [cg + root, cg - root]
        for u in u_values:
            ranges = _polish_ranges(s1, u * s1, v * s1, a2, b2, c2, ca, cb, cg)
            if any(not math.isfinite(r) or r <= 0.0 for r in ranges):
                continue
            cam = [[r * x for x in f] for r, f in zip(ranges, brs)]
            frame = _triad(*cam)
            if frame is None:
                continue
            g1, g2, g3 = frame
            rot = tuple(
                g1[i] * w1[j] + g2[i] * w2[j] + g3[i] * w3[j] for i in range(3) for j in range(3)
            )
            trans = tuple(
                (cam[0][i] + cam[1][i] + cam[2][i]) / 3.0
                - rot[3 * i] * centroid[0]
                - rot[3 * i + 1] * centroid[1]
                - rot[3 * i + 2] * centroid[2]
                for i in range(3)
            )
            err = 0.0
            for (px, py, pz), (ox, oy) in zip(pts, observed):
                x = rot[0] * px + rot[1] * py + rot[2] * pz + trans[0]
                y = rot[3] * px + rot[4] * py + rot[5] * pz + trans[1]
                z = rot[6] * px + rot[7] * py + rot[8] * pz + trans[2]
                if not z > 0.0:
                    err = math.inf
                    break
                err = max(err, abs(x / z - ox), abs(y / z - oy))
            if err <= NORMALIZED_REPROJ_TOL:
                candidates.append((err, rot, trans))

    # Deduplicate near-identical poses arising from clustered roots.
    candidates.sort(key=lambda cand: cand[0])
    unique: list[tuple[tuple[float, ...], tuple[float, float, float]]] = []
    for _, rot, trans in candidates:
        if not any(
            math.dist(rot, kept_rot) < 1e-6 and math.dist(trans, kept_trans) < 1e-6
            for kept_rot, kept_trans in unique
        ):
            unique.append((rot, trans))
        if len(unique) == 4:
            break
    return tuple(
        RigidTransform(rotation=np.reshape(rot, (3, 3)), translation=trans)
        for rot, trans in unique
    )


def recover_mocap_pose(cam_from_points: RigidTransform, camera: CameraModel) -> RigidTransform:
    """Convert a camera-frame P3P answer into the MoCap-to-world transform.

    If the camera maps world points via (R_c, t_c) and the solver found
    the camera-from-points pose (R, t), the points' frame sits in the
    world at R_m = R_c^T R and t_m = R_c^T (t - t_c).
    """
    rot = camera.rotation.T @ cam_from_points.rotation
    trans = camera.rotation.T @ (cam_from_points.translation - camera.translation)
    return RigidTransform(rotation=rot, translation=trans)
