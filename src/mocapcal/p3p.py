"""Minimal three-point pose solver and MoCap pose recovery.

Solves the classical perspective-three-point problem: given three known
3D points and the unit bearing vectors under which one camera sees them,
find the camera-from-points rigid transform. The solver reduces the three
law-of-cosines constraints to Grunert's quartic in the ratio of two point
ranges, finds its real roots in closed form (Ferrari), polishes the
candidate ranges with Newton steps, and lifts each range triple to a pose
by mapping an orthonormal triad of the world triangle onto the same triad
of the camera-frame triangle (as in Kneip et al., CVPR 2011, and Lambda
Twist, Persson and Nordberg, ECCV 2018), with no SVD. Combined with
:func:`recover_mocap_pose` this turns a camera-frame answer into the
MoCap-to-world transform the rest of the package estimates.

There are two solvers with one result. :func:`solve_p3p` solves one
problem on Python floats, where NumPy's per-call cost would dominate 3x3
work. :func:`solve_p3p_batch` solves K samples at once, each stage over
all of them with masks instead of branches, and returns the same poses bit
for bit; RANSAC solves its samples with it a chunk of iterations at a time.
Neither is the other's special case: on a 2-vCPU machine the batch solver
took about 1.3 ms for K = 1 against about 0.1 ms for the scalar solver,
drew level near K = 16 and took about 30 us per sample from K = 256 on.
They share the quartic's coefficients and the deduplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        for the same pixels in bulk once per run. A pixel the distortion
        model cannot invert has no bearing, so the sample is degenerate:
        that raises :class:`DegenerateConfigurationError`, as RANSAC
        counts such a sample. A non-finite pixel raises ``ValueError``.
        """
        pts = np.asarray(world_points, dtype=np.float64).reshape(3, 3)
        pix = np.asarray(pixels, dtype=np.float64).reshape(3, 2)
        bearings = pixel_bearings(camera, pix)
        lost = np.flatnonzero(np.isnan(bearings).any(axis=1) & np.isfinite(pix).all(axis=1))
        if lost.size:
            raise DegenerateConfigurationError(
                f"pixel {int(lost[0])} {pix[lost[0]].tolist()} cannot be undistorted"
            )
        return cls(world_points=pts, bearings=bearings)


def _grunert_quartic(A, B, ca, cb, cg, minus_sq, plus_sq):
    """Quartic coefficients in v = s3/s1 after eliminating the other ranges.

    ``A = a^2 / b^2`` and ``B = c^2 / b^2``; ``minus_sq`` and ``plus_sq``
    are ``(A - B - 1) ** 2`` and ``(A - B + 1) ** 2``, squared by the caller
    with Python's ``**`` (which differs from ``x * x`` in the last bit on
    about 1 input in 1,000). The rest is elementwise arithmetic, so it takes
    floats or arrays alike.
    """
    ca2 = ca * ca
    cb2 = cb * cb
    cg2 = cg * cg
    c4 = minus_sq - 4.0 * B * ca2
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
    c0 = plus_sq - 4.0 * A * cg2
    return c4, c3, c2_, c1, c0


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


def _distinct(rotations, translations) -> list[int]:
    """Indices of the poses kept when near-identical ones are dropped.

    The poses come best first, as flat sequences of floats. One closer than
    1e-6 in both rotation and translation to a kept pose is dropped (it
    comes from a cluster of roots), and at most four are kept.
    """
    kept: list[int] = []
    for i, (rot, trans) in enumerate(zip(rotations, translations)):
        if not any(
            math.dist(rot, rotations[j]) < 1e-6 and math.dist(trans, translations[j]) < 1e-6
            for j in kept
        ):
            kept.append(i)
            if len(kept) == 4:
                break
    return kept


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

    A = a2 / b2
    B = c2 / b2
    coeffs = _grunert_quartic(A, B, ca, cb, cg, (A - B - 1.0) ** 2, (A - B + 1.0) ** 2)
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

    candidates.sort(key=lambda cand: cand[0])
    rots = [rot for _, rot, _ in candidates]
    transs = [trans for _, _, trans in candidates]
    return tuple(
        RigidTransform(rotation=np.reshape(rots[i], (3, 3)), translation=transs[i])
        for i in _distinct(rots, transs)
    )


class P3PBatch(NamedTuple):
    """The answers to K minimal samples, from :func:`solve_p3p_batch`.

    ``degenerate`` (K,) flags the samples :func:`solve_p3p` would refuse
    (or whose bearings are not finite); ``counts`` (K,) is each sample's
    number of solutions. ``rotations`` (S, 3, 3) and ``translations``
    (S, 3) hold the camera-from-points solutions sample after sample, each
    sample's in the order :func:`solve_p3p` returns them.
    """

    degenerate: np.ndarray
    counts: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray


def _py_map(func, values: np.ndarray) -> np.ndarray:
    """``func`` applied to each element as a Python float.

    For the steps whose NumPy form rounds differently from the scalar
    solver's Python one: ``**``, ``math.acos`` and ``math.cos``.
    """
    flat = values.ravel().tolist()
    return np.array([func(x) for x in flat], dtype=np.float64).reshape(values.shape)


def _quadratic_roots_batch(b, c):
    """:func:`_quadratic_roots` over arrays: both roots and whether they are real."""
    disc = 0.25 * b * b - c
    real = disc >= -1e-10 * (0.25 * b * b + np.abs(c))
    big = -0.5 * b - np.copysign(np.sqrt(np.where(0.0 > disc, 0.0, disc)), b)
    zero = big == 0.0
    return np.where(zero, 0.0, big), np.where(zero, 0.0, c / big), real


def _largest_cubic_root_batch(a, b, c):
    """:func:`_largest_cubic_root` over arrays, both branches computed and one kept."""
    a3 = a / 3.0
    p = b - a * a3
    q = c - a3 * b + 2.0 * a3 * a3 * a3
    half_q = 0.5 * q
    third_p = p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    w = -half_q - np.copysign(np.sqrt(disc), half_q)
    u = np.copysign(_py_map(lambda x: x ** (1.0 / 3.0), np.abs(w)), w)
    t_one = np.where(u != 0.0, u - third_p / u, 0.0)
    rho = np.sqrt(-third_p)
    # max(-1.0, min(1.0, x)) as Python evaluates it, which turns NaN into 1.0.
    cos3 = -half_q / (rho * rho * rho)
    cos3 = np.where(cos3 < 1.0, cos3, 1.0)
    cos3 = np.where(cos3 > -1.0, cos3, -1.0)
    t_three = 2.0 * rho * _py_map(lambda x: math.cos(math.acos(x) / 3.0), cos3)
    x = np.where(disc >= 0.0, t_one, t_three) - a3
    dval = (3.0 * x + 2.0 * a) * x + b
    return np.where(dval != 0.0, x - (((x + a) * x + b) * x + c) / dval, x)


def _ferrari_batch(c4, c3, c2, c1, c0):
    """:func:`_ferrari` over arrays: (n, 4) roots and which of them exist.

    The four slots hold the roots in the order :func:`_ferrari` lists them:
    the two of each quadratic factor, or ``±sqrt(z)`` for each root ``z``
    of the quadratic in ``y^2``.
    """
    b, c, d, e = c3 / c4, c2 / c4, c1 / c4, c0 / c4
    bb = b * b
    p = c - 0.375 * bb
    q = d - 0.5 * b * c + 0.125 * bb * b
    r = e - 0.25 * b * d + 0.0625 * bb * c - 0.01171875 * bb * bb
    m = _largest_cubic_root_batch(p, 0.25 * p * p - r, -0.125 * q * q)
    s = np.sqrt(2.0 * m)
    k = q / (2.0 * s)
    y0, y1, real01 = _quadratic_roots_batch(-s, 0.5 * p + m + k)
    y2, y3, real23 = _quadratic_roots_batch(s, 0.5 * p + m - k)
    z0, z1, real_z = _quadratic_roots_batch(p, r)
    r0, r1 = np.sqrt(z0), np.sqrt(z1)
    split = ((m > 0.0) & (q != 0.0))[:, None]
    ys = np.where(split, np.stack([y0, y1, y2, y3], 1), np.stack([r0, -r0, r1, -r1], 1))
    ok_z0, ok_z1 = real_z & (z0 >= 0.0), real_z & (z1 >= 0.0)
    ok = np.where(
        split,
        np.stack([real01, real01, real23, real23], 1),
        np.stack([ok_z0, ok_z0, ok_z1, ok_z1], 1),
    )
    return ys - (0.25 * b)[:, None], ok


def _real_roots_batch(c4, c3, c2, c1, c0):
    """:func:`_real_roots` over arrays: (n, 4) polished roots and which exist."""
    rev = np.abs(c0) > np.abs(c4)
    sel = [np.where(rev, lo, hi) for hi, lo in ((c4, c0), (c3, c1), (c2, c2), (c1, c3), (c0, c4))]
    ys, ok = _ferrari_batch(*sel)
    rev = rev[:, None]
    v = np.where(rev, 1.0 / ys, ys)
    ok &= np.where(rev, ys != 0.0, (c4 != 0.0)[:, None])
    c4, c3, c2, c1, c0 = (coef[:, None] for coef in (c4, c3, c2, c1, c0))
    val = (((c4 * v + c3) * v + c2) * v + c1) * v + c0
    active = ok.copy()
    for _ in range(2):
        dval = ((4.0 * c4 * v + 3.0 * c3) * v + 2.0 * c2) * v + c1
        active &= np.abs(dval) > 1e-300
        step = v - val / dval
        step_val = (((c4 * step + c3) * step + c2) * step + c1) * step + c0
        active &= np.abs(step_val) < np.abs(val)
        v = np.where(active, step, v)
        val = np.where(active, step_val, val)
    return v, ok & np.isfinite(v)


def _polish_ranges_batch(s1, s2, s3, a2, b2, c2, ca, cb, cg):
    """:func:`_polish_ranges` over arrays; each lane stops on its own."""
    active = np.ones(s1.shape, dtype=bool)
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
        active &= ~(np.abs(det) < 1e-300)
        d0 = -f0 * j12 * j21 + j01 * j12 * f2 + j02 * f1 * j21
        d1 = f0 * j12 * j20 + j02 * j10 * f2 - j02 * f1 * j20
        d2 = -j01 * j10 * f2 + j01 * f1 * j20 + f0 * j10 * j21
        s1 = np.where(active, s1 - d0 / det, s1)
        s2 = np.where(active, s2 - d1 / det, s2)
        s3 = np.where(active, s3 - d2 / det, s3)
    return s1, s2, s3


def _triad_batch(p0, p1, p2):
    """:func:`_triad` of (n, 3) corner arrays: three (n, 3) axes and which exist."""
    a = p1 - p0
    b = p2 - p0
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    la = np.sqrt(ax * ax + ay * ay + az * az)
    ln = np.sqrt(nx * nx + ny * ny + nz * nz)
    ax, ay, az = ax / la, ay / la, az / la
    nx, ny, nz = nx / ln, ny / ln, nz / ln
    axes = (
        np.stack([ax, ay, az], 1),
        np.stack([ny * az - nz * ay, nz * ax - nx * az, nx * ay - ny * ax], 1),
        np.stack([nx, ny, nz], 1),
    )
    return axes, (la > 0.0) & (ln > 0.0)


def solve_p3p_batch(world_points: np.ndarray, bearings: np.ndarray) -> P3PBatch:
    """:func:`solve_p3p` for K samples at once, bit for bit.

    ``world_points`` and ``bearings`` are (K, 3, 3), one sample per
    leading index, with unit bearing rows. Every stage runs over all K
    samples together, with masks where the scalar solver branches, and its
    arithmetic keeps the scalar expression trees: elementwise NumPy
    ``+ - * /``, ``sqrt`` and ``copysign`` round as Python floats do. The
    few steps whose NumPy form rounds differently run per element on
    Python floats: the ``math.dist`` distances, the ``math.hypot`` area,
    the two squares of the quartic, the cube root, ``acos``/``cos`` and
    the deduplication. A sample is degenerate when a bearing or point is
    not finite, two points coincide or the triangle area is below
    ``MIN_TRIANGLE_AREA``; it then has no solutions.
    """
    pts = np.asarray(world_points, dtype=np.float64).reshape(-1, 3, 3)
    brs = np.asarray(bearings, dtype=np.float64).reshape(-1, 3, 3)
    n_samples = pts.shape[0]
    counts = np.zeros(n_samples, dtype=np.int64)
    finite = np.isfinite(pts).all(axis=(1, 2)) & np.isfinite(brs).all(axis=(1, 2))
    dists = [
        (math.dist(p2, p3), math.dist(p1, p3), math.dist(p1, p2)) for p1, p2, p3 in pts.tolist()
    ]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    cross = np.stack(
        [
            e1[:, 1] * e2[:, 2] - e1[:, 2] * e2[:, 1],
            e1[:, 2] * e2[:, 0] - e1[:, 0] * e2[:, 2],
            e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0],
        ],
        1,
    )
    areas = np.array([0.5 * math.hypot(*row) for row in cross.tolist()], dtype=np.float64)
    coincide = np.array([min(d) < 1e-12 for d in dists], dtype=bool)
    degenerate = ~finite | coincide | (areas < MIN_TRIANGLE_AREA)
    # A bearing without positive depth admits no pose in front of the camera.
    live = np.flatnonzero(~degenerate & (brs[:, :, 2] > 0.0).all(axis=1))
    if live.size == 0:
        return P3PBatch(degenerate, counts, np.empty((0, 3, 3)), np.empty((0, 3)))

    with np.errstate(all="ignore"):
        pts, brs = pts[live], brs[live]
        a2, b2, c2 = _py_map(lambda d: d ** 2, np.array([dists[i] for i in live.tolist()])).T
        f1, f2, f3 = brs[:, 0], brs[:, 1], brs[:, 2]
        ca = f2[:, 0] * f3[:, 0] + f2[:, 1] * f3[:, 1] + f2[:, 2] * f3[:, 2]
        cb = f1[:, 0] * f3[:, 0] + f1[:, 1] * f3[:, 1] + f1[:, 2] * f3[:, 2]
        cg = f1[:, 0] * f2[:, 0] + f1[:, 1] * f2[:, 1] + f1[:, 2] * f2[:, 2]
        A = a2 / b2
        B = c2 / b2
        squares = _py_map(lambda x: x ** 2, np.stack([A - B - 1.0, A - B + 1.0]))
        v, ok = _real_roots_batch(*_grunert_quartic(A, B, ca, cb, cg, *squares))

        # Per root (n, 4): the range s1 and up to two values of u = s2/s1.
        A_, B_, b2_, ca_, cb_, cg_ = (x[:, None] for x in (A, B, b2, ca, cb, cg))
        denom_sq = 1.0 + v * v - 2.0 * v * cb_
        ok &= ~(denom_sq <= 0.0)
        s1 = np.sqrt(b2_ / denom_sq)
        den = 2.0 * (cg_ - v * ca_)
        term1 = v * v * (1.0 - A_) + 2.0 * v * A_ * cb_ - A_
        term2 = -B_ * v * v + 2.0 * B_ * v * cb_ + 1.0 - B_
        linear = np.abs(den) > 1e-12
        disc = cg_ * cg_ - (1.0 - B_ * denom_sq)
        root = np.sqrt(disc)
        u = np.stack([np.where(linear, (term2 - term1) / den, cg_ + root), cg_ - root], 2)
        quad_ok = ~linear & ~(disc < 0.0)
        ok = np.stack([ok & (linear | quad_ok), ok & quad_ok], 2)

        # Candidates, sample-major and in the scalar solver's order.
        sample, slot = np.nonzero(ok.reshape(live.size, 8))
        u = u.reshape(live.size, 8)[sample, slot]
        v = v[sample, slot // 2]
        s1 = s1[sample, slot // 2]
        ca, cb, cg = ca[sample], cb[sample], cg[sample]
        ranges = _polish_ranges_batch(
            s1, u * s1, v * s1, a2[sample], b2[sample], c2[sample], ca, cb, cg
        )
        ranges = np.stack(ranges, 1)
        good = (np.isfinite(ranges) & (ranges > 0.0)).all(axis=1)
        seen = brs[sample]
        cam = ranges[:, :, None] * seen
        (g1, g2, g3), lifted = _triad_batch(cam[:, 0], cam[:, 1], cam[:, 2])
        (w1, w2, w3), _ = _triad_batch(pts[:, 0], pts[:, 1], pts[:, 2])
        w1, w2, w3 = w1[sample], w2[sample], w3[sample]
        rot = (
            g1[:, :, None] * w1[:, None, :]
            + g2[:, :, None] * w2[:, None, :]
            + g3[:, :, None] * w3[:, None, :]
        )
        world = pts[sample]
        centroid = (world[:, 0] + world[:, 1] + world[:, 2]) / 3.0
        trans = (
            (cam[:, 0] + cam[:, 1] + cam[:, 2]) / 3.0
            - rot[:, :, 0] * centroid[:, 0:1]
            - rot[:, :, 1] * centroid[:, 1:2]
            - rot[:, :, 2] * centroid[:, 2:3]
        )
        err = np.zeros(sample.size)
        for point in range(3):
            px, py, pz = world[:, point, 0:1], world[:, point, 1:2], world[:, point, 2:3]
            x, y, z = (rot[:, :, 0] * px + rot[:, :, 1] * py + rot[:, :, 2] * pz + trans).T
            good &= z > 0.0
            for num, axis in ((x, 0), (y, 1)):
                miss = np.abs(num / z - seen[:, point, axis] / seen[:, point, 2])
                err = np.where(miss > err, miss, err)
        good &= lifted & (err <= NORMALIZED_REPROJ_TOL)

    # Best first within each sample (a stable sort keeps the scalar order on
    # ties), then near-duplicates dropped sample by sample.
    accepted = np.flatnonzero(good)
    accepted = accepted[np.lexsort((err[accepted], sample[accepted]))]
    flat_rot = rot.reshape(-1, 9)
    keep: list[int] = []
    for ids in np.split(accepted, np.flatnonzero(np.diff(sample[accepted])) + 1):
        if ids.size:
            kept = ids[_distinct(flat_rot[ids].tolist(), trans[ids].tolist())]
            counts[live[sample[ids[0]]]] = kept.size
            keep += kept.tolist()
    return P3PBatch(degenerate, counts, rot[keep], trans[keep])


def recover_mocap_poses(
    rotations: np.ndarray, translations: np.ndarray, camera: CameraModel
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`recover_mocap_pose` for a stack of (S, 3, 3) rotations and (S, 3) translations.

    One stacked product per term.
    """
    rot_t = camera.rotation.T
    return rot_t @ rotations, (rot_t @ (translations - camera.translation)[:, :, None])[:, :, 0]


def recover_mocap_pose(cam_from_points: RigidTransform, camera: CameraModel) -> RigidTransform:
    """Convert a camera-frame P3P answer into the MoCap-to-world transform.

    If the camera maps world points via (R_c, t_c) and the solver found
    the camera-from-points pose (R, t), the points' frame sits in the
    world at R_m = R_c^T R and t_m = R_c^T (t - t_c). This is
    :func:`recover_mocap_poses` for one pose.
    """
    rot, trans = recover_mocap_poses(
        cam_from_points.rotation[None], cam_from_points.translation[None], camera
    )
    return RigidTransform(rotation=rot[0], translation=trans[0])
