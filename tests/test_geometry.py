import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocapcal import (
    CameraModel,
    DistortionCoeffs,
    EulerPose,
    RigidTransform,
    distort_normalized,
    nearest_rotation,
    project_points,
    rotation_geodesic_deg,
    rotation_to_euler,
    rotation_zyx,
    undistort_normalized,
)
from mocapcal.geometry import _distort, _distortion_terms, rotation_zyx_derivatives

from helpers import BASIC_K, basic_camera, random_rotation_matrix


class TestEulerRotations:
    def test_identity_angles(self):
        np.testing.assert_allclose(rotation_zyx(0.0, 0.0, 0.0), np.eye(3))

    def test_quarter_turn_about_z(self):
        rot = rotation_zyx(0.0, 0.0, math.pi / 2)
        np.testing.assert_allclose(rot @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)

    def test_random_angles_give_valid_rotations(self, rng):
        for _ in range(1000):
            a, b, g = rng.uniform(-np.pi, np.pi, 3)
            rot = rotation_zyx(a, b, g)
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-12

    def test_euler_to_rotation_uses_pose_angles(self):
        pose = EulerPose(0.1, -0.2, 0.3, np.array([1.0, 2.0, 3.0]))
        transform = pose.to_transform()
        np.testing.assert_array_equal(transform.rotation, rotation_zyx(0.1, -0.2, 0.3))
        np.testing.assert_array_equal(transform.translation, [1.0, 2.0, 3.0])

    def test_identity_matrix_maps_to_zero_angles(self):
        assert rotation_to_euler(np.eye(3)) == (0.0, 0.0, 0.0)

    def test_round_trip_known_angles(self):
        angles = (0.3, -0.7, 1.1)
        recovered = rotation_to_euler(rotation_zyx(*angles))
        np.testing.assert_allclose(recovered, angles, atol=1e-9)

    @settings(max_examples=200)
    @given(
        alpha=st.floats(-3.1415, 3.1415),
        beta=st.floats(-1.5707, 1.5707),
        gamma=st.floats(-3.1415, 3.1415),
    )
    def test_round_trip_property(self, alpha, beta, gamma):
        recovered = rotation_to_euler(rotation_zyx(alpha, beta, gamma))
        np.testing.assert_allclose(recovered, (alpha, beta, gamma), atol=1e-9)

    @pytest.mark.parametrize("beta_sign", [1.0, -1.0])
    def test_gimbal_lock_pins_alpha_and_rebuilds(self, beta_sign):
        original = rotation_zyx(0.4, beta_sign * math.pi / 2, 1.0)
        alpha, beta, gamma = rotation_to_euler(original)
        assert alpha == 0.0
        assert abs(beta - beta_sign * math.pi / 2) < 1e-9
        rebuilt = rotation_zyx(alpha, beta, gamma)
        np.testing.assert_allclose(rebuilt, original, atol=1e-9)

    def test_gimbal_lock_folds_rotation_into_gamma(self):
        # At beta = +pi/2 only gamma - alpha is observable.
        _, _, gamma = rotation_to_euler(rotation_zyx(0.4, math.pi / 2, 1.0))
        assert abs(gamma - 0.6) < 1e-9

    def test_derivatives_match_finite_differences(self, rng):
        eps = 1e-7
        for _ in range(20):
            a, b, g = rng.uniform(-1.4, 1.4, 3)
            rot, da, db, dg = rotation_zyx_derivatives(a, b, g)
            np.testing.assert_allclose(rot, rotation_zyx(a, b, g))
            fd_a = (rotation_zyx(a + eps, b, g) - rotation_zyx(a - eps, b, g)) / (2 * eps)
            fd_b = (rotation_zyx(a, b + eps, g) - rotation_zyx(a, b - eps, g)) / (2 * eps)
            fd_g = (rotation_zyx(a, b, g + eps) - rotation_zyx(a, b, g - eps)) / (2 * eps)
            np.testing.assert_allclose(da, fd_a, atol=1e-8)
            np.testing.assert_allclose(db, fd_b, atol=1e-8)
            np.testing.assert_allclose(dg, fd_g, atol=1e-8)

    def test_derivatives_rotation_is_rotation_zyx_bit_for_bit(self, rng):
        betas = np.concatenate(
            [
                rng.uniform(-math.pi, math.pi, 200),
                math.pi / 2 + rng.uniform(-1e-6, 1e-6, 100),
                -math.pi / 2 + rng.uniform(-1e-6, 1e-6, 100),
                [math.pi / 2, -math.pi / 2],
            ]
        )
        for beta in betas:
            alpha, gamma = rng.uniform(-math.pi, math.pi, 2)
            rot = rotation_zyx_derivatives(alpha, beta, gamma)[0]
            assert rot.tobytes() == rotation_zyx(alpha, beta, gamma).tobytes()


class TestRigidTransform:
    def test_compose_then_inverse_is_identity(self, rng):
        def compose(a, b):
            """``b`` first, then ``a``."""
            rotation = a.rotation @ b.rotation
            return RigidTransform(rotation, a.rotation @ b.translation + a.translation)

        t1 = RigidTransform(random_rotation_matrix(rng), rng.uniform(-1, 1, 3))
        t2 = RigidTransform(random_rotation_matrix(rng), rng.uniform(-1, 1, 3))
        both = compose(t1, t2)
        back = compose(compose(t2.inverse(), t1.inverse()), both)
        np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(back.translation, 0.0, atol=1e-12)

    def test_apply_matches_matrix_action(self, rng):
        transform = RigidTransform(random_rotation_matrix(rng), rng.uniform(-1, 1, 3))
        pts = rng.uniform(-2, 2, (5, 3))
        expected = (transform.rotation @ pts.T).T + transform.translation
        np.testing.assert_allclose(transform.apply(pts), expected, atol=1e-14)

    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3) + 1e-3
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(bad, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestCameraModel:
    def test_rejects_lower_triangular_intrinsics(self):
        k = BASIC_K.copy()
        k[1, 0] = 2.0
        with pytest.raises(ValueError, match="upper triangular"):
            CameraModel(intrinsics=k, rotation=np.eye(3), translation=np.zeros(3))

    def test_rejects_nonpositive_focal(self):
        k = BASIC_K.copy()
        k[0, 0] = -1.0
        with pytest.raises(ValueError, match="focal"):
            CameraModel(intrinsics=k, rotation=np.eye(3), translation=np.zeros(3))

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraModel(intrinsics=BASIC_K, rotation=np.eye(3) * 1.01, translation=np.zeros(3))

    def test_properties_expose_intrinsics(self):
        cam = basic_camera()
        assert (cam.fx, cam.fy, cam.cx, cam.cy, cam.skew) == (1000.0, 1000.0, 640.0, 360.0, 0.0)


class TestProjection:
    def test_optical_axis_point(self, camera):
        pixels, depths = project_points(camera, RigidTransform.identity(), [0.0, 0.0, 2.0])
        np.testing.assert_allclose(pixels, [640.0, 360.0])
        assert depths == 2.0

    def test_off_axis_point(self, camera):
        pixels, _ = project_points(camera, RigidTransform.identity(), [0.2, 0.0, 2.0])
        np.testing.assert_allclose(pixels, [740.0, 360.0])

    def test_negative_depth_projects_without_error(self, camera):
        pixels, depths = project_points(camera, RigidTransform.identity(), [0.0, 0.0, -2.0])
        assert depths == -2.0
        assert np.isfinite(pixels).all()

    def test_principal_plane_gives_non_finite_pixel(self, camera):
        pixels, depths = project_points(camera, RigidTransform.identity(), [0.1, 0.1, 0.0])
        assert depths == 0.0
        assert not np.isfinite(pixels).any()

    def test_matches_pinhole_formula(self, rng):
        k = np.array([[800.0, 2.5, 320.0], [0.0, 820.0, 240.0], [0.0, 0.0, 1.0]])
        cam = CameraModel(intrinsics=k, rotation=np.eye(3), translation=np.zeros(3))
        pts = rng.uniform(-1, 1, (50, 3)) + np.array([0.0, 0.0, 3.0])
        pixels, depths = project_points(cam, RigidTransform.identity(), pts)
        homog = (k @ (pts / pts[:, 2:3]).T).T
        np.testing.assert_allclose(pixels, homog[:, :2], atol=1e-12)
        np.testing.assert_allclose(depths, pts[:, 2], atol=1e-15)

    def test_applies_extrinsic_chain(self, rng):
        cam_rot = random_rotation_matrix(rng)
        cam = basic_camera(rotation=cam_rot, translation=rng.uniform(-1, 1, 3))
        transform = RigidTransform(random_rotation_matrix(rng), rng.uniform(-1, 1, 3))
        point = rng.uniform(-1, 1, 3)
        world = transform.apply(point)
        cam_pt = cam.rotation @ world + cam.translation
        expected = BASIC_K @ (cam_pt / cam_pt[2])
        pixels, depths = project_points(cam, transform, point)
        np.testing.assert_allclose(pixels, expected[:2], atol=1e-9)
        np.testing.assert_allclose(depths, cam_pt[2], atol=1e-12)


class TestDistortion:
    def test_zero_coefficients_identity(self):
        coeffs = DistortionCoeffs()
        xy = np.array([0.1, -0.2])
        np.testing.assert_allclose(distort_normalized(coeffs, xy), xy)

    def test_origin_is_fixed_point(self):
        coeffs = DistortionCoeffs(k1=0.3, k2=-0.1, p1=0.01, p2=-0.02, k3=0.05)
        np.testing.assert_allclose(distort_normalized(coeffs, np.zeros(2)), np.zeros(2))

    def test_pure_radial_hand_value(self):
        coeffs = DistortionCoeffs(k1=0.1)
        out = distort_normalized(coeffs, np.array([0.1, 0.0]))
        np.testing.assert_allclose(out, [0.1001, 0.0], atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(
        k1=st.floats(-0.2, 0.2),
        k2=st.floats(-0.05, 0.05),
        p1=st.floats(-0.005, 0.005),
        p2=st.floats(-0.005, 0.005),
        k3=st.floats(-0.005, 0.005),
        x=st.floats(-0.3, 0.3),
        y=st.floats(-0.3, 0.3),
    )
    def test_undistort_inverts_distort(self, k1, k2, p1, p2, k3, x, y):
        coeffs = DistortionCoeffs(k1=k1, k2=k2, p1=p1, p2=p2, k3=k3)
        xy = np.array([x, y])
        recovered = undistort_normalized(coeffs, distort_normalized(coeffs, xy))
        np.testing.assert_allclose(recovered, xy, atol=1e-9)

    def test_jacobian_matches_finite_differences(self, rng):
        coeffs = DistortionCoeffs(k1=-0.25, k2=0.08, p1=3e-3, p2=-2e-3, k3=0.01)
        eps = 1e-7
        for _ in range(30):
            xy = rng.uniform(-0.4, 0.4, 2)
            x, y = xy[:1], xy[1:]
            _, _, r2, radial = _distort(coeffs, x, y, terms=True)
            jxx, jxy, jyy = (j[0] for j in _distortion_terms(coeffs, x, y, r2, radial))
            jac = np.array([[jxx, jxy], [jxy, jyy]])
            fd = np.empty((2, 2))
            for col in range(2):
                dp = np.zeros(2)
                dp[col] = eps
                fd[:, col] = (
                    distort_normalized(coeffs, xy + dp) - distort_normalized(coeffs, xy - dp)
                ) / (2 * eps)
            np.testing.assert_allclose(jac, fd, atol=1e-8)


class TestGeodesicDistance:
    def test_identical_rotations(self, rng):
        rot = random_rotation_matrix(rng)
        assert rotation_geodesic_deg(rot, rot) == 0.0

    def test_half_turn(self, rng):
        # acos amplifies rounding near the endpoint to about sqrt(eps).
        rot = random_rotation_matrix(rng)
        flip = rot @ rotation_zyx(0.0, 0.0, math.pi)
        assert abs(rotation_geodesic_deg(rot, flip) - 180.0) < 1e-5

    def test_small_angle_in_degrees(self, rng):
        rot = random_rotation_matrix(rng)
        near = rot @ rotation_zyx(0.01, 0.0, 0.0)
        assert abs(rotation_geodesic_deg(rot, near) - 0.5729577951308232) < 1e-9

    def test_tiny_angle_is_resolved(self, rng):
        # acos of the trace cannot tell 1e-9 rad from 0; the chordal form can.
        rot = random_rotation_matrix(rng)
        near = rot @ rotation_zyx(1e-9, 0.0, 0.0)
        assert rotation_geodesic_deg(rot, near) == pytest.approx(5.729577951308232e-8, rel=1e-6)

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(300):
            ra, rb, rc = (random_rotation_matrix(rng) for _ in range(3))
            ab = rotation_geodesic_deg(ra, rb)
            ba = rotation_geodesic_deg(rb, ra)
            assert abs(ab - ba) < 1e-9
            assert ab <= rotation_geodesic_deg(ra, rc) + rotation_geodesic_deg(rc, rb) + 1e-6


class TestNearestRotation:
    def test_projects_drifted_rotation_back(self, rng):
        rot = random_rotation_matrix(rng)
        drifted = rot + rng.normal(0, 1e-7, (3, 3))
        repaired = nearest_rotation(drifted)
        np.testing.assert_allclose(repaired @ repaired.T, np.eye(3), atol=1e-12)
        assert np.abs(repaired - rot).max() < 1e-6

    def test_fixes_reflection_sign(self):
        repaired = nearest_rotation(np.diag([1.0, 1.0, -1.0]))
        assert np.linalg.det(repaired) > 0.0
