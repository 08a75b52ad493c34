"""Shared builders for test fixtures."""

import numpy as np

from mocapcal import CameraModel, CorrespondenceSet, RigidTransform

BASIC_K = np.array([[1000.0, 0.0, 640.0], [0.0, 1000.0, 360.0], [0.0, 0.0, 1.0]])
UNIT_K = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def random_rotation_matrix(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def basic_camera(rotation=None, translation=None, distortion=None):
    """1000 px focal camera at the world origin looking down +z."""
    return CameraModel(
        intrinsics=BASIC_K,
        rotation=np.eye(3) if rotation is None else rotation,
        translation=np.zeros(3) if translation is None else translation,
        distortion=distortion,
        image_size=(1280, 720),
    )


def unit_camera():
    """Camera with fx = fy = 1 and the principal point at (0, 0)."""
    return CameraModel(intrinsics=UNIT_K, rotation=np.eye(3), translation=np.zeros(3))


def make_set(cameras, rows, dims):
    """Build a CorrespondenceSet from (cam, joint, frame, p3, p2, valid) rows."""
    cams, joints, frames, pts3, pts2, valid = zip(*rows)
    return CorrespondenceSet(
        cameras,
        np.array(cams, dtype=np.int64),
        np.array(joints, dtype=np.int64),
        np.array(frames, dtype=np.int64),
        np.array(pts3, dtype=np.float64),
        np.array(pts2, dtype=np.float64),
        np.array(valid, dtype=bool),
        dims,
    )


def camera_to_mocap(camera, transform):
    """The transform taking ``camera``'s frame back to the MoCap frame.

    The camera's inverse first, then ``transform``'s:
    ``R_b R_c^T`` and ``R_b (-R_c^T t_c) + t_b``, where ``(R_b, t_b)``
    inverts ``transform``.
    """
    back = transform.inverse()
    cam_back = RigidTransform(camera.rotation.T, -camera.rotation.T @ camera.translation)
    return RigidTransform(
        back.rotation @ cam_back.rotation,
        back.rotation @ cam_back.translation + back.translation,
    )
