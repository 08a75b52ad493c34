"""Reading and writing capture sessions and calibration reports.

A session file is a single JSON document holding the calibrated cameras,
the MoCap 3D keypoint block (frames x joints x 3), and one 2D detection
block per camera (cameras x frames x joints x (u, v, validity)). Reports
are flat JSON documents with a stable key order and full-precision
floats, so reruns with identical inputs produce byte-identical files
apart from timing.

Loaders are strict: shape disagreements, unsupported versions, and
non-finite numbers each raise a dedicated error naming the offending
field. Rotations with tiny orthonormality drift (at most 1e-6)
are projected back onto the rotation group and reported as warnings
instead of failing the load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    ParseError,
    UnsupportedVersionError,
)
from .geometry import (
    CameraModel,
    DistortionCoeffs,
    EulerPose,
    RigidTransform,
    nearest_rotation,
)
from .pipeline import CalibrationReport, CorrespondenceCounts, Timing
from .ransac import CorrespondenceSet

FORMAT_VERSION = 1

# Rotation drift policy: accept up to ORTHO_STRICT silently, repair and
# warn up to ORTHO_REPAIR, reject beyond that.
ORTHO_STRICT = 1e-9
ORTHO_REPAIR = 1e-6


@dataclass(frozen=True, eq=False)
class SessionData:
    """A loaded session: correspondences, optional ground truth, warnings."""

    correspondences: CorrespondenceSet
    gt_extrinsic: Optional[RigidTransform]
    warnings: tuple[str, ...]


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ParseError(f"{context} is missing required field '{key}'")
    return obj[key]


def _check_version(doc: dict, context: str) -> None:
    version = _require(doc, "format_version", context)
    if type(version) is not int or version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{context} format_version {version!r} is not supported (expected {FORMAT_VERSION})"
        )


def _as_float_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"cannot parse {name} as a numeric array: {exc}") from exc
    if arr.shape != shape:
        raise DimensionMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        idx = tuple(int(v) for v in np.argwhere(~np.isfinite(arr))[0])
        raise NonFiniteValueError(f"{name}{list(idx)} is not finite")
    return arr


def _block_array(value, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"cannot parse {name} as a numeric array: {exc}") from exc
    if arr.ndim != ndim:
        raise DimensionMismatchError(
            f"{name} must be a {ndim}-dimensional array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        idx = np.argwhere(~np.isfinite(arr))[0]
        loc = "".join(f"[{int(v)}]" for v in idx)
        raise NonFiniteValueError(f"{name}{loc} is not finite")
    return arr


def _checked_rotation(raw: np.ndarray, name: str, warnings: list[str]) -> np.ndarray:
    drift = float(np.abs(raw @ raw.T - np.eye(3)).max())
    det = float(np.linalg.det(raw))
    if det < 0.0:
        raise ParseError(f"{name} is a reflection (determinant {det:.6f})")
    if drift <= ORTHO_STRICT:
        return raw
    if drift <= ORTHO_REPAIR:
        warnings.append(
            f"{name}: orthonormality drift {drift:.3e} repaired by projection"
        )
        return nearest_rotation(raw)
    raise ParseError(f"{name} is not a rotation (orthonormality drift {drift:.3e})")


def parse_extrinsic(
    values, name: str, warnings: list[str], scale: float = 1.0
) -> RigidTransform:
    """Transform from 12 finite numbers: row-major rotation, then translation."""
    raw = _as_float_array(values, (12,), name)
    rot = _checked_rotation(raw[:9].reshape(3, 3), f"{name} rotation", warnings)
    return RigidTransform(rotation=rot, translation=raw[9:] * scale)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc


def _parse_camera(raw, index: int, scale: float, warnings: list[str]) -> CameraModel:
    name = f"cameras[{index}]"
    if not isinstance(raw, dict):
        raise ParseError(f"{name} must be an object")
    intr = _as_float_array(_require(raw, "intrinsics", name), (9,), f"{name}.intrinsics")
    rot = _as_float_array(_require(raw, "rotation", name), (9,), f"{name}.rotation")
    trans = _as_float_array(_require(raw, "translation", name), (3,), f"{name}.translation")
    rotation = _checked_rotation(rot.reshape(3, 3), f"{name}.rotation", warnings)
    distortion = None
    if raw.get("distortion") is not None:
        coeffs = _as_float_array(raw["distortion"], (5,), f"{name}.distortion")
        distortion = DistortionCoeffs(*coeffs)
    image_size = None
    if raw.get("image_size") is not None:
        size = _as_float_array(raw["image_size"], (2,), f"{name}.image_size")
        image_size = (int(size[0]), int(size[1]))
    try:
        return CameraModel(
            intrinsics=intr.reshape(3, 3),
            rotation=rotation,
            translation=trans * scale,
            distortion=distortion,
            image_size=image_size,
        )
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from exc


def load_session(path: str) -> SessionData:
    """Load a session file into a correspondence set.

    One correspondence is created per (camera, frame, joint) whose
    validity flag is 1; rows flagged 0 carry no information beyond their
    absence. Lengths in millimeters are converted to meters.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError("session document must be a JSON object")
    _check_version(doc, "session")

    units = doc.get("units", {})
    if not isinstance(units, dict):
        raise ParseError("units must be an object")
    length_unit = units.get("length", "m")
    pixel_unit = units.get("pixels", "px")
    if length_unit not in ("m", "mm"):
        raise ParseError(f"unsupported length unit {length_unit!r} (expected 'm' or 'mm')")
    if pixel_unit != "px":
        raise ParseError(f"unsupported pixel unit {pixel_unit!r} (expected 'px')")
    scale = 1e-3 if length_unit == "mm" else 1.0

    raw_cameras = _require(doc, "cameras", "session")
    if not isinstance(raw_cameras, list) or len(raw_cameras) == 0:
        raise ParseError("cameras must be a non-empty array")
    warnings: list[str] = []
    cameras = [
        _parse_camera(raw, i, scale, warnings) for i, raw in enumerate(raw_cameras)
    ]

    kp3d = _block_array(_require(doc, "keypoints3d", "session"), "keypoints3d", 3) * scale
    if kp3d.shape[2] != 3:
        raise DimensionMismatchError(
            f"keypoints3d must be frames x joints x 3, got {kp3d.shape}"
        )
    n_frames, n_joints = kp3d.shape[0], kp3d.shape[1]
    kp2d = _block_array(_require(doc, "keypoints2d", "session"), "keypoints2d", 4)
    expected = (len(cameras), n_frames, n_joints, 3)
    if kp2d.shape != expected:
        raise DimensionMismatchError(
            f"keypoints2d must have shape {expected} "
            f"(cameras x frames x joints x (u, v, validity)), got {kp2d.shape}"
        )
    validity = kp2d[..., 2]
    if not np.all((validity == 0.0) | (validity == 1.0)):
        idx = np.argwhere((validity != 0.0) & (validity != 1.0))[0]
        loc = "".join(f"[{int(v)}]" for v in idx)
        raise ParseError(f"keypoints2d{loc}[2] must be 0 or 1, got {validity[tuple(idx)]}")

    raw_gt = doc.get("gt_extrinsic")
    gt = None if raw_gt is None else parse_extrinsic(raw_gt, "gt_extrinsic", warnings, scale)

    cam_idx, frame_idx, joint_idx = np.nonzero(validity == 1.0)
    cset = CorrespondenceSet(
        cameras=cameras,
        cam_indices=cam_idx.astype(np.int64),
        joint_indices=joint_idx.astype(np.int64),
        frame_indices=frame_idx.astype(np.int64),
        points3d=kp3d[frame_idx, joint_idx],
        points2d=kp2d[cam_idx, frame_idx, joint_idx, :2],
        valid=np.ones(cam_idx.size, dtype=bool),
        dims=(len(cameras), n_joints, n_frames),
    )
    return SessionData(
        correspondences=cset, gt_extrinsic=gt, warnings=tuple(warnings)
    )


def save_session(
    path: str, cset: CorrespondenceSet, gt_extrinsic: Optional[RigidTransform] = None
) -> None:
    """Write a correspondence set as a session file (always in meters).

    The dense keypoint blocks are reassembled from the stored entries;
    (frame, joint) slots no entry mentions are zero-filled with validity
    0, and non-finite payloads of invalid entries are zeroed so the file
    stays loadable.
    """
    n_cams, n_joints, n_frames = cset.dims
    kp3d = np.zeros((n_frames, n_joints, 3))
    kp2d = np.zeros((n_cams, n_frames, n_joints, 3))
    pts3 = np.nan_to_num(cset.points3d, nan=0.0, posinf=0.0, neginf=0.0)
    pts2 = np.nan_to_num(cset.points2d, nan=0.0, posinf=0.0, neginf=0.0)
    kp3d[cset.frame_indices, cset.joint_indices] = pts3
    kp2d[cset.cam_indices, cset.frame_indices, cset.joint_indices, :2] = pts2
    kp2d[cset.cam_indices, cset.frame_indices, cset.joint_indices, 2] = cset.valid.astype(
        np.float64
    )
    doc = {
        "format_version": FORMAT_VERSION,
        "units": {"length": "m", "pixels": "px"},
        "cameras": [
            {
                "intrinsics": cam.intrinsics.ravel().tolist(),
                "rotation": cam.rotation.ravel().tolist(),
                "translation": cam.translation.tolist(),
                "distortion": list(cam.distortion.as_tuple()) if cam.distortion else None,
                "image_size": list(cam.image_size) if cam.image_size else None,
            }
            for cam in cset.cameras
        ],
        "keypoints3d": kp3d.tolist(),
        "keypoints2d": kp2d.tolist(),
        "gt_extrinsic": (
            gt_extrinsic.rotation.ravel().tolist() + gt_extrinsic.translation.tolist()
            if gt_extrinsic is not None
            else None
        ),
    }
    # json.dump would run the pure-Python encoder; json.dumps runs the C one
    # and writes the same text.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def _optional_float(value) -> Optional[float]:
    return None if value is None else float(value)


# The JSON types each typed report field accepts, and their name in errors.
# bool is an int subclass, so it is refused wherever it is not named.
_JSON_TYPES = {
    float: ((int, float), "a number"),
    _optional_float: ((int, float, type(None)), "a number or null"),
    int: ((int,), "an integer"),
    bool: ((bool,), "a boolean"),
}


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# The JSON shape each untyped report field must have, and its name in
# errors. Checked before conversion: tuple() and dict() take too much.
_JSON_SHAPES = {
    tuple: (_is_string_list, "a list of strings"),
    dict: (lambda value: isinstance(value, dict), "an object"),
}


def _convert(kind, value, key: str):
    """``kind(value)``, keeping its errors, then refusing a JSON type the field does not take."""
    if kind in _JSON_SHAPES:
        check, name = _JSON_SHAPES[kind]
        if not check(value):
            raise ParseError(f"{key} must be {name}")
    converted = kind(value)
    if kind in _JSON_TYPES:
        accepted, name = _JSON_TYPES[kind]
        if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
            raise ParseError(f"{key} must be {name}, got {type(value).__name__}")
    return converted


# Report fields after rotation and translation, in saved key order:
# (JSON key, report attribute, type). A group's type is (field names, field
# type), and the group is saved as an object of those attributes.
_REPORT_FIELDS = (
    ("euler_zyx", "euler", (("alpha", "beta", "gamma"), float)),
    ("mpjpe_init_px", "mpjpe_init", float),
    ("mpjpe_refined_px", "mpjpe_refined", float),
    ("mpjpe_gt_px", "mpjpe_gt", _optional_float),
    ("gt_rotation_err_deg", "gt_rotation_err_deg", _optional_float),
    ("gt_translation_err_m", "gt_translation_err_m", _optional_float),
    ("inlier_ratio", "inlier_ratio", float),
    ("inlier_count", "inlier_count", int),
    ("refinement_rejected", "refinement_rejected", bool),
    ("correspondence_counts", "correspondence_counts", (CorrespondenceCounts._fields, int)),
    ("timing", "timing", (tuple(f.name for f in fields(Timing)), float)),
    ("config", "config_echo", dict),
    ("seed", "seed", int),
    ("warnings", "warnings", tuple),
)

# Keys a report may omit, and the value read in their place.
_REPORT_DEFAULTS = {
    "mpjpe_gt_px": None,
    "gt_rotation_err_deg": None,
    "gt_translation_err_m": None,
    "warnings": [],
}


def report_to_dict(report: CalibrationReport) -> dict:
    """Flatten a report into a JSON-ready dict with stable key order."""
    doc = {
        "format_version": FORMAT_VERSION,
        "rotation": report.transform.rotation.ravel().tolist(),
        "translation": report.transform.translation.tolist(),
    }
    for key, attr, kind in _REPORT_FIELDS:
        value = getattr(report, attr)
        if isinstance(kind, tuple):
            value = {name: getattr(value, name) for name in kind[0]}
        elif isinstance(value, tuple):
            value = list(value)
        doc[key] = value
    return doc


def report_from_dict(doc: dict, warnings: Optional[list[str]] = None) -> CalibrationReport:
    """Rebuild a report object from its JSON form.

    A repaired rotation drift is appended to ``warnings`` when given.
    """
    if not isinstance(doc, dict):
        raise ParseError("report document must be a JSON object")
    _check_version(doc, "report")
    rot = _as_float_array(_require(doc, "rotation", "report"), (9,), "rotation").reshape(3, 3)
    rot = _checked_rotation(rot, "report rotation", [] if warnings is None else warnings)
    trans = _as_float_array(_require(doc, "translation", "report"), (3,), "translation")
    raw = {
        attr: doc.get(key, _REPORT_DEFAULTS[key])
        if key in _REPORT_DEFAULTS
        else _require(doc, key, "report")
        for key, attr, _ in _REPORT_FIELDS
    }
    try:
        values = {}
        for key, attr, kind in _REPORT_FIELDS:
            if isinstance(kind, tuple):
                if not isinstance(raw[attr], dict):
                    raise ParseError(f"{key} must be an object")
                names, field_type = kind
                values[attr] = [
                    _convert(field_type, _require(raw[attr], name, key), f"{key}.{name}")
                    for name in names
                ]
            else:
                values[attr] = _convert(kind, raw[attr], key)
        return CalibrationReport(
            transform=RigidTransform(rotation=rot, translation=trans),
            euler=EulerPose(*values.pop("euler"), trans),
            correspondence_counts=CorrespondenceCounts(*values.pop("correspondence_counts")),
            timing=Timing(*values.pop("timing")),
            **values,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"report field has the wrong type: {exc}") from exc


def save_report(report: CalibrationReport, path: str) -> None:
    """Write a report as indented JSON with full-precision floats."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def load_report(path: str, warnings: Optional[list[str]] = None) -> CalibrationReport:
    """Read a report file back (floats round-trip exactly), as :func:`report_from_dict`."""
    return report_from_dict(_load_json(path), warnings)
