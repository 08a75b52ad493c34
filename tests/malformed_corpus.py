"""Hand-built malformed session files and the error each must raise.

Shared between the I/O tests and the acceptance suite: every case is a
(name, writer, expected error class) triple, where the writer drops a
broken document at the given path. ``REPORT_CASES`` are single faults in
a saved report: one top-level field set to a value of the wrong JSON
shape, with the exact ``ParseError`` message loading it must raise.
"""

import copy
import json
from typing import NamedTuple

from mocapcal import (
    DimensionMismatchError,
    NonFiniteValueError,
    ParseError,
    UnsupportedVersionError,
)

_IDENTITY_ROT = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def valid_doc():
    """A minimal well-formed session: 2 cameras, 2 frames, 3 joints."""
    camera = {
        "intrinsics": [1000.0, 0.0, 640.0, 0.0, 1000.0, 360.0, 0.0, 0.0, 1.0],
        "rotation": list(_IDENTITY_ROT),
        "translation": [0.0, 0.0, 0.0],
        "distortion": None,
        "image_size": [1280, 720],
    }
    kp3d = [[[0.1 * j, 0.05 * t, 2.0 + 0.1 * j] for j in range(3)] for t in range(2)]
    kp2d = [
        [[[640.0 + j, 360.0 + t, 1.0] for j in range(3)] for t in range(2)]
        for _ in range(2)
    ]
    return {
        "format_version": 1,
        "units": {"length": "m", "pixels": "px"},
        "cameras": [camera, copy.deepcopy(camera)],
        "keypoints3d": kp3d,
        "keypoints2d": kp2d,
        "gt_extrinsic": None,
    }


def _dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _truncated_json(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"format_version": 1, "cameras": [')


def _missing_cameras(path):
    doc = valid_doc()
    del doc["cameras"]
    _dump(doc, path)


def _future_version(path):
    doc = valid_doc()
    doc["format_version"] = 99
    _dump(doc, path)


def _camera_count_mismatch(path):
    doc = valid_doc()
    doc["keypoints2d"] = doc["keypoints2d"][:1]
    _dump(doc, path)


def _joint_count_mismatch(path):
    doc = valid_doc()
    for cam_block in doc["keypoints2d"]:
        for frame in cam_block:
            frame.append([0.0, 0.0, 0.0])
    _dump(doc, path)


def _short_intrinsics(path):
    doc = valid_doc()
    doc["cameras"][0]["intrinsics"] = doc["cameras"][0]["intrinsics"][:8]
    _dump(doc, path)


def _non_finite_keypoint(path):
    doc = valid_doc()
    doc["keypoints3d"][1][2][0] = float("nan")
    _dump(doc, path)


def _mangled_rotation(path):
    doc = valid_doc()
    rot = list(_IDENTITY_ROT)
    rot[1] = 1e-3
    doc["cameras"][1]["rotation"] = rot
    _dump(doc, path)


def _fractional_validity(path):
    doc = valid_doc()
    doc["keypoints2d"][0][1][1][2] = 0.5
    _dump(doc, path)


def _unknown_length_unit(path):
    doc = valid_doc()
    doc["units"]["length"] = "cm"
    _dump(doc, path)


def _boolean_version(path):
    doc = valid_doc()
    doc["format_version"] = True
    _dump(doc, path)


class MalformedCase(NamedTuple):
    name: str
    write: object
    error: type


CASES = [
    MalformedCase("truncated-json", _truncated_json, ParseError),
    MalformedCase("missing-cameras", _missing_cameras, ParseError),
    MalformedCase("future-version", _future_version, UnsupportedVersionError),
    MalformedCase("boolean-version", _boolean_version, UnsupportedVersionError),
    MalformedCase("camera-count-mismatch", _camera_count_mismatch, DimensionMismatchError),
    MalformedCase("joint-count-mismatch", _joint_count_mismatch, DimensionMismatchError),
    MalformedCase("short-intrinsics", _short_intrinsics, DimensionMismatchError),
    MalformedCase("non-finite-keypoint", _non_finite_keypoint, NonFiniteValueError),
    MalformedCase("mangled-rotation", _mangled_rotation, ParseError),
    MalformedCase("fractional-validity", _fractional_validity, ParseError),
    MalformedCase("unknown-length-unit", _unknown_length_unit, ParseError),
]


class MalformedReportField(NamedTuple):
    name: str
    key: str
    value: object
    message: str


_NOT_STRINGS = "warnings must be a list of strings"

REPORT_CASES = [
    MalformedReportField("warnings-string", "warnings", "abc", _NOT_STRINGS),
    MalformedReportField("warnings-object", "warnings", {"a": 1}, _NOT_STRINGS),
    MalformedReportField("warnings-numbers", "warnings", [1, 2], _NOT_STRINGS),
    MalformedReportField("config-number", "config", 5, "config must be an object"),
]
