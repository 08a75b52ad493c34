import copy
import json

import numpy as np
import pytest

from mocapcal import (
    ParseError,
    RansacConfig,
    RefineConfig,
    RigidTransform,
    calibrate,
)
from mocapcal.session_io import (
    load_report,
    load_session,
    report_from_dict,
    report_to_dict,
    save_report,
    save_session,
)
from mocapcal.synth import SynthConfig, generate

from malformed_corpus import CASES, REPORT_CASES, valid_doc


def write_doc(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def make_report(seed=0):
    session = generate(SynthConfig(n_cameras=2, n_joints=17, n_frames=30, seed=seed))
    return calibrate(
        session.correspondences,
        RansacConfig(tau=2.0, iterations=150, seed=seed, coarse_stride=2),
        RefineConfig(steps=100, fine_stride=1),
        gt_extrinsic=session.gt_extrinsic,
    )


class TestSessionRoundTrip:
    def test_all_valid_session_is_bit_exact(self, tmp_path):
        session = generate(SynthConfig(n_cameras=2, n_joints=9, n_frames=15, noise_sigma=1.0, seed=0))
        path = str(tmp_path / "session.json")
        save_session(path, session.correspondences, session.gt_extrinsic)
        loaded = load_session(path)
        cset, orig = loaded.correspondences, session.correspondences
        assert cset.dims == orig.dims
        np.testing.assert_array_equal(cset.cam_indices, orig.cam_indices)
        np.testing.assert_array_equal(cset.joint_indices, orig.joint_indices)
        np.testing.assert_array_equal(cset.frame_indices, orig.frame_indices)
        np.testing.assert_array_equal(cset.points3d, orig.points3d)
        np.testing.assert_array_equal(cset.points2d, orig.points2d)
        np.testing.assert_array_equal(loaded.gt_extrinsic.rotation, session.gt_extrinsic.rotation)
        np.testing.assert_array_equal(
            loaded.gt_extrinsic.translation, session.gt_extrinsic.translation
        )
        assert loaded.warnings == ()

    def test_cameras_survive_round_trip(self, tmp_path):
        from mocapcal import DistortionCoeffs

        cfg = SynthConfig(
            n_cameras=3,
            n_joints=5,
            n_frames=4,
            distortion=DistortionCoeffs(k1=-0.1, k2=0.01, p1=1e-4, p2=-1e-4, k3=0.001),
            seed=1,
        )
        session = generate(cfg)
        path = str(tmp_path / "session.json")
        save_session(path, session.correspondences, session.gt_extrinsic)
        loaded = load_session(path)
        for cam_in, cam_out in zip(session.correspondences.cameras, loaded.correspondences.cameras):
            np.testing.assert_array_equal(cam_in.intrinsics, cam_out.intrinsics)
            np.testing.assert_array_equal(cam_in.rotation, cam_out.rotation)
            np.testing.assert_array_equal(cam_in.translation, cam_out.translation)
            assert cam_in.image_size == cam_out.image_size
            assert cam_in.distortion.as_tuple() == cam_out.distortion.as_tuple()

    def test_invalid_entries_are_dropped_on_load(self, tmp_path):
        session = generate(SynthConfig(n_cameras=2, n_joints=9, n_frames=20, invalid_fraction=0.3, seed=2))
        orig = session.correspondences
        path = str(tmp_path / "session.json")
        save_session(path, orig, session.gt_extrinsic)
        cset = load_session(path).correspondences
        keep = np.flatnonzero(orig.valid)
        assert cset.n_entries == keep.size
        np.testing.assert_array_equal(cset.points2d, orig.points2d[keep])
        np.testing.assert_array_equal(cset.points3d, orig.points3d[keep])
        assert cset.valid.all()

    @pytest.mark.parametrize("with_gt", [True, False])
    def test_file_is_what_json_dump_writes(self, tmp_path, with_gt):
        from mocapcal import DistortionCoeffs

        cfg = SynthConfig(
            n_cameras=2,
            n_joints=7,
            n_frames=12,
            noise_sigma=1.0,
            invalid_fraction=0.3,
            distortion=DistortionCoeffs(k1=0.3, k2=0.1),
            seed=5,
        )
        session = generate(cfg)
        path = tmp_path / "session.json"
        save_session(str(path), session.correspondences, session.gt_extrinsic if with_gt else None)
        saved = path.read_bytes()
        doc = json.loads(saved)
        assert (doc["gt_extrinsic"] is not None) == with_gt
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        assert saved == reference.read_bytes()

    def test_millimeter_lengths_are_scaled(self, tmp_path):
        doc = valid_doc()
        doc["units"]["length"] = "mm"
        doc["keypoints3d"][0][0] = [1000.0, 0.0, 0.0]
        doc["cameras"][0]["translation"] = [500.0, 0.0, 0.0]
        doc["gt_extrinsic"] = [1, 0, 0, 0, 1, 0, 0, 0, 1, 0.0, 2000.0, 0.0]
        path = str(tmp_path / "mm.json")
        write_doc(doc, path)
        loaded = load_session(path)
        np.testing.assert_allclose(loaded.correspondences.points3d[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(loaded.correspondences.cameras[0].translation, [0.5, 0.0, 0.0])
        np.testing.assert_allclose(loaded.gt_extrinsic.translation, [0.0, 2.0, 0.0])

    def test_pixels_are_never_scaled(self, tmp_path):
        doc = valid_doc()
        doc["units"]["length"] = "mm"
        doc["keypoints2d"][0][0][0] = [123.0, 45.0, 1.0]
        path = str(tmp_path / "mm.json")
        write_doc(doc, path)
        cset = load_session(path).correspondences
        np.testing.assert_array_equal(cset.points2d[0], [123.0, 45.0])


class TestSessionValidation:
    @pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
    def test_malformed_corpus(self, tmp_path, case):
        path = str(tmp_path / f"{case.name}.json")
        case.write(path)
        with pytest.raises(case.error):
            load_session(path)

    def test_small_rotation_drift_is_repaired_with_warning(self, tmp_path):
        doc = valid_doc()
        rot = doc["cameras"][0]["rotation"]
        rot[1] = 1e-7
        path = str(tmp_path / "drift.json")
        write_doc(doc, path)
        loaded = load_session(path)
        assert len(loaded.warnings) == 1
        assert "drift" in loaded.warnings[0]
        fixed = loaded.correspondences.cameras[0].rotation
        np.testing.assert_allclose(fixed @ fixed.T, np.eye(3), atol=1e-12)

    def test_reflection_rotation_is_rejected(self, tmp_path):
        doc = valid_doc()
        doc["cameras"][0]["rotation"] = [1, 0, 0, 0, 1, 0, 0, 0, -1]
        path = str(tmp_path / "reflection.json")
        write_doc(doc, path)
        with pytest.raises(ParseError, match="reflection"):
            load_session(path)

    def test_non_finite_error_names_the_location(self, tmp_path):
        doc = valid_doc()
        doc["keypoints3d"][1][2][0] = float("inf")
        path = str(tmp_path / "inf.json")
        write_doc(doc, path)
        with pytest.raises(Exception, match=r"keypoints3d\[1\]\[2\]\[0\]"):
            load_session(path)

    def test_valid_base_document_loads(self, tmp_path):
        path = str(tmp_path / "ok.json")
        write_doc(valid_doc(), path)
        loaded = load_session(path)
        assert loaded.correspondences.n_entries == 2 * 2 * 3
        assert loaded.gt_extrinsic is None


class TestReportRoundTrip:
    def test_save_load_is_lossless(self, tmp_path):
        report = make_report()
        path = str(tmp_path / "report.json")
        save_report(report, path)
        again = load_report(path)
        assert report_to_dict(again) == report_to_dict(report)

    def test_unit_inlier_ratio_stays_exact(self, tmp_path):
        report = make_report()
        assert report.inlier_ratio == 1.0
        path = str(tmp_path / "report.json")
        save_report(report, path)
        assert load_report(path).inlier_ratio == 1.0

    def test_dict_key_order_is_stable(self):
        doc = report_to_dict(make_report())
        assert list(doc)[:3] == ["format_version", "rotation", "translation"]
        assert list(doc)[-2:] == ["seed", "warnings"]

    def test_truncated_report_names_missing_field(self, tmp_path):
        doc = report_to_dict(make_report())
        del doc["mpjpe_refined_px"]
        path = str(tmp_path / "short.json")
        write_doc(doc, path)
        with pytest.raises(ParseError, match="mpjpe_refined_px"):
            load_report(path)

    def test_report_dict_round_trip(self):
        report = make_report()
        rebuilt = report_from_dict(report_to_dict(report))
        assert report_to_dict(rebuilt) == report_to_dict(report)

    def test_unsupported_report_version(self, tmp_path):
        from mocapcal import UnsupportedVersionError

        doc = report_to_dict(make_report())
        doc["format_version"] = 2
        path = str(tmp_path / "v2.json")
        write_doc(doc, path)
        with pytest.raises(UnsupportedVersionError):
            load_report(path)


REQUIRED_REPORT_KEYS = [
    "format_version",
    "rotation",
    "translation",
    "euler_zyx",
    "euler_zyx.alpha",
    "euler_zyx.beta",
    "euler_zyx.gamma",
    "mpjpe_init_px",
    "mpjpe_refined_px",
    "inlier_ratio",
    "inlier_count",
    "refinement_rejected",
    "correspondence_counts",
    "correspondence_counts.total",
    "correspondence_counts.valid",
    "correspondence_counts.positive_depth",
    "timing",
    "timing.ransac_ms",
    "timing.refine_ms",
    "timing.total_ms",
    "timing.ms_per_frame",
    "config",
    "seed",
]

# Scalars the loader converts, with the builtin that converts them.
TYPED_REPORT_SCALARS = [
    ("euler_zyx.alpha", float),
    ("euler_zyx.beta", float),
    ("euler_zyx.gamma", float),
    ("mpjpe_init_px", float),
    ("mpjpe_refined_px", float),
    ("mpjpe_gt_px", float),
    ("gt_rotation_err_deg", float),
    ("gt_translation_err_m", float),
    ("inlier_ratio", float),
    ("inlier_count", int),
    ("correspondence_counts.total", int),
    ("correspondence_counts.valid", int),
    ("correspondence_counts.positive_depth", int),
    ("timing.ransac_ms", float),
    ("timing.refine_ms", float),
    ("timing.total_ms", float),
    ("timing.ms_per_frame", float),
    ("seed", int),
]

OPTIONAL_GT_KEYS = ["mpjpe_gt_px", "gt_rotation_err_deg", "gt_translation_err_m"]


@pytest.fixture(scope="module")
def report_doc():
    return report_to_dict(make_report())


def parent_and_key(doc, path):
    *groups, key = path.split(".")
    for group in groups:
        doc = doc[group]
    return doc, key


class TestReportSchema:
    @pytest.mark.parametrize("path", REQUIRED_REPORT_KEYS)
    def test_missing_key_is_named(self, report_doc, path):
        doc = copy.deepcopy(report_doc)
        parent, key = parent_and_key(doc, path)
        del parent[key]
        context = path.split(".")[0] if "." in path else "report"
        with pytest.raises(ParseError) as info:
            report_from_dict(doc)
        assert type(info.value) is ParseError
        assert str(info.value) == f"{context} is missing required field '{key}'"

    @pytest.mark.parametrize("bad", [[1.0], "x"], ids=["list", "string"])
    @pytest.mark.parametrize("path, convert", TYPED_REPORT_SCALARS)
    def test_wrong_type_is_reported(self, report_doc, path, convert, bad):
        doc = copy.deepcopy(report_doc)
        parent, key = parent_and_key(doc, path)
        parent[key] = bad
        with pytest.raises((TypeError, ValueError)) as builtin:
            convert(bad)
        with pytest.raises(ParseError) as info:
            report_from_dict(doc)
        assert type(info.value) is ParseError
        assert str(info.value) == f"report field has the wrong type: {builtin.value}"

    @pytest.mark.parametrize("group", ["euler_zyx", "correspondence_counts", "timing"])
    @pytest.mark.parametrize("value", [5, None, [1.0, 2.0]], ids=["int", "null", "list"])
    def test_group_that_is_not_an_object_is_a_parse_error(self, report_doc, group, value):
        doc = copy.deepcopy(report_doc)
        doc[group] = value
        with pytest.raises(ParseError) as info:
            report_from_dict(doc)
        assert type(info.value) is ParseError
        if group == "euler_zyx":
            assert str(info.value) == "euler_zyx must be an object"

    @pytest.mark.parametrize("group", ["euler_zyx", "correspondence_counts", "timing"])
    @pytest.mark.parametrize("value", [5, None, [1.0, 2.0]], ids=["int", "null", "list"])
    def test_group_that_is_not_an_object_is_named(self, report_doc, group, value):
        doc = copy.deepcopy(report_doc)
        doc[group] = value
        with pytest.raises(ParseError) as info:
            report_from_dict(doc)
        assert str(info.value) == f"{group} must be an object"

    @pytest.mark.parametrize(
        "path, value, expected",
        [
            ("refinement_rejected", "x", "a boolean, got str"),
            ("refinement_rejected", 5, "a boolean, got int"),
            ("inlier_count", 1.5, "an integer, got float"),
            ("inlier_count", True, "an integer, got bool"),
            ("seed", 1.5, "an integer, got float"),
            ("correspondence_counts.valid", "7", "an integer, got str"),
            ("mpjpe_init_px", "nan", "a number, got str"),
            ("mpjpe_init_px", False, "a number, got bool"),
            ("mpjpe_gt_px", "1.0", "a number or null, got str"),
            ("euler_zyx.beta", True, "a number, got bool"),
            ("timing.total_ms", "2", "a number, got str"),
        ],
    )
    def test_value_of_the_wrong_json_type_is_refused(self, report_doc, path, value, expected):
        doc = copy.deepcopy(report_doc)
        parent, key = parent_and_key(doc, path)
        parent[key] = value
        with pytest.raises(ParseError) as info:
            report_from_dict(doc)
        assert type(info.value) is ParseError
        assert str(info.value) == f"{path} must be {expected}"

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("warnings", "abc", "a list of strings"),
            ("warnings", {"a": 1}, "a list of strings"),
            ("warnings", [1, 2], "a list of strings"),
            ("config", 5, "an object"),
        ],
        ids=["warnings-string", "warnings-object", "warnings-numbers", "config-number"],
    )
    def test_warnings_and_config_of_the_wrong_json_shape_are_refused(
        self, report_doc, key, value, expected
    ):
        doc = copy.deepcopy(report_doc)
        doc[key] = value
        with pytest.raises(ParseError) as info:
            report_from_dict(doc)
        assert type(info.value) is ParseError
        assert str(info.value) == f"{key} must be {expected}"

    @pytest.mark.parametrize("case", REPORT_CASES, ids=[c.name for c in REPORT_CASES])
    def test_malformed_report_corpus(self, report_doc, tmp_path, case):
        doc = copy.deepcopy(report_doc)
        doc[case.key] = case.value
        path = str(tmp_path / f"{case.name}.json")
        write_doc(doc, path)
        with pytest.raises(ParseError) as info:
            load_report(path)
        assert str(info.value) == case.message

    def test_boolean_format_version_is_unsupported(self, report_doc):
        from mocapcal import UnsupportedVersionError

        doc = copy.deepcopy(report_doc)
        doc["format_version"] = True
        with pytest.raises(UnsupportedVersionError):
            report_from_dict(doc)

    def test_integer_in_a_float_field_loads_as_float(self, report_doc):
        doc = copy.deepcopy(report_doc)
        doc["mpjpe_init_px"] = 3
        doc["timing"]["total_ms"] = 0
        report = report_from_dict(doc)
        assert type(report.mpjpe_init) is float and report.mpjpe_init == 3.0
        assert type(report.timing.total_ms) is float

    @pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
    def test_gt_fields_absent_or_null_read_as_none(self, report_doc, absent):
        doc = copy.deepcopy(report_doc)
        for key in OPTIONAL_GT_KEYS:
            if absent:
                del doc[key]
            else:
                doc[key] = None
        report = report_from_dict(doc)
        assert report.mpjpe_gt is None
        assert report.gt_rotation_err_deg is None
        assert report.gt_translation_err_m is None
        assert report_to_dict(report)["mpjpe_gt_px"] is None

    def test_absent_warnings_read_as_empty(self, report_doc):
        doc = copy.deepcopy(report_doc)
        del doc["warnings"]
        assert report_from_dict(doc).warnings == ()

    def test_saved_keys_follow_the_schema_order(self, report_doc):
        assert list(report_doc) == [
            "format_version", "rotation", "translation", "euler_zyx",
            "mpjpe_init_px", "mpjpe_refined_px", "mpjpe_gt_px",
            "gt_rotation_err_deg", "gt_translation_err_m", "inlier_ratio",
            "inlier_count", "refinement_rejected", "correspondence_counts",
            "timing", "config", "seed", "warnings",
        ]
        assert list(report_doc["euler_zyx"]) == ["alpha", "beta", "gamma"]
        assert list(report_doc["correspondence_counts"]) == ["total", "valid", "positive_depth"]
        assert list(report_doc["timing"]) == ["ransac_ms", "refine_ms", "total_ms", "ms_per_frame"]
