"""Fingerprint calibration reports to show a change keeps them byte-identical.

Calibrates a fixed, seeded set of synthetic sessions and prints one
SHA-256 per session of its report as ``save_report`` writes it, minus
the ``timing`` block, then two combined digests: ``combined`` over the
sweep, mono and clean sessions, which compares with digests recorded
before the full sessions were added, and ``extended`` over every session.
Two checkouts that print the same extended digest produce the same
reports apart from timing.

Sessions:
  * sweep00-19: the criteria 4/5 sweep (2 cameras, 300 frames, sigma 2 px,
    20 % outliers; tau 6, 400 iterations, coarse stride 5; 800 steps at
    fine stride 1), with ground truth;
  * mono0-2: one camera with pincushion distortion (k1 0.3, k2 0.1),
    50 % outliers and 20 % invalid entries, calibrated with ground truth
    (``-gt``) and without it (``-nogt``). No refinement is rejected here:
    mono0's was, at 0.276 deg / 21.7 mm, until refinement drew its inlier
    gate again as it ran, and now reaches 0.028 deg / 1.05 mm. The branch
    that reports the initial pose is covered by
    ``tests/test_pipeline.py::TestEvaluationAgainstScalarReference::test_rejected_refinement_counts_the_initial_pose``;
  * clean0-3: noiseless 2-camera sessions. Their initial pose is already at
    machine precision, so on clean0, clean1 and clean3 no refinement step
    lowers the loss and refinement returns the initial pose itself;
  * full0-1: every distortion term non-zero (k1 -0.2, k2 0.05, k3 -0.01,
    p1 1e-3, p2 -5e-4), sigma 2 px, 20 % outliers, with ground truth;
    full0 has two cameras, full1 one camera with skew 2 px, so the general
    projection path, whose terms the others leave at 0, is covered too.

``--dump FILE`` also writes every report minus ``timing`` to FILE, keyed by
session name. ``--against FILE`` compares the reports with such a dump and
prints each field that differs (dotted path, list items folded into their
list) with the number of sessions it differs in and its largest absolute
and relative difference, a field one side lacks as ``only in this run``
or ``only in reference`` with its session count, or ``identical``. With
``--against`` the script exits 1 when any field differs or exists on one
side only, and 0 when the reports are identical, so it serves as a
byte-identity gate as it is; there is no flag for this. A
dump written with ``PYTHONPATH`` pointing at another checkout's ``src/``
shows what a change moved in the reports.

Usage:
    PYTHONPATH=src python3 scripts/report_digest.py [--dump FILE] [--against FILE]
"""

import argparse
import hashlib
import itertools
import json
import math
import re
import sys

from mocapcal import (
    CameraModel,
    CorrespondenceSet,
    DistortionCoeffs,
    RansacConfig,
    RefineConfig,
    calibrate,
)
from mocapcal.session_io import report_to_dict
from mocapcal.synth import SynthConfig, generate


def sweep_runs(n_seeds):
    for seed in range(n_seeds):
        session = generate(
            SynthConfig(n_frames=300, noise_sigma=2.0, outlier_fraction=0.2, seed=seed)
        )
        yield f"sweep{seed:02d}", session.correspondences, dict(
            ransac_cfg=RansacConfig(tau=6.0, iterations=400, seed=seed, coarse_stride=5),
            refine_cfg=RefineConfig(steps=800, fine_stride=1),
            gt_extrinsic=session.gt_extrinsic,
        )


def mono_runs(n_seeds):
    for seed in range(n_seeds):
        session = generate(
            SynthConfig(
                n_cameras=1,
                n_frames=300,
                noise_sigma=2.0,
                outlier_fraction=0.5,
                invalid_fraction=0.2,
                distortion=DistortionCoeffs(k1=0.3, k2=0.1),
                seed=100 + seed,
            )
        )
        configs = dict(
            ransac_cfg=RansacConfig(tau=6.0, iterations=1000, seed=seed, coarse_stride=2),
            refine_cfg=RefineConfig(steps=200, fine_stride=1),
        )
        yield f"mono{seed}-gt", session.correspondences, dict(
            configs, gt_extrinsic=session.gt_extrinsic
        )
        yield f"mono{seed}-nogt", session.correspondences, configs


def clean_runs(n_seeds):
    for seed in range(n_seeds):
        session = generate(SynthConfig(n_frames=100, seed=seed))
        yield f"clean{seed}", session.correspondences, dict(
            ransac_cfg=RansacConfig(tau=2.0, iterations=100, seed=seed, coarse_stride=2),
            refine_cfg=RefineConfig(steps=50, fine_stride=1),
            gt_extrinsic=session.gt_extrinsic,
        )


FULL_DISTORTION = DistortionCoeffs(k1=-0.2, k2=0.05, k3=-0.01, p1=1e-3, p2=-5e-4)


def with_skew(cset, skew):
    """``cset`` seen through cameras with ``skew``: each pixel moves by ``skew * yd``."""
    cameras, pixels = [], cset.points2d.copy()
    for i, cam in enumerate(cset.cameras):
        intrinsics = cam.intrinsics.copy()
        intrinsics[0, 1] = skew
        cameras.append(
            CameraModel(intrinsics, cam.rotation, cam.translation, cam.distortion, cam.image_size)
        )
        rows = cset.cam_indices == i
        pixels[rows, 0] += skew * (pixels[rows, 1] - cam.cy) / cam.fy
    return CorrespondenceSet(
        cameras,
        cset.cam_indices,
        cset.joint_indices,
        cset.frame_indices,
        cset.points3d,
        pixels,
        cset.valid,
        cset.dims,
    )


def full_runs(n_seeds):
    for seed in range(n_seeds):
        session = generate(
            SynthConfig(
                n_cameras=2 - seed,
                n_frames=200,
                noise_sigma=2.0,
                outlier_fraction=0.2,
                distortion=FULL_DISTORTION,
                seed=200 + seed,
            )
        )
        cset = session.correspondences
        yield f"full{seed}", with_skew(cset, 2.0) if seed else cset, dict(
            ransac_cfg=RansacConfig(tau=6.0, iterations=400, seed=seed, coarse_stride=2),
            refine_cfg=RefineConfig(steps=400, fine_stride=1),
            gt_extrinsic=session.gt_extrinsic,
        )


def report_doc(report) -> dict:
    doc = report_to_dict(report)
    doc.pop("timing")
    return doc


def flatten(value, path=""):
    """Map each scalar of a JSON value to its path, ``a.b`` for keys, ``a[i]`` for items."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else key, item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return {path: value}
    flat = {}
    for item_path, item in items:
        flat.update(flatten(item, item_path))
    return flat


def compare(docs: dict, reference: dict) -> list[str]:
    """One line per differing field: sessions, largest absolute and relative difference.

    A field present on one side only is listed as ``only in this run`` or
    ``only in reference``. A value that is not a number on both sides
    counts as an infinite difference.
    """
    fields, one_sided = {}, {}
    for name in sorted(set(docs) | set(reference)):
        ours, theirs = flatten(docs.get(name, {})), flatten(reference.get(name, {}))
        for path in ours.keys() | theirs.keys():
            field_path = re.sub(r"\[\d+\]", "", path)
            if path not in theirs or path not in ours:
                side = "only in this run" if path in ours else "only in reference"
                one_sided.setdefault((field_path, side), set()).add(name)
                continue
            a, b = ours[path], theirs[path]
            if type(a) is type(b) and (a == b or a != a and b != b):
                continue
            field = fields.setdefault(field_path, [set(), 0.0, 0.0])
            field[0].add(name)
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
            diff = abs(a - b) if numbers else math.inf
            scale = max(abs(a), abs(b)) if numbers else 1.0
            field[1] = max(field[1], diff)
            field[2] = max(field[2], diff / scale if diff else 0.0)
    lines = [
        (path, f"sessions {len(names):>3}  max_abs {max_abs:.3e}  max_rel {max_rel:.3e}")
        for path, (names, max_abs, max_rel) in fields.items()
    ]
    lines += [
        (path, f"sessions {len(names):>3}  {side}") for (path, side), names in one_sided.items()
    ]
    return [f"{path:<24} {text}" for path, text in sorted(lines)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="FILE", help="write the reports minus timing here")
    parser.add_argument("--against", metavar="FILE", help="compare with a --dump file")
    args = parser.parse_args()
    docs = {}
    combined, extended = hashlib.sha256(), hashlib.sha256()
    runs = itertools.chain(sweep_runs(20), mono_runs(3), clean_runs(4), full_runs(2))
    for name, cset, kwargs in runs:
        docs[name] = report_doc(calibrate(cset, **kwargs))
        digest = hashlib.sha256(json.dumps(docs[name], indent=2).encode("utf-8")).hexdigest()
        if not name.startswith("full"):
            combined.update(digest.encode("ascii"))
        extended.update(digest.encode("ascii"))
        print(f"{name:<12} {digest}", flush=True)
    print(f"{'combined':<12} {combined.hexdigest()}")
    print(f"{'extended':<12} {extended.hexdigest()}")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(docs, fh, indent=2)
            fh.write("\n")
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            lines = compare(docs, json.load(fh))
        print("\n".join(lines) if lines else "identical")
        if lines:
            sys.exit(1)


if __name__ == "__main__":
    main()
