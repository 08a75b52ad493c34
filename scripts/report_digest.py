"""Fingerprint calibration reports to show a change keeps them byte-identical.

Calibrates a fixed, seeded set of synthetic sessions and prints one
SHA-256 per session of its report as ``save_report`` writes it, minus
the ``timing`` block, then one combined digest over all of them. Two
checkouts that print the same combined digest produce the same reports
apart from timing.

Sessions:
  * sweep00-19: the criteria 4/5 sweep (2 cameras, 300 frames, sigma 2 px,
    20 % outliers; tau 6, 400 iterations, coarse stride 5; 800 steps at
    fine stride 1), with ground truth;
  * mono0-2: one camera with pincushion distortion (k1 0.3, k2 0.1),
    50 % outliers and 20 % invalid entries, calibrated with ground truth
    (``-gt``) and without it (``-nogt``);
  * clean0-3: noiseless 2-camera sessions. Their initial pose is already at
    machine precision, so refinement is rejected on some of them (seeds 2
    and 3), which covers the branch that reports the initial pose.

Usage:
    PYTHONPATH=src python3 scripts/report_digest.py
"""

import hashlib
import itertools
import json

from mocapcal import DistortionCoeffs, RansacConfig, RefineConfig, calibrate
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


def report_digest(report) -> str:
    doc = report_to_dict(report)
    doc.pop("timing")
    return hashlib.sha256(json.dumps(doc, indent=2).encode("utf-8")).hexdigest()


def main():
    combined = hashlib.sha256()
    for name, cset, kwargs in itertools.chain(sweep_runs(20), mono_runs(3), clean_runs(4)):
        digest = report_digest(calibrate(cset, workers=1, **kwargs))
        combined.update(digest.encode("ascii"))
        print(f"{name:<12} {digest}", flush=True)
    print(f"{'combined':<12} {combined.hexdigest()}")


if __name__ == "__main__":
    main()
