"""The four benchmark workloads: their inputs, their jobs and the checks on each job.

Every input is generated from the run's ``--seed`` through a per-workload
substream, written as a session file, and read back by each job exactly as
``mocapcal calibrate`` / ``mocapcal eval`` would read it. A job is what a user
waits for: loading one session file and calibrating it (or scoring two
extrinsics against it). Checks and accuracy numbers are computed outside the
timed part of a job.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from mocapcal import (
    DistortionCoeffs,
    RansacConfig,
    RefineConfig,
    RigidTransform,
    SynthConfig,
    calibrate,
    compute_mpjpe,
    generate,
    rotation_geodesic_deg,
    rotation_zyx,
)
from mocapcal.session_io import load_session, report_to_dict, save_session
from mocapcal.synth import GAUSSIAN

# Criterion 4's gates: the pose within 0.5 deg / 2 cm of ground truth, and
# the refined MPJPE over uncorrupted entries within 10 % of the Rayleigh
# noise floor sigma * sqrt(pi / 2). The calibrator misses them on a few
# sessions in a hundred (criterion 4 itself tolerates one pose miss in 20),
# so a miss is counted and printed, not failed. A pose GROSS_FACTOR times
# further off than the gate means a broken stage, and fails the job.
MAX_ROT_ERR_DEG = 0.5
MAX_TRANS_ERR_M = 0.02
FLOOR_TOL = 0.10
GROSS_FACTOR = 10.0

# The eval workload scores the ground truth and this fixed perturbation of it.
PERTURB_EULER_RAD = (math.radians(0.5), math.radians(-0.3), math.radians(0.2))
PERTURB_TRANSLATION_M = np.array([0.005, -0.003, 0.002])

# An eval job's MPJPE read back from the file must match the in-memory value.
EVAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"calibrate"`` (job = load + ``calibrate``) or ``"eval"``
    (job = load + score two extrinsics at stride 1). ``ransac`` and
    ``refine`` hold the configs a calibrate job uses; for the eval workload
    they are the capped configs the traced run replays calibrate's stages
    with, since its jobs never reach those stages.
    """

    name: str
    kind: str
    n_sessions: int
    synth: dict
    ransac: dict
    refine: dict

    def session_seeds(self, seed: int) -> list[int]:
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=self.n_sessions)]

    def ransac_config(self, session_seed: int) -> RansacConfig:
        return RansacConfig(seed=session_seed, **self.ransac)

    def refine_config(self) -> RefineConfig:
        return RefineConfig(**self.refine)


NOISY = dict(n_cameras=2, n_joints=17, noise_sigma=2.0, outlier_fraction=0.2)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "noisy_sweep",
            "calibrate",
            20,
            dict(NOISY, n_frames=300),
            dict(tau=6.0, iterations=400, coarse_stride=5),
            dict(steps=800, fine_stride=1),
        ),
        Workload("long_capture", "calibrate", 2, dict(NOISY, n_frames=2000), {}, {}),
        Workload(
            "distorted_mono",
            "calibrate",
            4,
            dict(
                n_cameras=1,
                n_joints=17,
                n_frames=600,
                noise_sigma=2.0,
                outlier_fraction=0.5,
                invalid_fraction=0.2,
                distortion=DistortionCoeffs(k1=0.3, k2=0.1),
            ),
            dict(tau=6.0, iterations=2000, coarse_stride=2),
            dict(steps=200, fine_stride=1),
        ),
        Workload(
            "eval_large",
            "eval",
            1,
            dict(NOISY, n_cameras=4, n_frames=5000, invalid_fraction=0.1),
            dict(iterations=200, coarse_stride=10),
            dict(steps=100, fine_stride=2),
        ),
    )
}


@dataclass
class SessionInput:
    """One generated session: its file, its in-memory truth and labels."""

    index: int
    seed: int
    path: str
    nbytes: int
    file_digest: str
    synth: object  # mocapcal.SynthSession
    noise_sigma: float
    clean_ids: np.ndarray  # entry ids of uncorrupted observations
    eval_refs: Optional[dict] = None  # eval workload: in-memory expected outputs


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def perturbed(gt: RigidTransform) -> RigidTransform:
    return RigidTransform(
        rotation=gt.rotation @ rotation_zyx(*PERTURB_EULER_RAD),
        translation=gt.translation + PERTURB_TRANSLATION_M,
    )


def _eval_outputs(cset, gt: RigidTransform) -> dict:
    """What ``mocapcal eval`` prints for the ground truth and the perturbation:
    (MPJPE px, rotation error deg, translation error m) per extrinsic."""
    out = {}
    for label, transform in (("gt", gt), ("perturbed", perturbed(gt))):
        out[label] = (
            compute_mpjpe(cset, transform),
            rotation_geodesic_deg(transform.rotation, gt.rotation),
            float(np.linalg.norm(transform.translation - gt.translation)),
        )
    return out


def _eval_refs(synth) -> dict:
    refs = _eval_outputs(synth.correspondences, synth.gt_extrinsic)
    refs["clean_gt"] = compute_mpjpe(
        synth.correspondences,
        synth.gt_extrinsic,
        restrict_to=np.flatnonzero(synth.corruption <= GAUSSIAN),
    )
    return refs


def write_sessions(wl: Workload, seed: int, workdir: str) -> tuple[float, list[SessionInput]]:
    """Generate and write every session of ``wl``; returns (seconds, inputs).

    Only generation and writing are timed; digests and reference values
    are computed afterwards.
    """
    t0 = time.perf_counter()
    made = []
    for i, s in enumerate(wl.session_seeds(seed)):
        synth = generate(SynthConfig(seed=s, **wl.synth))
        path = os.path.join(workdir, f"{wl.name}-{i}.json")
        save_session(path, synth.correspondences, gt_extrinsic=synth.gt_extrinsic)
        made.append((i, s, path, synth))
    elapsed = time.perf_counter() - t0
    inputs = []
    for i, s, path, synth in made:
        inputs.append(
            SessionInput(
                index=i,
                seed=s,
                path=path,
                nbytes=os.path.getsize(path),
                file_digest=_file_digest(path),
                synth=synth,
                noise_sigma=wl.synth["noise_sigma"],
                clean_ids=np.flatnonzero(synth.corruption <= GAUSSIAN),
                eval_refs=_eval_refs(synth) if wl.kind == "eval" else None,
            )
        )
    return elapsed, inputs


@dataclass
class JobResult:
    """Timing, outputs and check outcome of one job."""

    session: int
    frames: int
    wall_s: float = math.nan
    cpu_s: float = math.nan
    load_s: float = math.nan
    digest: str = ""
    error: Optional[str] = None
    rot_err_deg: Optional[float] = None
    trans_err_mm: Optional[float] = None
    mpjpe_clean_px: Optional[float] = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


def _report_digest(report) -> str:
    doc = report_to_dict(report)
    doc.pop("timing")
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def run_job(wl: Workload, inp: SessionInput) -> JobResult:
    """Run and check one job. A raised error is a failed job, not a crash."""
    res = JobResult(session=inp.index, frames=inp.synth.correspondences.dims[2])
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        session = load_session(inp.path)
        t1 = time.perf_counter()
        if wl.kind == "calibrate":
            out = calibrate(
                session.correspondences,
                wl.ransac_config(inp.seed),
                wl.refine_config(),
                gt_extrinsic=session.gt_extrinsic,
                warnings=session.warnings,
            )
        else:
            out = _eval_outputs(session.correspondences, session.gt_extrinsic)
        res.wall_s = time.perf_counter() - t0
        res.cpu_s = time.process_time() - c0
        res.load_s = t1 - t0
    except Exception as exc:  # a failed job is counted, and the run goes on
        res.wall_s = time.perf_counter() - t0
        res.cpu_s = time.process_time() - c0
        res.error = "".join(traceback.format_exception_only(exc)).strip()
        return res
    res.extra["stage_s"] = res.wall_s - res.load_s
    if wl.kind == "calibrate":
        _check_calibration(res, inp, out)
    else:
        _check_eval(res, inp, out)
    return res


def _check_calibration(res: JobResult, inp: SessionInput, report) -> None:
    res.digest = _report_digest(report)
    res.extra["transform"] = report.transform
    res.rot_err_deg = report.gt_rotation_err_deg
    res.trans_err_mm = report.gt_translation_err_m * 1e3
    res.mpjpe_clean_px = compute_mpjpe(
        inp.synth.correspondences, report.transform, restrict_to=inp.clean_ids
    )
    floor = inp.noise_sigma * math.sqrt(math.pi / 2.0)
    rot, trans = res.rot_err_deg, report.gt_translation_err_m
    res.extra["gates_met"] = (
        rot < MAX_ROT_ERR_DEG
        and trans < MAX_TRANS_ERR_M
        and abs(res.mpjpe_clean_px - floor) < FLOOR_TOL * floor
    )
    if not (math.isfinite(rot) and math.isfinite(trans) and math.isfinite(res.mpjpe_clean_px)):
        res.error = "non-finite pose error or MPJPE"
    elif rot >= GROSS_FACTOR * MAX_ROT_ERR_DEG or trans >= GROSS_FACTOR * MAX_TRANS_ERR_M:
        res.error = f"pose off by {rot:.4f} deg / {res.trans_err_mm:.2f} mm"


def _check_eval(res: JobResult, inp: SessionInput, out: dict) -> None:
    res.digest = hashlib.sha256(repr(out).encode()).hexdigest()
    _, res.rot_err_deg, trans_m = out["perturbed"]
    res.trans_err_mm = trans_m * 1e3
    res.mpjpe_clean_px = inp.eval_refs["clean_gt"]
    for label in ("gt", "perturbed"):
        for got, want in zip(out[label], inp.eval_refs[label]):
            if not math.isclose(got, want, rel_tol=EVAL_REL_TOL, abs_tol=1e-12):
                res.error = f"eval of {label} extrinsic read {got!r} from the file, {want!r} in memory"
                return
