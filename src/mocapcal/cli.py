"""Command-line interface.

Subcommands: ``calibrate`` (estimate the MoCap-to-world transform from a
session file), ``eval`` (score a given extrinsic on a session),
``synth`` (generate a synthetic session), and ``report`` (tabulate one
or many report files). Artifacts go to stdout or ``--out``; diagnostics
go to stderr.

Exit codes: 0 on success, 2 when the consensus stage rejects the data,
3 on unreadable or malformed inputs, 64 on command-line usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    InsufficientConsensusError,
    ParseError,
)
from .geometry import RigidTransform, rotation_geodesic_deg
from .pipeline import calibrate, compute_mpjpe
from .ransac import RansacConfig
from .refine import RefineConfig
from .session_io import load_report, load_session, parse_extrinsic, save_report, save_session
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_NO_CONSENSUS = 2
EXIT_INPUT = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with the usage code on bad flags."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mocapcal", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cal = sub.add_parser("calibrate", help="estimate the MoCap-to-world transform")
    cal.add_argument("--session", required=True, help="session JSON file")
    cal.add_argument("--tau", type=float, default=RansacConfig.tau)
    cal.add_argument("--ransac-iters", type=int, default=RansacConfig.iterations)
    cal.add_argument("--coarse-stride", type=int, default=RansacConfig.coarse_stride)
    cal.add_argument("--fine-stride", type=int, default=RefineConfig.fine_stride)
    cal.add_argument(
        "--steps", type=int, default=RefineConfig.steps, help="cap on refinement steps"
    )
    cal.add_argument("--lr-rot", type=float, default=RefineConfig.lr_rotation)
    cal.add_argument("--lr-trans", type=float, default=RefineConfig.lr_translation)
    cal.add_argument("--inliers-only", type=_bool_flag, default=RefineConfig.inliers_only)
    cal.add_argument("--seed", type=int, default=RansacConfig.seed)
    cal.add_argument("--out", required=True, help="report output path")

    ev = sub.add_parser("eval", help="score an extrinsic against a session")
    ev.add_argument("--session", required=True)
    ev.add_argument(
        "--extrinsic",
        required=True,
        help="report file, or 12 numbers (row-major rotation then translation)",
    )

    syn = sub.add_parser("synth", help="generate a synthetic session")
    syn.add_argument("--out", required=True)
    syn.add_argument("--cams", type=int, default=SynthConfig.n_cameras)
    syn.add_argument("--joints", type=int, default=SynthConfig.n_joints)
    syn.add_argument("--frames", type=int, default=SynthConfig.n_frames)
    syn.add_argument("--sigma", type=float, default=SynthConfig.noise_sigma)
    syn.add_argument("--outliers", type=float, default=SynthConfig.outlier_fraction)
    syn.add_argument("--invalid", type=float, default=SynthConfig.invalid_fraction)
    syn.add_argument("--seed", type=int, default=SynthConfig.seed)
    syn.add_argument("--rig-radius", type=float, default=SynthConfig.rig_radius)
    syn.add_argument("--focal", type=float, default=SynthConfig.focal_px)
    syn.add_argument("--motion-extent", type=float, default=SynthConfig.motion_extent)

    rep = sub.add_parser("report", help="tabulate one report file or a directory")
    rep.add_argument("--in", dest="path", required=True, help="report file or directory")
    rep.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    return parser


def _cmd_calibrate(args) -> int:
    session = load_session(args.session)
    ransac_cfg = RansacConfig(
        tau=args.tau,
        iterations=args.ransac_iters,
        seed=args.seed,
        coarse_stride=args.coarse_stride,
    )
    refine_cfg = RefineConfig(
        steps=args.steps,
        lr_rotation=args.lr_rot,
        lr_translation=args.lr_trans,
        fine_stride=args.fine_stride,
        inliers_only=args.inliers_only,
    )
    report = calibrate(
        session.correspondences,
        ransac_cfg,
        refine_cfg,
        gt_extrinsic=session.gt_extrinsic,
        warnings=session.warnings,
    )
    print(
        f"mpjpe {report.mpjpe_init:.4f} -> {report.mpjpe_refined:.4f} px, "
        f"inlier ratio {report.inlier_ratio:.3f}",
        file=sys.stderr,
    )
    save_report(report, args.out)
    return EXIT_OK


def _parse_extrinsic(text: str, warnings: list[str]) -> RigidTransform:
    if os.path.exists(text):
        return load_report(text, warnings).transform
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if len(parts) != 12:
        raise ParseError(
            "--extrinsic must be a report file or 12 numbers "
            "(row-major rotation then translation)"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"--extrinsic contains a non-number: {exc}") from exc
    return parse_extrinsic(values, "--extrinsic", warnings)


def _cmd_eval(args) -> int:
    session = load_session(args.session)
    warnings: list[str] = []
    transform = _parse_extrinsic(args.extrinsic, warnings)
    for warning in warnings:
        print(f"mocapcal: warning: {warning}", file=sys.stderr)
    mpjpe = compute_mpjpe(session.correspondences, transform)
    print(f"mpjpe_px {mpjpe!r}")
    if session.gt_extrinsic is not None:
        rot_err = rotation_geodesic_deg(transform.rotation, session.gt_extrinsic.rotation)
        trans_err = float(
            np.linalg.norm(transform.translation - session.gt_extrinsic.translation)
        )
        print(f"gt_rotation_err_deg {rot_err!r}")
        print(f"gt_translation_err_m {trans_err!r}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_cameras=args.cams,
        n_joints=args.joints,
        n_frames=args.frames,
        rig_radius=args.rig_radius,
        focal_px=args.focal,
        motion_extent=args.motion_extent,
        noise_sigma=args.sigma,
        outlier_fraction=args.outliers,
        invalid_fraction=args.invalid,
        seed=args.seed,
    )
    session = generate(cfg)
    save_session(args.out, session.correspondences, gt_extrinsic=session.gt_extrinsic)
    print(
        f"wrote {session.correspondences.n_entries} entries "
        f"({cfg.n_cameras} cameras, {cfg.n_frames} frames) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


_REPORT_COLUMNS = (
    ("mpjpe_init_px", lambda r: r.mpjpe_init),
    ("mpjpe_refined_px", lambda r: r.mpjpe_refined),
    ("mpjpe_gt_px", lambda r: r.mpjpe_gt),
    ("gt_rotation_err_deg", lambda r: r.gt_rotation_err_deg),
    ("gt_translation_err_m", lambda r: r.gt_translation_err_m),
    ("inlier_ratio", lambda r: r.inlier_ratio),
)


def _cmd_report(args) -> int:
    if os.path.isdir(args.path):
        files = sorted(
            os.path.join(args.path, name)
            for name in os.listdir(args.path)
            if name.endswith(".json")
        )
        if not files:
            raise ParseError(f"no .json report files in {args.path}")
    else:
        files = [args.path]
    rows = []
    for path in files:
        report = load_report(path)
        rows.append((os.path.basename(path), [fn(report) for _, fn in _REPORT_COLUMNS]))
    means = []
    for col in range(len(_REPORT_COLUMNS)):
        values = [row[1][col] for row in rows if row[1][col] is not None]
        means.append(sum(values) / len(values) if values else None)
    rows.append(("mean", means))

    header = ["file"] + [name for name, _ in _REPORT_COLUMNS]
    if args.csv:
        print(",".join(header))
        for name, values in rows:
            cells = [name] + ["" if v is None else repr(float(v)) for v in values]
            print(",".join(cells))
    else:
        table = [header] + [
            [name] + ["-" if v is None else f"{v:.6g}" for v in values]
            for name, values in rows
        ]
        widths = [max(len(row[c]) for row in table) for c in range(len(header))]
        for row in table:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "calibrate": _cmd_calibrate,
        "eval": _cmd_eval,
        "synth": _cmd_synth,
        "report": _cmd_report,
    }
    try:
        code = handlers[args.command](args)
    except InsufficientConsensusError as exc:
        print(f"mocapcal: insufficient consensus: {exc}", file=sys.stderr)
        code = EXIT_NO_CONSENSUS
    except (CalibrationError, OSError) as exc:
        print(f"mocapcal: input error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except ValueError as exc:
        # Config validation rejects flag values (tau <= 0 and the like).
        print(f"mocapcal: error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
