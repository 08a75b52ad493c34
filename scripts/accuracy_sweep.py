"""Calibrate the benchmark's sessions over a range of seeds and summarize accuracy.

For each calibrate workload of ``perfbench/workloads.py`` (imported, not
changed) and each run seed in the range, generates the sessions that
workload's run would, calibrates them in memory with its configs, and
prints one row per workload:

  * ``misses``: sessions outside criterion 4's pose gate, 0.5 deg / 2 cm;
  * ``failed``: sessions whose calibration raised;
  * the median and maximum rotation error and the median translation error;
  * the mean ``mpjpe_clean_px``: the MPJPE of the calibrated pose over
    the uncorrupted entries, as the benchmark computes it.

Each missed session is listed under the table with its errors.

``--dump FILE`` writes every session's errors to FILE. ``--against FILE``
compares with such a dump: per workload, the reference's row, then on how
many seeds the mean ``mpjpe_clean_px`` over that seed's sessions rose and
its largest relative change. A dump written with ``PYTHONPATH`` pointing at another
checkout's ``src/`` shows how a change moved accuracy.

Usage:
    PYTHONPATH=src python3 scripts/accuracy_sweep.py [--seeds 1 15]
        [--workload NAME ...] [--dump FILE] [--against FILE]
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import MAX_ROT_ERR_DEG, MAX_TRANS_ERR_M, WORKLOADS  # noqa: E402

from mocapcal import SynthConfig, calibrate, compute_mpjpe, generate  # noqa: E402
from mocapcal.synth import GAUSSIAN  # noqa: E402

CALIBRATE_WORKLOADS = [name for name, wl in WORKLOADS.items() if wl.kind == "calibrate"]


def sweep(name, seeds):
    """Per run seed, one ``[rot_deg, trans_mm, mpjpe_clean_px]`` per session, or None if it raised."""
    wl = WORKLOADS[name]
    results = {}
    for seed in seeds:
        rows = []
        for session_seed in wl.session_seeds(seed):
            synth = generate(SynthConfig(seed=session_seed, **wl.synth))
            cset = synth.correspondences
            try:
                report = calibrate(
                    cset,
                    wl.ransac_config(session_seed),
                    wl.refine_config(),
                    gt_extrinsic=synth.gt_extrinsic,
                )
            except Exception:  # a failed session is counted, and the sweep goes on
                rows.append(None)
                continue
            clean = np.flatnonzero(synth.corruption <= GAUSSIAN)
            rows.append(
                [
                    report.gt_rotation_err_deg,
                    report.gt_translation_err_m * 1e3,
                    compute_mpjpe(cset, report.transform, restrict_to=clean),
                ]
            )
        results[str(seed)] = rows
    return results


def is_miss(row):
    return row[0] >= MAX_ROT_ERR_DEG or row[1] >= MAX_TRANS_ERR_M * 1e3


def summary_row(label, results):
    rows = [row for seed_rows in results.values() for row in seed_rows]
    done = [row for row in rows if row is not None]
    rot = [row[0] for row in done]
    trans = [row[1] for row in done]
    mpjpe = [row[2] for row in done]
    nan = math.nan
    return (
        f"{label:<24} {len(rows):>8} {sum(map(is_miss, done)):>6} {len(rows) - len(done):>6} "
        f"{statistics.median(rot) if rot else nan:>12.4f} {max(rot, default=nan):>12.4f} "
        f"{statistics.median(trans) if trans else nan:>13.3f} "
        f"{statistics.mean(mpjpe) if mpjpe else nan:>15.5f}"
    )


def seed_means(results):
    """Mean ``mpjpe_clean_px`` over each seed's completed sessions."""
    means = {}
    for seed, rows in results.items():
        done = [row[2] for row in rows if row is not None]
        if done:
            means[seed] = statistics.mean(done)
    return means


def compare(results, reference):
    ours, theirs = seed_means(results), seed_means(reference)
    shared = sorted(ours.keys() & theirs.keys(), key=int)
    if not shared:
        return "no seed in common with the reference"
    change = {seed: ours[seed] / theirs[seed] - 1.0 for seed in shared}
    worst = max(shared, key=change.get)
    rose = sum(change[seed] > 0.0 for seed in shared)
    return (
        f"mean mpjpe_clean_px rose on {rose} of {len(shared)} seeds; "
        f"largest change {100.0 * change[worst]:+.2f} % (seed {worst})"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--seeds", type=int, nargs=2, default=[1, 15], metavar=("FIRST", "LAST"),
        help="run seeds, both ends included (default 1 15)",
    )
    parser.add_argument(
        "--workload", action="append", choices=CALIBRATE_WORKLOADS,
        help="a workload to sweep; repeat for more (default: every calibrate workload)",
    )
    parser.add_argument("--dump", metavar="FILE", help="write every session's errors here")
    parser.add_argument("--against", metavar="FILE", help="compare with a --dump file")
    args = parser.parse_args()
    names = args.workload or CALIBRATE_WORKLOADS
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    reference = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            reference = json.load(fh)

    print(
        f"{'workload':<24} {'sessions':>8} {'misses':>6} {'failed':>6} {'rot_med_deg':>12} "
        f"{'rot_max_deg':>12} {'trans_med_mm':>13} {'mpjpe_clean_px':>15}"
    )
    doc, misses, comparisons = {}, [], []
    for name in names:
        doc[name] = results = sweep(name, seeds)
        print(summary_row(name, results), flush=True)
        if name in reference:
            kept = {seed: reference[name][seed] for seed in results if seed in reference[name]}
            print(summary_row("  reference", kept), flush=True)
            comparisons.append(f"{name}: {compare(results, kept)}")
        for seed, rows in results.items():
            for session, row in enumerate(rows):
                if row is not None and is_miss(row):
                    misses.append(
                        f"miss: {name} seed {seed} session {session}: "
                        f"{row[0]:.3f} deg / {row[1]:.1f} mm"
                    )
    for line in misses + comparisons:
        print(line)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
