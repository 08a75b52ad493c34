"""mocapcal benchmark: calibration workloads timed end to end, or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload noisy_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each run imports mocapcal from the checkout's ``src/``, generates the
workload's session files from ``--seed`` (several times, to time set-up),
then runs jobs in a closed loop, one at a time in this one process, for
about ``--seconds``. ``calibrate`` is called without ``workers`` and
with ``RPGD_THREADS`` removed from the environment, so RANSAC threads the way
a user gets by default. ``--trace 1`` runs the traced replay of layers.py
instead and reports the per-layer metrics.

Every job's output is checked. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json, or its ``per_layer`` metrics with
``--trace 1``). The exit code is 0 when every check passed, 1 when one failed,
and 2 when the benchmark cannot run (no ``src/mocapcal`` beside it).
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("noisy_sweep", "long_capture", "distorted_mono", "eval_large")

# Set-up is repeated and its median reported, so one slow pass does not move
# setup_s: at least SETUP_MIN_REPS passes, more while the passes so far took
# under SETUP_MIN_S, and never more than SETUP_MAX_REPS.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_MIN_S = 3.0

# job_s_tail is the highest of these percentiles with at least ten jobs
# beyond it; with fewer than twenty jobs none qualifies and the maximum is
# reported (as p100).
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


# Printed with every end-to-end run but not in BENCHMARK.json: fail_frac is 0
# on working code; the pose errors of a handful of sessions, and the slowest
# of the few jobs a run holds, spread more across seeds than any allowed
# bound (see README.md).
TEXT_ONLY_UNITS = {"fail_frac": "ratio", "rot_err_deg": "deg", "trans_err_mm": "mm", "job_s_tail": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def machine_facts(inherited_threads):
    import numpy
    import mocapcal

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    worker_count = getattr(mocapcal, "worker_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rpgd_threads_inherited": inherited_threads,
        "rpgd_threads_in_run": os.environ.get("RPGD_THREADS"),
        "resolved_workers": worker_count() if worker_count else None,
    }


def tail(values):
    """(percentile, value): the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 100, ordered[-1]


def more_setup(reps, trace) -> bool:
    """Whether to run another set-up pass, given the passes so far (one in a traced run)."""
    if not reps:
        return True
    if trace or len(reps) >= SETUP_MAX_REPS:
        return False
    return len(reps) < SETUP_MIN_REPS or sum(reps) < SETUP_MIN_S


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_line(i, res) -> str:
    return (f"job {i} session {res.session} wall_s {res.wall_s!r} cpu_s {res.cpu_s!r} "
            f"load_s {res.load_s!r} rot_err_deg {res.rot_err_deg!r} trans_err_mm {res.trans_err_mm!r} "
            f"mpjpe_clean_px {res.mpjpe_clean_px!r} digest {res.digest} "
            f"{'ok' if res.ok else 'FAILED: ' + res.error}")


def print_gates(results) -> None:
    gated = {r.session: r.extra["gates_met"] for r in results if "gates_met" in r.extra}
    if gated:
        print(f"criterion 4 gates (pose 0.5 deg / 20 mm, MPJPE within 10 % of the noise floor) "
              f"met by {sum(gated.values())} of {len(gated)} sessions")


def end_to_end(wl, inputs, seconds, setup_s):
    from workloads import run_job

    results = []
    first_digest = {}
    start = time.perf_counter()
    # A job starts only if it is expected to end by the deadline (a job
    # lasts about as long as the median so far), so a run with long jobs
    # does not overrun --seconds by most of a job.
    while not results or (time.perf_counter() - start
                          + statistics.median(r.wall_s for r in results) / 2 < seconds):
        inp = inputs[len(results) % len(inputs)]
        gc.collect()
        res = run_job(wl, inp)
        if res.ok:
            # Calibration is deterministic: a session seen before must give
            # the same report, timing aside.
            want = first_digest.setdefault(res.session, res.digest)
            if res.digest != want:
                res.error = f"report digest {res.digest} differs from {want} for the same session"
        results.append(res)
        print(job_line(len(results) - 1, res))

    walls = [r.wall_s for r in results]
    ok = [r for r in results if r.ok]
    distinct = list({r.session: r for r in ok}.values())
    q, tail_s = tail(walls)
    n = len(results)

    def mean_of(attr):
        return statistics.mean(getattr(r, attr) for r in distinct) if distinct else None

    print_gates(results)
    values = {
        "job_s": (statistics.median(walls), f"median of {n} jobs"),
        "job_s_tail": (tail_s, f"p{q} of {n} jobs"),
        "frames_per_s": (statistics.median(r.frames / r.wall_s for r in ok) if ok else None,
                         "median over passing jobs of session frames / job wall time"),
        "cpu_s_per_job": (statistics.median(r.cpu_s for r in results), "median process user+sys CPU"),
        "pass_frac": (len(ok) / n, f"{len(ok)} of {n} jobs passed their checks"),
        "fail_frac": (1.0 - len(ok) / n, f"{n - len(ok)} of {n} jobs raised or failed a check"),
        "rot_err_deg": (mean_of("rot_err_deg"), f"mean over {len(distinct)} sessions"),
        "trans_err_mm": (mean_of("trans_err_mm"), f"mean over {len(distinct)} sessions"),
        "mpjpe_clean_px": (mean_of("mpjpe_clean_px"), f"mean over {len(distinct)} sessions"),
        "setup_s": (setup_s, "import + median generate-and-write pass"),
        "peak_rss_mb": (peak_rss_mb(), "ru_maxrss of this process"),
    }
    return values, n, n - len(ok)


def traced(wl, inputs, seed, seconds, nproc):
    from layers import traced_run

    metrics, results, notes = traced_run(wl, inputs, seed, seconds, nproc)
    for line in notes:
        print(line)
    for i, r in enumerate(results):
        print(job_line(i, r))
    print_gates(results)
    values = {name: (value, "traced run") for name, value in metrics.items()}
    return values, len(results), sum(not r.ok for r in results)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mocapcal" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no src/mocapcal or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    inherited_threads = os.environ.pop("RPGD_THREADS", None)
    sys.path.insert(0, str(SRC))
    import mocapcal  # noqa: F401
    import workloads

    import_s = time.perf_counter() - _T_START
    if not Path(mocapcal.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported mocapcal from {mocapcal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    facts = machine_facts(inherited_threads)
    print("machine " + json.dumps(facts))

    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reps, digests, setup_ok = [], None, True
        while more_setup(reps, args.trace):
            gc.collect()
            secs, inputs = workloads.write_sessions(wl, args.seed, str(workdir))
            reps.append(secs)
            files = [inp.file_digest for inp in inputs]
            setup_ok &= digests is None or files == digests
            digests = files
        print(f"setup passes_s {reps!r} files {len(inputs)} bytes {sum(i.nbytes for i in inputs)} "
              f"regenerated_identically {setup_ok}")
        if args.trace:
            values, attempted, failed = traced(wl, inputs, args.seed, args.seconds, facts["nproc"])
        else:
            setup_s = import_s + statistics.median(reps)
            values, attempted, failed = end_to_end(wl, inputs, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = dict(TEXT_ONLY_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    for name, (value, how) in values.items():
        print(f"metric {name} = {value!r} {units[name]} ({how})")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], (None,))[0]
        if value is None:
            print(f"absent {m['name']}: the function it measures is gone or no job produced it")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and setup_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
