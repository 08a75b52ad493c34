"""Self-test of the benchmark itself. Run from the checkout root:

    python3 perfbench/selftest.py

It checks that:

1. a workload seed regenerates byte-identical session files, and another
   seed gives different ones;
2. a held-out seed runs clean on every workload (exit 0, ``correct``, no
   failed job), traced and untraced, and two runs with the same seed
   print the same report digests;
3. a public function that disappears (``count_inliers``, as a later
   change may fold it away) makes the per-layer metric it feeds absent
   while the traced run still finishes with every other metric.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_tmp"
HELD_OUT_SEED = 987654
RUN_SECONDS = "1"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import mocapcal.ransac  # noqa: E402
from layers import traced_run  # noqa: E402
from workloads import WORKLOADS, write_sessions  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        failures.append(what)


def regeneration() -> None:
    for wl in WORKLOADS.values():
        digests = []
        for seed in (HELD_OUT_SEED, HELD_OUT_SEED, HELD_OUT_SEED + 1):
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                _, inputs = write_sessions(wl, seed, tmp)
            digests.append([inp.file_digest for inp in inputs])
        check(digests[0] == digests[1], f"{wl.name}: the same seed regenerates identical files")
        check(digests[0] != digests[2], f"{wl.name}: another seed gives other files")


def bench(workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(HELD_OUT_SEED), "--seconds", RUN_SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def held_out_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        for trace in (0, 1):
            code, lines = bench(name, trace)
            result = json.loads(lines[-1]) if lines else {}
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            ok = (
                code == 0
                and result.get("correct") is True
                and result.get("failed") == 0
                and set(result.get("metrics", {})) == wanted
            )
            check(ok, f"{name} --trace {trace}: held-out seed runs clean with every metric")
    digests = []
    for _ in range(2):
        _, lines = bench("noisy_sweep", 0)
        digests.append([m.group(1) for m in map(re.compile(r"digest (\w+) ok").search, lines) if m])
    n = min(len(d) for d in digests)
    check(n > 0 and digests[0][:n] == digests[1][:n], "report digests repeat across runs")


def missing_function() -> None:
    wl = WORKLOADS["noisy_sweep"]
    saved = mocapcal.ransac.count_inliers
    del mocapcal.ransac.count_inliers
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            _, inputs = write_sessions(wl, HELD_OUT_SEED, tmp)
            metrics, results, _ = traced_run(wl, inputs[:1], HELD_OUT_SEED, 0.0, 1)
    finally:
        mocapcal.ransac.count_inliers = saved
    check("pipeline.inliers_ms" not in metrics, "without count_inliers, pipeline.inliers_ms is absent")
    check(
        all(k in metrics for k in ("refine.run_s", "ransac.run_s", "pipeline.eval_ms"))
        and all(r.ok for r in results),
        "without count_inliers, the other layers are still measured",
    )


if __name__ == "__main__":
    WORK.mkdir(exist_ok=True)
    regeneration()
    missing_function()
    held_out_runs()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
