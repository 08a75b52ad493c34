"""The traced run: per-layer numbers from spans around calls into mocapcal.

Spans are recorded here, in the benchmark, around calls to the public
functions of each module; nothing inside ``src/`` is instrumented. A traced
run does three things on the workload's own sessions:

* probes: a fixed, seeded batch of minimal samples through
  ``MinimalProblem.from_observations`` and ``solve_p3p``; ``project_points``
  over every camera; ``run_ransac`` at ``workers=1`` and ``workers=nproc``;
* rounds, for about ``--seconds``: one untraced job exactly as the
  end-to-end run times it, then the same job replayed stage by stage through
  the public functions with tracing off and again with tracing on;
* for the eval workload, whose jobs never reach RANSAC or refinement, one
  calibrate call and one traced replay of it with the workload's capped
  configs, so those layers are measured on its data too.

A public function that no longer exists makes the metrics it feeds absent;
the rest of the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

import numpy as np

from spans import NullTracer, Tracer
from workloads import JobResult, SessionInput, Workload, perturbed, run_job

P3P_SAMPLES = 300
PROJECT_PROBE_S = 0.3


def public(module: str, name: str):
    """``mocapcal.<module>.<name>``, or None when the module no longer has it."""
    return getattr(importlib.import_module(f"mocapcal.{module}"), name, None)


def _inlier_ids(cset, transform, tau: float) -> np.ndarray:
    """Stride-1 inlier ids by the rule ``count_inliers`` documents.

    Used only when ``count_inliers`` is gone, so the refine replay keeps
    the active set calibrate gives it.
    """
    project_points = public("geometry", "project_points")
    ids = []
    for block in cset.camera_blocks(stride=1):
        pixels, depths = project_points(block.camera, transform, block.points3d)
        with np.errstate(invalid="ignore", over="ignore"):
            norms = np.linalg.norm(pixels - block.points2d, axis=1)
            keep = (depths > 0.0) & np.isfinite(norms) & (norms < tau)
        ids.append(block.entry_ids[keep])
    return np.sort(np.concatenate(ids)) if ids else np.empty(0, dtype=np.int64)


def replay_calibrate(wl: Workload, seed: int, cset, gt, tracer: Tracer):
    """Calibrate's stages, in calibrate's order, one span per public call.

    Returns the final transform, or None when ``run_ransac`` is gone.
    """
    run_ransac = public("ransac", "run_ransac")
    if run_ransac is None:
        return None
    compute_mpjpe = public("pipeline", "compute_mpjpe")
    count_inliers = public("ransac", "count_inliers")
    refine_pose = public("refine", "refine_pose")
    rc, fc = wl.ransac_config(seed), wl.refine_config()

    def mpjpe(transform):
        if compute_mpjpe is None:
            return None
        with tracer.span("pipeline.compute_mpjpe"):
            return compute_mpjpe(cset, transform)

    with tracer.span("pipeline.calibrate"):
        with tracer.span("ransac.run_ransac") as ransac_span:
            hypothesis = run_ransac(cset, rc)
        init = hypothesis.transform
        mpjpe_init = mpjpe(init)
        if count_inliers is not None:
            with tracer.span("ransac.count_inliers"):
                ids = count_inliers(cset, init, rc.tau, stride=1).ids
        else:
            ids = _inlier_ids(cset, init, rc.tau)
        restrict = ids if fc.inliers_only else None
        final = init
        refine_span = None
        if refine_pose is not None:
            with tracer.span("refine.refine_pose") as refine_span:
                refined, losses = refine_pose(cset, init, fc, restrict_to=restrict)
            mpjpe_refined = mpjpe(refined)
            if mpjpe_init is None or mpjpe_refined <= mpjpe_init:
                final = refined
        if gt is not None:
            mpjpe(gt)

    n_scored = int(np.count_nonzero(cset.selection_mask(stride=rc.coarse_stride)))
    ransac_span.counts.update(
        iterations=rc.iterations, inlier_ratio=hypothesis.inlier_count / n_scored
    )
    if refine_span is not None:
        refine_span.counts.update(
            steps_run=len(losses),
            best_step=int(np.argmin(losses)),
            active=_active_count(cset, init, fc, restrict),
        )
    return final


def _active_count(cset, init, fc, restrict) -> int:
    """Entries the refinement averages over at its initial pose."""
    loss_and_gradient = public("refine", "loss_and_gradient")
    rotation_to_euler = public("geometry", "rotation_to_euler")
    euler_pose = public("geometry", "EulerPose")
    if None in (loss_and_gradient, rotation_to_euler, euler_pose):
        return -1
    pose = euler_pose(*rotation_to_euler(init.rotation), init.translation)
    report = loss_and_gradient(cset, pose, stride=fc.fine_stride, restrict_to=restrict)
    return int(report.active_count)


def replay_job(wl: Workload, inp: SessionInput, tracer: Tracer, job_id: int):
    """One job through the public functions; returns (seconds, final transform)."""
    load_session = public("session_io", "load_session")
    compute_mpjpe = public("pipeline", "compute_mpjpe")
    tracer.job = job_id
    final = None
    t0 = time.perf_counter()
    try:
        with tracer.span("job"):
            with tracer.span("session_io.load_session") as load:
                session = load_session(inp.path)
            load.counts["bytes"] = inp.nbytes
            cset, gt = session.correspondences, session.gt_extrinsic
            if wl.kind == "calibrate":
                final = replay_calibrate(wl, inp.seed, cset, gt, tracer)
            elif compute_mpjpe is not None:
                for transform in (gt, perturbed(gt)):
                    with tracer.span("pipeline.compute_mpjpe"):
                        compute_mpjpe(cset, transform)
    finally:
        tracer.job = None
    return time.perf_counter() - t0, final


def _p3p_probe(inp: SessionInput, seed: int, tracer: Tracer) -> None:
    """A fixed batch of minimal samples from the session's (camera, frame) groups."""
    minimal = public("p3p", "MinimalProblem")
    from_observations = getattr(minimal, "from_observations", None)
    solve_p3p = public("p3p", "solve_p3p")
    if from_observations is None:
        return
    degenerate_error = public("errors", "DegenerateConfigurationError")
    cset = inp.synth.correspondences
    valid = np.flatnonzero(cset.valid)
    keys = cset.cam_indices[valid] * cset.dims[2] + cset.frame_indices[valid]
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    groups = [g for g in np.split(valid[order], cuts) if g.size >= 3]
    rng = np.random.default_rng([seed, P3P_SAMPLES])
    with tracer.span("p3p.batch") as batch:
        solves = solutions = degenerate = 0
        for _ in range(P3P_SAMPLES):
            group = groups[int(rng.integers(len(groups)))]
            ids = group[rng.choice(group.size, size=3, replace=False)]
            cam = cset.cameras[int(cset.cam_indices[ids[0]])]
            try:
                with tracer.span("p3p.from_observations"):
                    problem = from_observations(cam, cset.points3d[ids], cset.points2d[ids])
                if solve_p3p is None:
                    continue
                with tracer.span("p3p.solve_p3p"):
                    found = solve_p3p(problem)
            except degenerate_error:
                degenerate += 1
                continue
            solves += 1
            solutions += len(found)
    batch.counts.update(
        samples=P3P_SAMPLES, solves=solves, solutions=solutions, degenerate=degenerate
    )


def _project_probe(inp: SessionInput, tracer: Tracer) -> None:
    project_points = public("geometry", "project_points")
    if project_points is None:
        return
    cset = inp.synth.correspondences
    blocks = cset.camera_blocks(stride=1)
    stop = time.perf_counter() + PROJECT_PROBE_S
    while time.perf_counter() < stop:
        for block in blocks:
            with tracer.span("geometry.project_points") as sp:
                project_points(block.camera, inp.synth.gt_extrinsic, block.points3d)
            sp.counts["points"] = block.entry_ids.size


def _workers_probe(wl: Workload, inp: SessionInput, cset, nproc: int, tracer: Tracer) -> None:
    """``run_ransac`` at one worker and at one per CPU, while it takes ``workers``."""
    run_ransac = public("ransac", "run_ransac")
    if run_ransac is None or "workers" not in inspect.signature(run_ransac).parameters:
        return
    for label, workers in (("w1", 1), ("wN", nproc)):
        with tracer.span(f"ransac.run_ransac.{label}"):
            run_ransac(cset, wl.ransac_config(inp.seed), workers=workers)


def traced_run(wl: Workload, inputs: list[SessionInput], seed: int, seconds: float, nproc: int):
    """Run probes and rounds; returns (metrics, job results, notes)."""
    tracer = Tracer()
    null = NullTracer()
    load_session = public("session_io", "load_session")
    first = load_session(inputs[0].path)
    _p3p_probe(inputs[0], seed, tracer)
    _project_probe(inputs[0], tracer)
    _workers_probe(wl, inputs[0], first.correspondences, nproc, tracer)

    calibrate_s: list[float] = []
    pose_errors: dict[int, tuple[float, float]] = {}
    if wl.kind != "calibrate":
        calibrate = public("pipeline", "calibrate")
        t0 = time.perf_counter()
        report = calibrate(
            first.correspondences,
            wl.ransac_config(inputs[0].seed),
            wl.refine_config(),
            gt_extrinsic=first.gt_extrinsic,
        )
        calibrate_s.append(time.perf_counter() - t0)
        pose_errors[0] = (report.gt_rotation_err_deg, report.gt_translation_err_m * 1e3)
        replay_calibrate(wl, inputs[0].seed, first.correspondences, first.gt_extrinsic, tracer)
    del first

    results: list[JobResult] = []
    plain_s, traced_s = [], []
    matches = compared = 0
    start = time.perf_counter()
    rounds = 0
    round_s: list[float] = []
    # As in the end-to-end loop, a round starts only if it is expected to
    # end by the deadline.
    while rounds == 0 or time.perf_counter() - start + statistics.median(round_s) / 2 < seconds:
        round_start = time.perf_counter()
        inp = inputs[rounds % len(inputs)]
        res = run_job(wl, inp)
        results.append(res)
        if wl.kind == "calibrate" and res.ok:
            calibrate_s.append(res.extra["stage_s"])
            pose_errors[res.session] = (res.rot_err_deg, res.trans_err_mm)
        # Alternate which replay goes first, so neither side always runs
        # right after the untraced job's allocations.
        if rounds % 2:
            plain_s.append(replay_job(wl, inp, null, rounds)[0])
        seconds_traced, final = replay_job(wl, inp, tracer, rounds)
        traced_s.append(seconds_traced)
        if not rounds % 2:
            plain_s.append(replay_job(wl, inp, null, rounds)[0])
        if final is not None and "transform" in res.extra:
            compared += 1
            ref = res.extra["transform"]
            matches += bool(
                np.array_equal(final.rotation, ref.rotation)
                and np.array_equal(final.translation, ref.translation)
            )
        rounds += 1
        round_s.append(time.perf_counter() - round_start)

    metrics = layer_metrics(tracer, calibrate_s, plain_s, traced_s)
    if pose_errors:
        metrics["pipeline.rot_err_deg"] = statistics.mean(e[0] for e in pose_errors.values())
        metrics["pipeline.trans_err_mm"] = statistics.mean(e[1] for e in pose_errors.values())
    notes = [f"rounds {rounds}", f"replayed pose equals calibrate's pose in {matches}/{compared} jobs"]
    for name, (calls, total, own) in sorted(tracer.self_times().items()):
        notes.append(f"span {name}: calls {calls}, total {total:.6f} s, self {own:.6f} s")
    return metrics, results, notes


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer, calibrate_s, plain_s, traced_s) -> dict:
    """Per-layer metrics by name; a metric whose spans are missing is left out."""
    m: dict = {}

    def put(name, value):
        if value is not None:
            m[name] = float(value)

    loads = tracer.named("session_io.load_session")
    put("session_io.load_s", _median([s.duration for s in loads]))
    if loads:
        put("session_io.bytes", loads[0].counts["bytes"])

    put("p3p.bearings_us", _us(_median([s.duration for s in tracer.named("p3p.from_observations")])))
    put("p3p.solve_us", _us(_median([s.duration for s in tracer.named("p3p.solve_p3p")])))
    for batch in tracer.named("p3p.batch"):
        c = batch.counts
        if c["solves"]:
            put("p3p.solutions_per_solve", c["solutions"] / c["solves"])
            put("p3p.degenerate_frac", c["degenerate"] / c["samples"])

    ransac = tracer.named("ransac.run_ransac")
    if ransac:
        run_s = _median([s.duration for s in ransac])
        put("ransac.run_s", run_s)
        put("ransac.iter_ms", 1e3 * run_s / ransac[0].counts["iterations"])
        put("ransac.inlier_ratio", statistics.mean(s.counts["inlier_ratio"] for s in ransac))
        put("ransac.cpu_per_wall", sum(s.cpu for s in ransac) / sum(s.duration for s in ransac))
    for label in ("w1", "wN"):
        put(f"ransac.run_s.{label}", _median([s.duration for s in tracer.named(f"ransac.run_ransac.{label}")]))

    refine = tracer.named("refine.refine_pose")
    if refine:
        run_s = _median([s.duration for s in refine])
        put("refine.run_s", run_s)
        per_1k = [
            1e6 * s.duration / s.counts["steps_run"] / (s.counts["active"] / 1e3)
            for s in refine
            if s.counts["active"] > 0
        ]
        put("refine.step_us_per_1k", _median(per_1k))
        put("refine.active", statistics.mean(s.counts["active"] for s in refine))
        put("refine.steps_run", statistics.mean(s.counts["steps_run"] for s in refine))
        put("refine.best_step", statistics.mean(s.counts["best_step"] for s in refine))

    put("pipeline.eval_ms", _ms(_median([s.duration for s in tracer.named("pipeline.compute_mpjpe")])))
    put("pipeline.inliers_ms", _ms(_median([s.duration for s in tracer.named("ransac.count_inliers")])))
    stage_sums = [
        sum(c.duration for c in tracer.spans if c.parent == i)
        for i, s in enumerate(tracer.spans)
        if s.name == "pipeline.calibrate"
    ]
    if calibrate_s and stage_sums:
        put("pipeline.unaccounted_s", _median(calibrate_s) - _median(stage_sums))

    project = tracer.named("geometry.project_points")
    put("geometry.project_us_per_1k", _median([1e9 * s.duration / s.counts["points"] for s in project]))

    put("trace.overhead_frac", _median(traced_s) / _median(plain_s) - 1.0)
    return m


def _us(seconds):
    return None if seconds is None else seconds * 1e6


def _ms(seconds):
    return None if seconds is None else seconds * 1e3
