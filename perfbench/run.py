"""navcurate benchmark: one closed-loop client drives the CLI through a seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times each stage as its own `python -m navcurate.cli` process, as
users run it, and reports the end-to-end metrics. --trace 1 runs the same
stages in this process, alternating untraced passes with passes traced by
wrappers around the CLI's calls into each module, and reports the
per-layer metrics. Every pass's outputs are checked; the last stdout line
is the JSON result. See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin thread pools before numpy is imported here or in any stage process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NAVCURATE_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import stages as st  # noqa: E402
import workloads as wl  # noqa: E402

WORK = st.ROOT / ".bench_work"
SETUP_REPEATS = 3

# The host's CPU speed drifts by up to ~1.5x over minutes (see NOTES.md),
# more than any bound allows. So gated times are scaled to a reference
# speed, measured by a fixed pure-Python loop timed just before and just
# after each timed interval: t_ref = t * CAL_REF_S / mean(before, after).
CAL_LOOP = 3_000_000
CAL_REF_S = 0.25  # the loop's typical time on the reference machine; it only sets the unit

END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed in the table next to the gated metrics: the unscaled times and
# the host speed they were scaled by (1 = reference, below 1 = slower).
UNSCALED = [("setup_raw_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("host_speed", "ratio")]
# Reported in the summary on the workloads that run the stage; a stage a
# workload does not run has no throughput, so these are not gated metrics.
STAGE_THROUGHPUT = [
    ("segment", "segment_poses_per_s", "poses/s"),
    ("filter", "filter_poses_per_s", "poses/s"),
    ("samples", "samples_per_s", "samples/s"),
    ("eval", "eval_records_per_s", "records/s"),
]

# (metric, unit, kind, source): kind "s"/"self_s"/"calls" reads the span
# summary of `source`, "count" reads the tracer's counter `source`.
LAYER_SPANS = [
    ("cli.map_tasks.s", "s", "s", "cli.map_tasks"),
    ("cli.map_tasks.self_s", "s", "self_s", "cli.map_tasks"),
    ("cli.map_tasks.tasks", "count", "count", "cli.map_tasks.tasks"),
    ("cli.map_tasks.task_bytes", "bytes", "count", "cli.map_tasks.task_bytes"),
    ("io.write_pose_file.s", "s", "s", "io.write_pose_file"),
    ("io.write_pose_file.bytes", "bytes", "count", "io.write_pose_file.bytes"),
    ("io.parse_pose_file.s", "s", "s", "io.parse_pose_file"),
    ("io.parse_pose_file.poses", "count", "count", "io.parse_pose_file.poses"),
    ("io.parse_detections.s", "s", "s", "io.parse_detections"),
    ("io.parse_detections.lines", "count", "count", "io.parse_detections.lines"),
    ("io.parse_detections.boxes", "count", "count", "io.parse_detections.boxes"),
    ("io.write_samples.s", "s", "s", "io.write_samples"),
    ("io.write_samples.bytes", "bytes", "count", "io.write_samples.bytes"),
    ("io.parse_landmarks.s", "s", "s", "io.parse_landmarks"),
    ("io.parse_predictions.s", "s", "s", "io.parse_predictions"),
    ("io.parse_predictions.records", "count", "count", "io.parse_predictions.records"),
    ("io.write_report.s", "s", "s", "io.write_report"),
    ("io.file_digest.s", "s", "s", "io.file_digest"),
    ("io.file_digest.bytes", "bytes", "count", "io.file_digest.bytes"),
    ("segmentation.segment.s", "s", "s", "segmentation.segment"),
    ("segmentation.save_clips.self_s", "s", "self_s", "segmentation.save_clips"),
    ("segmentation.load_clips.self_s", "s", "self_s", "segmentation.load_clips"),
    ("filters.slice_detections.s", "s", "s", "filters.slice_detections"),
    ("filters.slice_detections.frames_scanned", "count", "count", "filters.slice_detections.frames_scanned"),
    ("filters.run_filters.s", "s", "s", "filters.run_filters"),
    ("filters.run_filters.clips", "count", "calls", "filters.run_filters"),
    ("geometry.pitch_many.s", "s", "s", "geometry.pitch_many"),
    ("geometry.yaw_many.s", "s", "s", "geometry.yaw_many"),
    ("geometry.to_ego_waypoint.s", "s", "s", "geometry.to_ego_waypoint"),
    ("geometry.to_ego_waypoint.calls", "count", "calls", "geometry.to_ego_waypoint"),
    ("sampling.build_clip_samples.s", "s", "s", "sampling.build_clip_samples"),
    ("sampling.draws", "count", "count", "sampling.draws"),
    ("sampling.samples", "count", "count", "sampling.samples"),
    ("metrics.evaluate.s", "s", "s", "metrics.evaluate"),
    ("metrics.evaluate.records", "count", "count", "metrics.evaluate.records"),
    ("metrics.discrete_frechet.s", "s", "s", "metrics.discrete_frechet"),
    ("metrics.discrete_frechet.calls", "count", "calls", "metrics.discrete_frechet"),
    ("metrics.frechet_cells", "count", "count", "metrics.frechet_cells"),
]
LAYER_DERIVED = [
    ("filters.accept_ratio", "ratio"),
    ("sampling.yield", "ratio"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
] + [(f"stage.{name}", "1/s") for _, name, _ in STAGE_THROUGHPUT]
PER_LAYER = [(name, unit) for name, unit, _, _ in LAYER_SPANS] + LAYER_DERIVED


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Ledger:
    """Stage runs and output checks attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


class Workdir:
    """The run's scratch directory inside the checkout, removed on exit."""

    def __init__(self, workload: str, seed: int):
        self.path = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def calibration_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Scale factors to the reference speed, from the loop timed around each interval."""

    def __init__(self):
        self.before = calibration_s()

    def after_interval(self) -> float:
        after = calibration_s()
        scale = CAL_REF_S / ((self.before + after) / 2.0)
        self.before = after
        return scale


def set_up(workload, seed, workdir, runner, ledger, repeats=1):
    """Build the inputs `repeats` times; return (plan, [(seconds, speed scale)], eval oracle)."""
    timed, trees = [], []
    speed = HostSpeed()
    for _ in range(repeats):
        start = time.perf_counter()
        plan = st.build_inputs(workload, seed, workdir, runner)
        elapsed = time.perf_counter() - start
        timed.append((elapsed, speed.after_interval()))
        trees.append(checks.digests(workdir / "in"))
    ledger.record("inputs identical across set-ups", [] if all(t == trees[0] for t in trees) else ["differ"])
    oracle = checks.eval_oracle(workdir / st.PREDICTIONS) if "eval" in workload.stages else None
    return plan, timed, oracle


def run_checked_pass(workload, seed, workdir, runner, plan, oracle, ledger, digests_seen):
    runs = st.run_pass(workload, seed, workdir, runner)
    by_stage = {r.stage: r for r in runs}
    for stage in workload.stages:
        run = by_stage.get(stage)
        if run is None:
            ledger.record(f"stage {stage}", ["not run after an earlier failure"])
        else:
            ledger.record(f"stage {stage}", [] if run.rc == 0 else [f"exit {run.rc}: {run.stderr.strip()[:300]}"])
    if len(runs) == len(workload.stages) and all(r.rc == 0 for r in runs):
        for name, problems in checks.check_pass(workdir, workload, plan, oracle).items():
            ledger.record(f"check {name}", problems)
        digests_seen.append(checks.digests(workdir / "out"))
    return runs


def stage_items(workload, plan, workdir, stage):
    if stage in ("segment", "filter"):
        return plan.poses
    if stage == "samples":
        return json.loads((workdir / f"{st.SAMPLES}.manifest.json").read_text())["counts"]["samples"]
    return workload.n_records


def throughputs(workload, plan, workdir, runs) -> dict[str, float]:
    names = {stage: name for stage, name, _ in STAGE_THROUGHPUT}
    return {names[r.stage]: stage_items(workload, plan, workdir, r.stage) / r.wall_s for r in runs if r.rc == 0}


def measure(workload, seed, seconds, workdir, ledger, digests_seen):
    runner = st.SubprocessRunner()
    plan, setups, oracle = set_up(workload, seed, workdir, runner, ledger, repeats=SETUP_REPEATS)
    series: dict[str, list[float]] = {
        "setup_s": [seconds * scale for seconds, scale in setups],
        "setup_raw_s": [seconds for seconds, _ in setups],
    }
    run_checked_pass(workload, seed, workdir, runner, plan, oracle, ledger, digests_seen)  # warm-up
    speed = HostSpeed()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        runs = run_checked_pass(workload, seed, workdir, runner, plan, oracle, ledger, digests_seen)
        passes += 1
        scale = speed.after_interval()
        wall = sum(r.wall_s for r in runs)
        cpu = sum(r.cpu_s for r in runs)
        values = {
            "wall_ref_s": wall * scale,
            "cpu_ref_s": cpu * scale,
            "peak_rss_mb": max(r.maxrss_mb for r in runs),
            "wall_s": wall,
            "cpu_s": cpu,
            "host_speed": scale,
            **throughputs(workload, plan, workdir, runs),
        }
        for key, value in values.items():
            series.setdefault(key, []).append(value)
    return series, passes


def layer_values(summary: dict, counts: dict) -> dict[str, float]:
    values = {}
    for metric, _, kind, source in LAYER_SPANS:
        values[metric] = float(counts.get(source, 0.0) if kind == "count" else summary.get(source, {}).get(kind, 0.0))
    clips = values["filters.run_filters.clips"]
    values["filters.accept_ratio"] = counts.get("filters.accepted", 0.0) / clips if clips else 0.0
    draws = values["sampling.draws"]
    values["sampling.yield"] = values["sampling.samples"] / draws if draws else 0.0
    return values


def trace(workload, seed, seconds, workdir, ledger, digests_seen):
    sys.path.insert(0, str(st.SRC))
    plan, _, oracle = set_up(workload, seed, workdir, st.SubprocessRunner(), ledger)
    tracer = spans.Tracer()
    plain = st.InProcessRunner()
    traced = st.InProcessRunner(on_stage=lambda stage, call: tracer.span(f"stage.{stage}", call))
    run_checked_pass(workload, seed, workdir, plain, plan, oracle, ledger, digests_seen)  # warm-up
    untraced_walls, traced_walls = [], []
    series: dict[str, list[float]] = {}
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        runs = run_checked_pass(workload, seed, workdir, plain, plan, oracle, ledger, digests_seen)
        untraced_walls.append(sum(r.wall_s for r in runs))
        for key, value in throughputs(workload, plan, workdir, runs).items():
            series.setdefault(f"stage.{key}", []).append(value)
        tracer.run = len(traced_walls)
        tracer.counts.clear()
        with tracer.installed():
            runs = run_checked_pass(workload, seed, workdir, traced, plan, oracle, ledger, digests_seen)
        traced_walls.append(sum(r.wall_s for r in runs))
        for key, value in layer_values(spans.summarize(tracer.spans).get(tracer.run, {}), tracer.counts).items():
            series.setdefault(key, []).append(value)
    series["trace.overhead_s"] = [median(traced_walls) - median(untraced_walls)]
    series["cli.import_s"] = [st.import_seconds()]
    tracer.write(WORK / "traces" / f"{workload.name}.jsonl")
    return series, len(traced_walls)


def environment() -> dict:
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[name] = subprocess.run(["getconf", name], capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            caches[name] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": caches,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def report(workload, seed, args, series, passes, ledger, digests_seen) -> dict:
    counted = "untraced+traced pass pairs" if args.trace else "timed passes"
    print(f"navcurate benchmark: workload={workload.name} seed={seed} trace={args.trace} "
          f"{counted}={passes} (+1 warm-up) seconds={args.seconds} workers={workload.workers}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    table = END_TO_END + UNSCALED + [(n, u) for _, n, u in STAGE_THROUGHPUT] if not args.trace else PER_LAYER
    print(f"{'metric':42} {'median':>14} {'q1':>14} {'q3':>14}  unit      n")
    for name, unit in table:
        values = series.get(name, [])
        if not values:
            print(f"{name:42} {'n/a':>14}")
            continue
        q1, q3 = quartiles(values)
        print(f"{name:42} {median(values):14.6g} {q1:14.6g} {q3:14.6g}  {unit:8} {len(values)}")
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{'failed_share':42} {share:14.6g}  ({ledger.failed} failed of {ledger.attempted} stage runs and checks)")
    for problem in ledger.problems[:10]:
        print(f"problem: {problem}")
    if digests_seen:
        print("output sha256: " + json.dumps(digests_seen[-1], sort_keys=True))
        digest_file = WORK / "digests" / f"{workload.name}-seed{seed}.json"
        digest_file.parent.mkdir(parents=True, exist_ok=True)
        digest_file.write_text(json.dumps(digests_seen[-1], indent=2, sort_keys=True) + "\n", encoding="utf-8")
    names = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": median(series.get(name, [])), "unit": unit} for name, unit in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (st.SRC / "navcurate" / "cli.py").is_file():
        print(f"error: no navcurate sources under {st.SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    ledger = Ledger()
    digests_seen: list[dict] = []
    try:
        with Workdir(workload.name, args.seed) as workdir:
            measure_fn = trace if args.trace else measure
            series, passes = measure_fn(workload, args.seed, args.seconds, workdir, ledger, digests_seen)
    except st.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ledger.record("outputs identical across passes" + (" traced and untraced" if args.trace else ""),
                  [] if digests_seen and all(d == digests_seen[0] for d in digests_seen) else ["differ"])
    result = report(workload, args.seed, args, series, passes, ledger, digests_seen)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
