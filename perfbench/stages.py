"""Running navcurate stages: as CLI processes (timed) or in this process (traced).

Every stage runs with its work directory as the current directory and only
relative paths on its command line, so reports and manifests, which record
input paths, come out byte-identical in any checkout and on every pass.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread per process: numpy's BLAS pools would otherwise add threads
# beyond the two cores on top of the stage's own worker processes.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def stage_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NAVCURATE_WORKERS"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class StageRun:
    stage: str
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str = ""


class SubprocessRunner:
    """Runs `python -m navcurate.cli ARGV`, measuring wall, CPU and peak RSS.

    CPU and RSS come from wait4, so they cover the stage process and the
    pool workers it reaped.
    """

    def __init__(self):
        self.env = stage_env()

    def run(self, stage: str, argv: list[str], cwd: Path) -> StageRun:
        with open(cwd / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "navcurate.cli", *argv],
                cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return StageRun(stage, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                        stderr)


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class InProcessRunner:
    """Calls navcurate.cli.main in this process, so wrappers installed here see every call.

    Peak RSS is not per stage in this mode and is reported as 0.
    """

    def __init__(self, on_stage=None):
        import navcurate.cli

        self.cli = navcurate.cli
        self.on_stage = on_stage

    def run(self, stage: str, argv: list[str], cwd: Path) -> StageRun:
        cpu0 = _cpu_now()
        start = time.perf_counter()
        stderr = ""
        with _cwd(cwd):
            try:
                if self.on_stage is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.on_stage(stage, lambda: self.cli.main(argv))
            except SystemExit as exc:  # argparse rejects a command line by exiting
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught error is exit 1 for a CLI process; record it the same way
                rc, stderr = 1, traceback.format_exc()
        return StageRun(stage, rc, time.perf_counter() - start, _cpu_now() - cpu0, 0.0, stderr)


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of a bare interpreter importing navcurate.cli."""
    env = stage_env()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import navcurate.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


# ---------------------------------------------------------------------------
# Inputs and stage command lines
# ---------------------------------------------------------------------------

POSES = "in/synth/walk.txt"
LANDMARKS = "in/synth/landmarks.jsonl"
PREDICTIONS = "in/predictions.jsonl"
CLIPS = "out/clips"
REPORT = "out/report.json"
SAMPLES = "out/samples.jsonl"
METRICS = "out/metrics.json"


def detections_path(workload: wl.Workload) -> str:
    return "in/synth/detections.jsonl" if workload.background_detections else "in/detections.jsonl"


class SetupError(RuntimeError):
    pass


def _require(run: StageRun) -> None:
    if run.rc != 0:
        raise SetupError(f"set-up stage {run.stage} exited {run.rc}: {run.stderr.strip()}")


def _synth(workload: wl.Workload, seed: int, directory: str, workdir: Path, runner) -> wl.Plan:
    plan = wl.make_plan(workload, seed)
    (workdir / directory).mkdir(parents=True, exist_ok=True)
    (workdir / directory / "spec.json").write_text(json.dumps(wl.synth_spec(workload, seed, plan)), encoding="utf-8")
    _require(runner.run("synth", ["synth", "--spec", f"{directory}/spec.json", "--out", f"{directory}/synth"],
                        workdir))
    return plan


def _write_predictions(workload: wl.Workload, seed: int, workdir: Path, runner) -> None:
    """Prediction records from the horizon-32 samples of a small stream of their own."""
    source = wl.PREDICTION_SOURCE
    plan = _synth(source, seed, "in/pred", workdir, runner)
    _require(runner.run("segment", ["segment", "--input", "in/pred/synth/walk.txt", "--fps", str(wl.FPS),
                                    "--clip-seconds", str(wl.CLIP_SECONDS), "--out", "in/pred/clips"], workdir))
    (workdir / "in/pred/accepted").write_text("".join(f"{cid}\n" for cid in plan.accepted), encoding="utf-8")
    _require(runner.run("samples", ["samples", "--clips", "in/pred/clips", "--landmarks", "in/pred/synth/landmarks.jsonl",
                                    "--accepted", "in/pred/accepted", "--out", "in/pred/samples.jsonl",
                                    "--seed", str(seed), "--world-up=-y", "--horizon", str(wl.SOURCE_HORIZON),
                                    "--draws-per-landmark", str(source.draws), "--workers", "1"], workdir))
    wl.write_predictions(workload, seed, workdir / "in/pred/samples.jsonl", workdir / PREDICTIONS)


def build_inputs(workload: wl.Workload, seed: int, workdir: Path, runner: SubprocessRunner) -> wl.Plan:
    """Write the workload's inputs under workdir/in, calling the CLI where the program makes them."""
    shutil.rmtree(workdir / "in", ignore_errors=True)
    plan = _synth(workload, seed, "in", workdir, runner)
    if not workload.background_detections:
        wl.write_sparse_detections(plan, workdir / detections_path(workload))
    if "eval" in workload.stages:
        _write_predictions(workload, seed, workdir, runner)
    return plan


def stage_commands(workload: wl.Workload, seed: int) -> list[tuple[str, list[str]]]:
    workers = ["--workers", str(workload.workers)]
    commands = {
        "segment": ["segment", "--input", POSES, "--fps", str(wl.FPS), "--clip-seconds", str(wl.CLIP_SECONDS),
                    "--out", CLIPS],
        "filter": ["filter", "--clips", CLIPS, "--detections", detections_path(workload), "--report", REPORT,
                   "--world-up=-y", *workers],
        "samples": ["samples", "--clips", CLIPS, "--landmarks", LANDMARKS, "--accepted", f"{REPORT}.accepted",
                    "--out", SAMPLES, "--seed", str(seed), "--world-up=-y",
                    "--draws-per-landmark", str(workload.draws), *workers],
        "eval": ["eval", "--pred", PREDICTIONS, "--out", METRICS],
    }
    return [(stage, commands[stage]) for stage in workload.stages]


def run_pass(workload: wl.Workload, seed: int, workdir: Path, runner) -> list[StageRun]:
    """One closed-loop pass: each stage starts after the previous one exits; stops at the first failure."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "out").mkdir()
    runs = []
    for stage, argv in stage_commands(workload, seed):
        runs.append(runner.run(stage, argv, workdir))
        if runs[-1].rc != 0:
            break
    return runs

