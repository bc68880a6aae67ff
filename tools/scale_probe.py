"""Peak memory, wall and CPU time of one navcurate stage on a large generated input.

    python3 tools/scale_probe.py eval --records 200000 --max-rss-mb 125
    python3 tools/scale_probe.py synth --poses 1080000 --max-rss-mb 300
    python3 tools/scale_probe.py segment --poses 1080000 --workers 2 --max-rss-mb 260
    python3 tools/scale_probe.py samples --poses 1080000 --workers 2
    python3 tools/scale_probe.py filter --poses 216000 --workers 2

Writes the stage's input to a scratch directory (eval: N seeded horizon-8
prediction records; synth: an arc spec of N poses at 30 fps, so 1,080,000 poses
is 10 h, with one detection record per pose of 0-3 person boxes, drawn with a
seeded schedule; segment: that arc's pose stream without detections, written by
`synth` run as its own process; samples: that arc with --per-clip synth landmarks
on each clip, cut by `segment` run as its own process, and an accepted list of
every clip id in the clip manifest; filter: that arc with synth's seeded
detections, cut by `segment`), runs
`python -m navcurate.cli <stage>` on it as its own process with the sources
under src/ of this checkout, and prints one JSON line: the
input size, wall_s, cpu_s, peak_rss_mb and the sha256 of the stage's output
(for segment, of the clip manifest, after the clip count; for samples, of
samples.jsonl, after the clip, landmark and sample counts; for filter, of
report.json, after the clip and accepted-clip counts). CPU time
(user + system) and peak RSS are from os.wait4: the CPU time of the stage and
its reaped pool workers, and the peak RSS of the largest of those processes. A
child inherits its parent's RSS high-water mark across fork and exec, so this
script imports nothing heavier than the stdlib. It exits 1 when the stage fails
or its peak RSS exceeds --max-rss-mb.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HORIZON = 8
FPS = 30.0
CLIP_SECONDS = 120.0  # 3,600 poses per clip
SEED = 1  # of eval's prediction records, of samples' synth landmarks and draws, and of synth's and filter's box counts


def write_predictions(path: Path, n: int, seed: int) -> None:
    """n horizon-8 records: a noisy walk ahead, some all-zero predictions and null arrival fields."""
    rng = random.Random(seed)
    pair = "[%r,%r]"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            x = y = 0.0
            gt = []
            for _ in range(HORIZON):
                x += rng.uniform(0.2, 1.2)
                y += rng.uniform(-0.3, 0.3)
                gt.append((x, y))
            if rng.random() < 0.03:
                pred = [(0.0, 0.0)] * HORIZON
            else:
                pred = [(gx + rng.gauss(0.0, 0.2), gy + rng.gauss(0.0, 0.2)) for gx, gy in gt]
            arrival = "null" if rng.random() < 0.2 else repr(rng.random())
            label = "null" if rng.random() < 0.1 else ("true" if rng.random() < 0.5 else "false")
            fh.write(
                f'{{"sample_id":"probe:{i:07d}","predicted":[{",".join(pair % p for p in pred)}],'
                f'"ground_truth":[{",".join(pair % g for g in gt)}],'
                f'"predicted_arrival":{arrival},"arrival_label":{label}}}\n'
            )


def prepare_eval(args, workdir: Path) -> list[str]:
    write_predictions(workdir / "predictions.jsonl", args.records, SEED)
    return ["eval", "--pred", "predictions.jsonl", "--out", "metrics.json"]


def report_eval(args, workdir: Path, usage: dict) -> dict:
    return {"records": args.records, **usage, "metrics_sha256": file_sha256(workdir / "metrics.json")}


def box_schedule(poses: int) -> list[int]:
    """A seeded count of 0 to 3 person boxes for each pose, like curate-long's detections: never a crowd."""
    rng = random.Random(SEED)
    return [rng.randrange(4) for _ in range(poses)]


def prepare_synth(args, workdir: Path, **blocks) -> list[str]:
    """synth of the arc, with the spec's landmarks or detections block if given."""
    spec = {"trajectory": {"kind": "arc", "duration_s": args.poses / FPS, "fps": FPS, "traj_id": "arc"}, **blocks}
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return ["synth", "--spec", "spec.json", "--out", "out"]


def prepare_synth_detections(args, workdir: Path) -> list[str]:
    """synth of the arc with one detection record per pose (see box_schedule)."""
    return prepare_synth(args, workdir, detections={"schedule": box_schedule(args.poses)})


def report_synth(args, workdir: Path, usage: dict) -> dict:
    poses = json.loads((workdir / "out" / "manifest.json").read_text(encoding="utf-8"))["counts"]["poses"]
    return {"poses": poses, **usage, "sha256": file_sha256(workdir / "out" / "arc.txt")}


def run_before(workdir: Path, stage_argv: list[str]) -> None:
    """Run a stage that writes the probed stage's input; exit when it fails."""
    rc = run_stage(workdir, stage_argv)[0]
    if rc != 0:
        stderr = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        raise SystemExit(f"{stage_argv[0]} exited {rc}: {stderr}")


def prepare_segment(args, workdir: Path, **blocks) -> list[str]:
    run_before(workdir, prepare_synth(args, workdir, **blocks))
    return ["segment", "--input", "out/arc.txt", "--fps", str(FPS), "--clip-seconds", str(CLIP_SECONDS),
            "--out", "clips", "--workers", str(args.workers)]


def report_segment(args, workdir: Path, usage: dict) -> dict:
    counts = json.loads((workdir / "clips" / "manifest.json").read_text(encoding="utf-8"))["counts"]
    return {"poses": counts["poses_in"], "clips": counts["clips_out"], "workers": args.workers, **usage,
            "manifest_sha256": file_sha256(workdir / "clips" / "manifest.json")}


def prepare_samples(args, workdir: Path) -> list[str]:
    run_before(workdir, prepare_segment(args, workdir, landmarks={"clip_seconds": CLIP_SECONDS,
                                                                  "per_clip": args.per_clip, "seed": SEED}))
    manifest = json.loads((workdir / "clips" / "manifest.json").read_text(encoding="utf-8"))
    (workdir / "accepted.txt").write_text("".join(f"{clip['clip_id']}\n" for clip in manifest["clips"]),
                                          encoding="utf-8")
    return ["samples", "--clips", "clips", "--landmarks", "out/landmarks.jsonl", "--accepted", "accepted.txt",
            "--out", "samples.jsonl", "--draws-per-landmark", str(args.draws), "--seed", str(SEED),
            "--workers", str(args.workers)]


def report_samples(args, workdir: Path, usage: dict) -> dict:
    counts = json.loads((workdir / "samples.jsonl.manifest.json").read_text(encoding="utf-8"))["counts"]
    return {"poses": args.poses, "clips": counts["clips_in"], "landmarks": counts["landmarks_in"],
            "samples": counts["samples"], "workers": args.workers, **usage,
            "sha256": file_sha256(workdir / "samples.jsonl")}


def prepare_filter(args, workdir: Path) -> list[str]:
    run_before(workdir, prepare_segment(args, workdir, detections={"schedule": box_schedule(args.poses)}))
    # synth's clips look along +z with -y up.
    return ["filter", "--clips", "clips", "--detections", "out/detections.jsonl", "--report", "report.json",
            "--world-up=-y", "--workers", str(args.workers)]


def report_filter(args, workdir: Path, usage: dict) -> dict:
    counts = json.loads((workdir / "report.json").read_text(encoding="utf-8"))["counts"]
    return {"poses": args.poses, "clips": counts["clips_in"], "accepted": counts["accepted"], "workers": args.workers,
            **usage, "sha256": file_sha256(workdir / "report.json")}


def run_stage(workdir: Path, stage_argv: list[str]) -> tuple[int, float, float, float]:
    """(exit code, wall seconds, CPU seconds, peak RSS in MB) of one stage run in workdir, stderr to stderr.txt."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "navcurate.cli", *stage_argv], cwd=workdir, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-rss-mb", type=float, default=None, help="exit 1 when the stage's peak RSS is above this")
    common.add_argument("--workdir", default=None, help="keep the inputs and outputs here (default: a removed temp dir)")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    stages = parser.add_subparsers(dest="stage", required=True)
    eval_ = stages.add_parser("eval", parents=[common], help="eval on generated prediction records")
    eval_.add_argument("--records", type=int, default=200_000)
    eval_.set_defaults(prepare=prepare_eval, report=report_eval)
    synth = stages.add_parser("synth", parents=[common], help="synth of a long arc with a detection record per pose")
    synth.add_argument("--poses", type=int, default=1_080_000)
    synth.set_defaults(prepare=prepare_synth_detections, report=report_synth)
    segment = stages.add_parser("segment", parents=[common], help="segment of a long arc, which synth writes first")
    segment.add_argument("--poses", type=int, default=1_080_000)
    segment.add_argument("--workers", type=int, default=1)
    segment.set_defaults(prepare=prepare_segment, report=report_segment)
    samples = stages.add_parser("samples", parents=[common],
                                help="samples of a long arc with landmarks, which synth and segment write first")
    samples.add_argument("--poses", type=int, default=1_080_000)
    samples.add_argument("--per-clip", type=int, default=1000, help="synth landmarks per clip")
    samples.add_argument("--draws", type=int, default=4, help="draws per landmark")
    samples.add_argument("--workers", type=int, default=1)
    samples.set_defaults(prepare=prepare_samples, report=report_samples)
    filter_ = stages.add_parser("filter", parents=[common], help="filter of a long arc with a detection record per "
                                                                  "pose, which synth and segment write first")
    filter_.add_argument("--poses", type=int, default=1_080_000)
    filter_.add_argument("--workers", type=int, default=1)
    filter_.set_defaults(prepare=prepare_filter, report=report_filter)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix=f"{args.stage}_probe_"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rc, wall, cpu, peak = run_stage(workdir, args.prepare(args, workdir))
        if rc != 0:
            stderr = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            print(f"{args.stage} exited {rc}: {stderr.strip()}", file=sys.stderr)
            return 1
        usage = {"wall_s": round(wall, 3), "cpu_s": round(cpu, 3), "peak_rss_mb": round(peak, 1)}
        print(json.dumps(args.report(args, workdir, usage)))
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(f"peak RSS {peak:.1f} MB is above --max-rss-mb {args.max_rss_mb}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
