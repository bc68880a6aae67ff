"""Peak memory, wall and CPU time of `navcurate synth` on a long arc.

    python3 tools/synth_scale_probe.py --poses 1080000 --workers 2 --max-rss-mb 350

Writes an arc spec of N poses at 30 fps (1,080,000 poses is 10 h), runs
`python -m navcurate.cli synth` on it as its own process with the sources
under src/ of this checkout, and prints one JSON line: {"poses",
"workers", "wall_s", "cpu_s", "peak_rss_mb", "sha256"}, where sha256 is
the pose file's. CPU time (user + system) and peak RSS are from os.wait4:
the CPU time of the stage and its reaped pool workers, and the peak RSS of
the largest of those processes. A child inherits its parent's RSS
high-water mark across fork and exec, so this script imports nothing
heavier than the stdlib. It exits 1 when synth fails or its peak RSS
exceeds --max-rss-mb.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FPS = 30.0


def run_synth(workdir: Path, workers: int) -> tuple[int, float, float, float, str]:
    """(exit code, wall seconds, CPU seconds, peak RSS in MB, stderr) of one synth process run in workdir."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "navcurate.cli", "synth", "--spec", "spec.json", "--out", "out",
            "--workers", str(workers)]
    with open(workdir / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss / 1024.0, stderr


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--poses", type=int, default=1_080_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--max-rss-mb", type=float, default=None, help="exit 1 when synth's peak RSS is above this")
    parser.add_argument("--workdir", default=None, help="keep the spec and outputs here (default: a removed temp dir)")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="synth_probe_"))
    workdir.mkdir(parents=True, exist_ok=True)
    spec = {"trajectory": {"kind": "arc", "duration_s": args.poses / FPS, "fps": FPS, "traj_id": "arc"}}
    try:
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        rc, wall, cpu, peak, stderr = run_synth(workdir, args.workers)
        if rc != 0:
            print(f"synth exited {rc}: {stderr.strip()}", file=sys.stderr)
            return 1
        poses = json.loads((workdir / "out" / "manifest.json").read_text(encoding="utf-8"))["counts"]["poses"]
        print(json.dumps({"poses": poses, "workers": args.workers, "wall_s": round(wall, 3), "cpu_s": round(cpu, 3),
                          "peak_rss_mb": round(peak, 1), "sha256": file_sha256(workdir / "out" / "arc.txt")}))
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(f"peak RSS {peak:.1f} MB is above --max-rss-mb {args.max_rss_mb}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
