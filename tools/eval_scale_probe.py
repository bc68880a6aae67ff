"""Peak memory, wall and CPU time of `navcurate eval` on a large generated prediction file.

    python3 tools/eval_scale_probe.py --records 200000 --max-rss-mb 200

Writes N horizon-8 prediction records (seeded, stdlib only) to a scratch
directory, runs `python -m navcurate.cli eval` on them as its own process
with the sources under src/ of this checkout, and prints one JSON line:
{"records", "wall_s", "cpu_s", "peak_rss_mb", "metrics_sha256"}. CPU
time (user + system) and peak RSS are the child's, from os.wait4. A
child inherits its parent's RSS high-water mark across fork and exec, so
this script imports nothing heavier than the stdlib. It exits 1 when the eval fails or its peak RSS
exceeds --max-rss-mb.
"""

from __future__ import annotations

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


def run_eval(workdir: Path) -> tuple[int, float, float, float, str]:
    """(exit code, wall seconds, CPU seconds, peak RSS in MB, stderr) of one eval process run in workdir."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    with open(workdir / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "navcurate.cli", "eval", "--pred", "predictions.jsonl", "--out", "metrics.json"],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss / 1024.0, stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-rss-mb", type=float, default=None, help="exit 1 when the eval's peak RSS is above this")
    parser.add_argument("--workdir", default=None, help="keep the inputs and outputs here (default: a removed temp dir)")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="eval_probe_"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        write_predictions(workdir / "predictions.jsonl", args.records, args.seed)
        rc, wall, cpu, peak, stderr = run_eval(workdir)
        if rc != 0:
            print(f"eval exited {rc}: {stderr.strip()}", file=sys.stderr)
            return 1
        digest = hashlib.sha256((workdir / "metrics.json").read_bytes()).hexdigest()
        print(json.dumps({"records": args.records, "wall_s": round(wall, 3), "cpu_s": round(cpu, 3), "peak_rss_mb": round(peak, 1),
                          "metrics_sha256": digest}))
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(f"peak RSS {peak:.1f} MB is above --max-rss-mb {args.max_rss_mb}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
