"""Self-test of the benchmark's checker: planted corruptions must each be flagged.

    python3 perfbench/selftest.py

Builds a small corpus-eval workload, runs its stages through the CLI, and asserts
that the clean outputs pass every check and that each corruption (one
metric changed in metrics.json, one sample line dropped, one filter
verdict flipped) fails the check that owns it. It also checks the Frechet
oracle against brute-force enumeration and BENCHMARK.json against the
metric tables in run.py. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
import stages as st
import workloads as wl


def _expect(label: str, problems: list[str], flagged: bool, failures: list[str]) -> None:
    ok = bool(problems) == flagged
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[:1] if problems else 'no problems'}")
    if not ok:
        failures.append(label)


def corrupt_outputs(workdir: Path, failures: list[str]) -> None:
    workload = dataclasses.replace(wl.WORKLOADS["corpus-eval"], n_clips=6, landmarks_per_clip=3, draws=2,
                                   n_records=300)
    runner = st.SubprocessRunner()
    plan = st.build_inputs(workload, 7, workdir, runner)
    runs = st.run_pass(workload, 7, workdir, runner)
    if any(r.rc != 0 for r in runs) or len(runs) != len(workload.stages):
        failures.append(f"a stage failed: {[(r.stage, r.rc, r.stderr) for r in runs]}")
        return
    oracle = checks.eval_oracle(workdir / st.PREDICTIONS)
    for name, problems in checks.check_pass(workdir, workload, plan, oracle).items():
        _expect(f"clean {name} output passes", problems, False, failures)

    samples = workdir / st.SAMPLES
    original = samples.read_text(encoding="utf-8")
    samples.write_text("".join(original.splitlines(keepends=True)[:-1]), encoding="utf-8")
    _expect("dropped sample line is flagged", checks.check_samples(workdir, workload, plan), True, failures)
    samples.write_text(original, encoding="utf-8")

    report_path = workdir / st.REPORT
    original = report_path.read_text(encoding="utf-8")
    report = json.loads(original)
    verdict = next(v for v in report["verdicts"] if not v["accepted"])
    verdict["accepted"], verdict["reasons"] = True, []
    report_path.write_text(json.dumps(report), encoding="utf-8")
    _expect("flipped verdict is flagged", checks.check_filter(workdir, workload, plan), True, failures)
    report_path.write_text(original, encoding="utf-8")

    metrics_path = workdir / st.METRICS
    report = json.loads(metrics_path.read_text(encoding="utf-8"))
    report["metrics"]["made_m"] *= 1.0 + 1e-6
    metrics_path.write_text(json.dumps(report), encoding="utf-8")
    _expect("corrupted metric is flagged", checks.check_eval(workdir, oracle), True, failures)


def oracle_matches_brute_force(failures: list[str]) -> None:
    rng = np.random.default_rng(0)
    bad = 0
    for _ in range(200):
        n, m = rng.integers(1, 6, size=2)
        dist = rng.random((1, n, m))
        if checks.frechet_by_decision(dist)[0] != checks.brute_force_frechet(dist[0]):
            bad += 1
    _expect("Frechet decision search equals brute force on 200 random grids",
            [f"{bad} mismatches"] if bad else [], False, failures)


def benchmark_json_matches_tables(failures: list[str]) -> None:
    spec = json.loads((st.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        problems.append("end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != run.PER_LAYER:
        problems.append("per_layer differs from run.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        problems.append("workloads differ from workloads.WORKLOADS")
    _expect("BENCHMARK.json names the metrics and workloads run.py reports", problems, False, failures)


def main() -> int:
    failures: list[str] = []
    run.WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        corrupt_outputs(workdir, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    oracle_matches_brute_force(failures)
    benchmark_json_matches_tables(failures)
    print("self-test " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
