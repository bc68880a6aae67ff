"""Output checks for every pass, and an independent numpy oracle for `eval`.

Each check returns a list of problems; an empty list is a pass. The
checks read the stage outputs as plain JSON and never import navcurate,
so a defect in the program's parsers cannot hide itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

import stages as st
import workloads as wl

ZERO_STEP = 1e-9  # the metric definition: shorter steps have no direction
ARRIVAL_THRESHOLD = 0.5
REL_TOL = 1e-9  # the oracle sums in another order than the program


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, keyed by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_segment(workdir: Path, workload: wl.Workload, plan: wl.Plan) -> list[str]:
    manifest = _load(workdir / st.CLIPS / "manifest.json")
    problems = []
    ids = [c["clip_id"] for c in manifest["clips"]]
    if ids != sorted(plan.expected_reasons):
        problems.append(f"segment: clip ids {ids[:3]}... differ from the {workload.n_clips} planned clips")
    if any(c["n_frames"] != wl.CLIP_FRAMES for c in manifest["clips"]):
        problems.append(f"segment: a clip does not have {wl.CLIP_FRAMES} frames")
    if manifest["counts"] != {"poses_in": plan.poses, "clips_out": workload.n_clips}:
        problems.append(f"segment: counts {manifest['counts']} != {plan.poses} poses, {workload.n_clips} clips")
    for c in manifest["clips"]:
        if not (workdir / st.CLIPS / c["file"]).is_file():
            problems.append(f"segment: clip file {c['file']} missing")
    return problems


def check_filter(workdir: Path, workload: wl.Workload, plan: wl.Plan) -> list[str]:
    report = _load(workdir / st.REPORT)
    problems = []
    got = {v["clip_id"]: tuple(v["reasons"]) for v in report["verdicts"]}
    if got != plan.expected_reasons:
        wrong = sorted(cid for cid in set(got) | set(plan.expected_reasons)
                       if got.get(cid) != plan.expected_reasons.get(cid))
        problems.append(f"filter: verdicts differ from the planted ones for {wrong}")
    if any(v["accepted"] != (not v["reasons"]) for v in report["verdicts"]):
        problems.append("filter: a verdict's accepted flag contradicts its reasons")
    accepted = (workdir / f"{st.REPORT}.accepted").read_text(encoding="utf-8").split()
    if accepted != plan.accepted:
        problems.append(f"filter: accepted list has {len(accepted)} ids, planted {len(plan.accepted)}")
    if report["counts"]["accepted"] != len(plan.accepted):
        problems.append("filter: report count of accepted clips is wrong")
    return problems


def check_samples(workdir: Path, workload: wl.Workload, plan: wl.Plan) -> list[str]:
    manifest = _load(workdir / f"{st.SAMPLES}.manifest.json")
    counts = manifest["counts"]
    skipped = counts["skipped_landmark_draws"]
    lines = (workdir / st.SAMPLES).read_text(encoding="utf-8").splitlines()
    problems = []
    if len(lines) != counts["samples"]:
        problems.append(f"samples: {len(lines)} lines but the manifest counts {counts['samples']}")
    landmarks = workload.landmarks_per_clip * workload.n_clips
    if counts["landmarks_in"] != landmarks:
        problems.append(f"samples: landmarks_in {counts['landmarks_in']} != {landmarks}")
    # The manifest counts goal_out_of_bounds, unknown_clip and rejected_clip
    # once per landmark, the other skips once per draw.
    per_landmark = skipped["goal_out_of_bounds"] + skipped["unknown_clip"] + skipped["rejected_clip"]
    per_draw = skipped["infeasible"] + skipped["out_of_bounds"] + skipped["gimbal_degenerate"]
    if len(lines) + per_draw + per_landmark * workload.draws != landmarks * workload.draws:
        problems.append(f"samples: {len(lines)} samples and skips {skipped} do not add up to "
                        f"{landmarks} landmarks x {workload.draws} draws")
    rejected = workload.n_clips - len(plan.accepted)
    if skipped["rejected_clip"] != rejected * workload.landmarks_per_clip or skipped["unknown_clip"]:
        problems.append(f"samples: rejected_clip {skipped['rejected_clip']} != "
                        f"{rejected} clips x {workload.landmarks_per_clip} landmarks")
    accepted = set(plan.accepted)
    for line in lines:
        record = json.loads(line)
        if record["clip_id"] not in accepted or len(record["waypoints"]) != wl.SAMPLE_HORIZON:
            problems.append(f"samples: bad record {record['sample_id']}")
            break
    return problems


# ---------------------------------------------------------------------------
# eval oracle
# ---------------------------------------------------------------------------

def brute_force_frechet(dist: np.ndarray) -> float:
    """min over every monotone coupling of the max distance on it; exponential, small grids only."""
    n, m = dist.shape
    best = math.inf
    # A coupling is an order of n-1 down steps and m-1 right steps, each
    # optionally fused into a diagonal step.
    for diagonals in range(min(n, m)):
        downs, rights = n - 1 - diagonals, m - 1 - diagonals
        for order in set(itertools.permutations("d" * downs + "r" * rights + "x" * diagonals)):
            i = j = 0
            worst = dist[0, 0]
            for step in order:
                i += step in "dx"
                j += step in "rx"
                worst = max(worst, dist[i, j])
            best = min(best, worst)
    return float(best)


def _reachable(ok: np.ndarray) -> np.ndarray:
    """Per record: does a monotone coupling stay inside ok (N, n, m) from (0, 0) to (n-1, m-1)?"""
    _, n, m = ok.shape
    reach = np.zeros_like(ok)
    reach[:, 0, 0] = ok[:, 0, 0]
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            prev = np.zeros(ok.shape[0], dtype=bool)
            if i:
                prev |= reach[:, i - 1, j]
            if j:
                prev |= reach[:, i, j - 1]
            if i and j:
                prev |= reach[:, i - 1, j - 1]
            reach[:, i, j] = ok[:, i, j] & prev
    return reach[:, n - 1, m - 1]


def frechet_by_decision(dist: np.ndarray) -> np.ndarray:
    """Discrete Frechet distance of N grids (N, n, m) by binary search over the critical values.

    The distance is the smallest pairwise distance eps for which a monotone
    coupling stays within eps; this finds it by decision queries instead of
    the min/max recurrence the program uses.
    """
    count = dist.shape[0]
    candidates = np.sort(dist.reshape(count, -1), axis=1)
    rows = np.arange(count)
    lo = np.zeros(count, dtype=int)
    hi = np.full(count, candidates.shape[1] - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        feasible = _reachable(dist <= candidates[rows, mid][:, None, None])
        hi = np.where(feasible, mid, hi)
        lo = np.where(feasible, lo, mid + 1)
    return candidates[rows, lo]


def eval_oracle(predictions: Path) -> dict:
    """The `eval` report's metrics, recomputed from the prediction file alone."""
    groups: dict[int, tuple[list, list]] = {}
    arrival_calls = []
    n_records = 0
    for line in predictions.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        n_records += 1
        pred, gt = groups.setdefault(len(record["predicted"]), ([], []))
        pred.append(record["predicted"])
        gt.append(record["ground_truth"])
        pa, label = record["predicted_arrival"], record["arrival_label"]
        if pa is not None and label is not None:
            arrival_calls.append((pa >= ARRIVAL_THRESHOLD) == label)
    ade, made, aoe, maoe = [], [], [], []
    for k, (pred, gt) in sorted(groups.items()):
        p = np.asarray(pred, dtype=float)
        g = np.asarray(gt, dtype=float)
        ade.append(np.linalg.norm(p - g, axis=2).mean(axis=1))
        origin = np.zeros((p.shape[0], 1, 2))
        pp = np.concatenate([origin, p], axis=1)
        gg = np.concatenate([origin, g], axis=1)
        dist = np.linalg.norm(pp[:, :, None, :] - gg[:, None, :, :], axis=3)
        made.append(frechet_by_decision(dist))
        if k == 1:
            brute = np.array([brute_force_frechet(d) for d in dist])
            if not np.array_equal(brute, made[-1]):
                raise AssertionError("oracle self-check: decision search disagrees with brute force at k=1")
        sp = np.diff(pp, axis=1)
        sg = np.diff(gg, axis=1)
        zp = sp[..., 0] + 1j * sp[..., 1]
        zg = sg[..., 0] + 1j * sg[..., 1]
        defined = (np.abs(zp) >= ZERO_STEP) & (np.abs(zg) >= ZERO_STEP)
        angle = np.degrees(np.abs(np.angle(zg * np.conj(zp))))
        scored = defined.any(axis=1)
        for a, d in zip(angle[scored], defined[scored]):
            aoe.append(a[d].mean())
            maoe.append(a[d].max())
    ade_all = np.concatenate(ade)
    made_all = np.concatenate(made)
    return {
        "n_samples": n_records,
        "ade_m": float(ade_all.mean()),
        "made_m": float(made_all.mean()),
        "aoe_deg": float(np.mean(aoe)) if aoe else None,
        "maoe_deg": float(np.mean(maoe)) if maoe else None,
        "arrival_accuracy": float(np.mean(arrival_calls)) if arrival_calls else None,
        "n_orientation_excluded": n_records - len(aoe),
        "n_arrival_scored": len(arrival_calls),
    }


def check_eval(workdir: Path, oracle: dict) -> list[str]:
    got = _load(workdir / st.METRICS)["metrics"]
    problems = []
    for key, want in oracle.items():
        have = got.get(key)
        if isinstance(want, int) or want is None or have is None:
            same = have == want
        else:
            same = math.isclose(have, want, rel_tol=REL_TOL, abs_tol=1e-12)
        if not same:
            problems.append(f"eval: {key} = {have!r}, oracle {want!r}")
    if set(got) != set(oracle):
        problems.append(f"eval: metric keys {sorted(got)} != {sorted(oracle)}")
    return problems


def check_pass(workdir: Path, workload: wl.Workload, plan: wl.Plan, oracle: dict | None) -> dict[str, list[str]]:
    """Every output check for one completed pass, by name."""
    checkers = {
        "segment": lambda: check_segment(workdir, workload, plan),
        "filter": lambda: check_filter(workdir, workload, plan),
        "samples": lambda: check_samples(workdir, workload, plan),
        "eval": lambda: check_eval(workdir, oracle),
    }
    return {stage: checkers[stage]() for stage in workload.stages}
