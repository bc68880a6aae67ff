"""Seeded inputs for the benchmark workloads, with verdicts planted by construction.

Every input is a pure function of (workload, seed). The synthetic stream is
a composite of one 120 s part per clip, so each clip covers exactly one part
and starts level: which clips the filter must reject, and why, follows from
the plan alone. Rejections are planted well clear of the default thresholds
(pitch range 15 deg, view/motion divergence 60 deg, more than 3 frames with
more than 5 persons) so that no verdict sits on a boundary.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FPS = 30.0
CLIP_SECONDS = 120.0
CLIP_FRAMES = 3600
TRAJ_ID = "walk"
SAMPLE_HORIZON = 8  # the sampler's default; the stage commands keep it

REASON_PITCH = "pitch_range"
REASON_DIVERGENCE = "view_divergence"
REASON_CROWD = "crowd_density"


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; sizes are fixed here, content follows the seed."""

    name: str
    stages: tuple[str, ...]
    workers: int
    n_clips: int
    planted_per_reason: int = 0
    background_detections: bool = False
    landmarks_per_clip: int = 0
    draws: int = 1
    n_records: int = 0
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="curate-long",
            stages=("segment", "filter", "samples"),
            workers=1,
            n_clips=20,
            planted_per_reason=2,
            background_detections=True,
            landmarks_per_clip=2,
            draws=1,
            why="long stream with one detection record per pose, one worker: pose writing, "
            "detection parsing, clip reloading and slice_detections dominate; sampling is negligible",
        ),
        Workload(
            name="corpus-eval",
            stages=("segment", "filter", "samples", "eval"),
            workers=2,
            n_clips=20,
            planted_per_reason=1,
            landmarks_per_clip=10,
            draws=20,
            n_records=5000,
            why="short stream, sparse detections, many landmark draws at two workers, then eval on mixed-horizon "
            "predictions: sampling, geometry, the pool and the metric kernels dominate",
        ),
    )
}

# The stream whose horizon-32 samples the prediction records are built from.
PREDICTION_SOURCE = Workload(name="prediction-source", stages=(), workers=1, n_clips=2, landmarks_per_clip=40,
                             draws=4)

# Prediction records: horizons and their shares, noise and special cases.
SOURCE_HORIZON = 32
HORIZON_MIX = ((8, 0.8), (32, 0.1), (1, 0.1))
ZERO_PRED_SHARE = 0.03  # predicted path is all zeros: every step undefined
REPEAT_STEP_SHARE = 0.05  # one repeated waypoint: one undefined step
NULL_PRED_ARRIVAL_SHARE = 0.2
NULL_LABEL_SHARE = 0.1


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


@dataclass(frozen=True)
class Plan:
    """The stream's parts plus the verdict each clip must get."""

    parts: list[dict]
    crowd_spans: list[tuple[int, int, int]]  # (source start frame, frames, persons)
    expected_reasons: dict[str, tuple[str, ...]]

    @property
    def accepted(self) -> list[str]:
        return sorted(cid for cid, reasons in self.expected_reasons.items() if not reasons)

    @property
    def poses(self) -> int:
        return len(self.parts) * CLIP_FRAMES


def clip_id(index: int) -> str:
    return f"{TRAJ_ID}_{index:04d}"


def make_plan(workload: Workload, seed: int) -> Plan:
    rng = _rng(workload, seed)
    n = workload.n_clips
    planted = rng.permutation(n)[: 3 * workload.planted_per_reason]
    k = workload.planted_per_reason
    pitch_clips = set(planted[:k].tolist())
    turn_clips = set(planted[k : 2 * k].tolist())
    crowd_clips = set(planted[2 * k :].tolist())
    # A fixed mix of plain kinds, in seeded order: pose-writing cost depends
    # on the kind (straight walks have exact zero coordinates), so a seeded
    # mix would move the timings from seed to seed.
    plain = [("straight", "arc", "sinusoid_pitch")[i % 3] for i in range(n - len(pitch_clips) - len(turn_clips))]
    rng.shuffle(plain)
    parts = []
    crowd_spans = []
    expected = {}
    for j in range(n):
        part = {
            "duration_s": CLIP_SECONDS,
            "fps": FPS,
            "speed_mps": round(float(rng.uniform(1.1, 1.6)), 3),
        }
        reasons: tuple[str, ...] = ()
        if j in pitch_clips:
            part.update(kind="sinusoid_pitch", amplitude_deg=round(float(rng.uniform(10.0, 13.0)), 3),
                        period_s=float(rng.choice([4.0, 5.0, 6.0])))
            reasons = (REASON_PITCH,)
        elif j in turn_clips:
            part.update(kind="head_turn", turn_deg=round(float(rng.uniform(75.0, 95.0) * rng.choice([-1, 1])), 3),
                        turn_start_s=round(float(rng.uniform(10.0, 100.0)), 3),
                        turn_len_s=round(float(rng.uniform(4.0, 8.0)), 3))
            reasons = (REASON_DIVERGENCE,)
        else:
            kind = plain.pop()
            part["kind"] = kind
            if kind == "arc":
                part["yaw_rate_dps"] = round(float(rng.uniform(1.0, 4.0) * rng.choice([-1, 1])), 3)
            elif kind == "sinusoid_pitch":
                part.update(amplitude_deg=round(float(rng.uniform(2.0, 5.0)), 3),
                            period_s=float(rng.choice([2.0, 3.0, 4.0, 5.0, 6.0])))
            if j in crowd_clips:
                start = j * CLIP_FRAMES + int(rng.integers(100, CLIP_FRAMES - 100))
                crowd_spans.append((start, int(rng.integers(6, 16)), int(rng.integers(6, 10))))
                reasons = (REASON_CROWD,)
        parts.append(part)
        expected[clip_id(j)] = reasons
    return Plan(parts, crowd_spans, expected)


def synth_spec(workload: Workload, seed: int, plan: Plan) -> dict:
    """The `synth` spec: the composite stream, landmarks, and dense detections if asked."""
    spec = {
        "trajectory": {"kind": "composite", "traj_id": TRAJ_ID, "fps": FPS, "parts": plan.parts},
        "landmarks": {"per_clip": workload.landmarks_per_clip, "seed": seed, "clip_seconds": CLIP_SECONDS},
    }
    if workload.background_detections:
        # One record per pose: 0-3 background pedestrians, never a crowd.
        schedule = _rng(workload, seed + 1).integers(0, 4, size=plan.poses)
        for start, frames, persons in plan.crowd_spans:
            schedule[start : start + frames] = persons
        spec["detections"] = {"schedule": schedule.tolist()}
    return spec


def _person_box(j: int) -> dict:
    # The same boxes `synth` writes, so both detection sources parse alike.
    return {"label": "person", "bbox": [20.0 + 30.0 * j, 40.0, 44.0 + 30.0 * j, 160.0], "score": 0.9}


def write_sparse_detections(plan: Plan, path: Path) -> None:
    """Detection records for the planted crowd frames only."""
    lines = []
    for start, frames, persons in sorted(plan.crowd_spans):
        boxes = [_person_box(j) for j in range(persons)]
        for f in range(start, start + frames):
            lines.append(json.dumps({"frame": f, "detections": boxes}, separators=(",", ":")) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def write_predictions(workload: Workload, seed: int, samples_path: Path, path: Path) -> None:
    """Noisy prediction records built from a horizon-32 samples file.

    Each record takes one sample's first k waypoints as ground truth, with k
    drawn from HORIZON_MIX, and perturbs them for the prediction.
    """
    rng = _rng(workload, seed + 2)
    samples = [json.loads(line) for line in samples_path.read_text(encoding="utf-8").splitlines() if line]
    if not samples:
        raise RuntimeError(f"{samples_path}: no samples to build predictions from")
    horizons = np.array([h for h, _ in HORIZON_MIX])
    shares = np.array([s for _, s in HORIZON_MIX])
    lines = []
    for i in range(workload.n_records):
        sample = samples[int(rng.integers(len(samples)))]
        k = int(rng.choice(horizons, p=shares))
        gt = np.asarray(sample["waypoints"][:k], dtype=float)
        pred = gt + rng.normal(0.0, float(rng.uniform(0.02, 0.3)), size=gt.shape)
        special = rng.random()
        if special < ZERO_PRED_SHARE:
            pred = np.zeros_like(gt)
        elif special < ZERO_PRED_SHARE + REPEAT_STEP_SHARE and k > 1:
            j = int(rng.integers(1, k))
            pred[j] = pred[j - 1]
        pred_arrival = None if rng.random() < NULL_PRED_ARRIVAL_SHARE else float(rng.random())
        label = None if rng.random() < NULL_LABEL_SHARE else bool(sample["arrival"])
        record = {
            "sample_id": f"{sample['sample_id']}#{i}",
            "predicted": pred.tolist(),
            "ground_truth": gt.tolist(),
            "predicted_arrival": pred_arrival,
            "arrival_label": label,
        }
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
