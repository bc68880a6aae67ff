"""Batch pipeline front-end.

Subcommands: segment, filter, samples, eval, synth, loss. Stages talk to
each other only through files, every stage writes a manifest capturing
its full configuration and input digests, and outputs are gathered in
sorted order so reruns and different worker counts are byte-identical.

Exit codes: 0 success, 2 parse/validation error, 3 empty result, 4 I/O
error. Errors go to stderr as one-line JSON records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from . import io as tio
from .errors import EmptyInput, EmptyResult, InvalidSpec, ParseError, ValidationError
from .filters import FilterConfig, run_filters, slice_detections
from .geometry import AxisConvention
from .losses import LossWeights, loss_arr, loss_hall, loss_ori, loss_reg, loss_total
from .metrics import evaluate
from .sampling import SamplerConfig, build_clip_samples, collect_samples
from .segmentation import load_clips, save_clips, segment
from .synth import SynthSpec, generate, generate_detections, generate_landmarks

WORKERS_ENV = "NAVCURATE_WORKERS"


def default_workers() -> int:
    value = os.environ.get(WORKERS_ENV)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {value!r}")
    return os.cpu_count() or 1


def _tool_info() -> dict:
    return {"name": "navcurate", "version": __version__}


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno)


def _digests(paths) -> dict:
    return {str(p): tio.file_digest(p) for p in paths}


def _merged_config(cls, path, overrides: dict):
    base = _load_json(path) if path else {}
    data = {**base, **{k: v for k, v in overrides.items() if v is not None}}
    return cls.from_dict(data)


def _convention(args) -> AxisConvention:
    return AxisConvention(camera_forward=args.camera_forward, world_up=args.world_up)


def _map_tasks(fn, tasks, workers: int) -> list:
    """Run fn over tasks, optionally in a process pool; result order == task order."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _filter_task(task):
    clip, detections, config, convention = task
    return run_filters(clip, detections, config, convention)


def _samples_task(task):
    clip, landmarks, config, convention = task
    return build_clip_samples(clip, landmarks, config, convention)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_segment(args) -> int:
    traj = tio.parse_pose_file(args.input, args.fps, traj_id=args.traj_id)
    clips = segment(traj, args.clip_seconds)
    save_clips(
        clips,
        args.out,
        extra={
            "tool": _tool_info(),
            "stage": "segment",
            "config": {"fps": args.fps, "clip_seconds": args.clip_seconds, "traj_id": traj.id},
            "inputs": _digests([args.input]),
            "counts": {"poses_in": len(traj), "clips_out": len(clips)},
        },
    )
    return 0


def cmd_filter(args) -> int:
    clips = load_clips(args.clips)
    detections = tio.parse_detections(args.detections)
    overrides = {
        "pitch_range_max_deg": args.pitch_range_max_deg,
        "divergence_max_deg": args.divergence_max_deg,
        "window_seconds": args.window_seconds,
        "min_window_displacement_m": args.min_window_displacement_m,
        "crowd_count_threshold": args.crowd_count_threshold,
        "crowd_frame_threshold": args.crowd_frame_threshold,
        "person_label": args.person_label,
        "person_score_min": args.person_score_min,
    }
    config = _merged_config(FilterConfig, args.config, overrides)
    convention = _convention(args)
    tasks = [(clip, slice_detections(detections, clip), config, convention) for clip in clips]
    verdicts = _map_tasks(_filter_task, tasks, args.workers)
    accepted = [v.clip_id for v in verdicts if v.accepted]
    rejected_by_reason: dict[str, int] = {}
    for verdict in verdicts:
        for reason in verdict.reasons:
            rejected_by_reason[reason] = rejected_by_reason.get(reason, 0) + 1
    report = {
        "tool": _tool_info(),
        "stage": "filter",
        "config": {"filter": config.to_dict(), "convention": convention.to_dict()},
        "inputs": _digests([args.detections, Path(args.clips) / "manifest.json"]),
        "counts": {
            "clips_in": len(clips),
            "accepted": len(accepted),
            "rejected": len(clips) - len(accepted),
            "rejected_by_reason": rejected_by_reason,
        },
        "verdicts": [v.to_dict() for v in verdicts],
    }
    tio.write_report(report, args.report)
    accepted_path = args.accepted or f"{args.report}.accepted"
    Path(accepted_path).write_text("".join(f"{cid}\n" for cid in accepted), encoding="utf-8")
    return 0


def cmd_samples(args) -> int:
    clips = load_clips(args.clips)
    landmarks = tio.parse_landmarks(args.landmarks)
    accepted_ids = {
        line.strip() for line in Path(args.accepted).read_text(encoding="utf-8").splitlines() if line.strip()
    }
    overrides = {
        "history_len": args.history_len,
        "horizon": args.horizon,
        "min_offset": args.min_offset,
        "max_offset": args.max_offset,
        "arrival_window": args.arrival_window,
        "arrival_fraction": args.arrival_fraction,
        "waypoint_stride": args.waypoint_stride,
        "draws_per_landmark": args.draws_per_landmark,
        "seed": args.seed,
    }
    config = _merged_config(SamplerConfig, args.config, overrides)
    convention = _convention(args)

    samples, skipped = collect_samples(
        clips,
        landmarks,
        accepted_ids,
        lambda pairs: _map_tasks(
            _samples_task, [(clip, lms, config, convention) for clip, lms in pairs], args.workers
        ),
    )
    tio.write_samples(samples, args.out)
    manifest = {
        "tool": _tool_info(),
        "stage": "samples",
        "config": {"sampler": config.to_dict(), "convention": convention.to_dict()},
        "inputs": _digests([Path(args.clips) / "manifest.json", args.landmarks, args.accepted]),
        "outputs": {"samples": str(args.out)},
        "counts": {
            "clips_in": len(clips),
            "clips_used": sum(1 for c in clips if c.clip_id in accepted_ids),
            "landmarks_in": len(landmarks),
            "samples": len(samples),
            "skipped_landmark_draws": skipped,
        },
    }
    tio.write_report(manifest, f"{args.out}.manifest.json")
    if not samples:
        raise EmptyResult("no samples were emitted")
    return 0


def cmd_eval(args) -> int:
    records = tio.parse_predictions(args.pred)
    report = evaluate(records)
    tio.write_report(
        {
            "tool": _tool_info(),
            "stage": "eval",
            "inputs": _digests([args.pred]),
            "metrics": report.to_dict(),
        },
        args.out,
    )
    return 0


def cmd_synth(args) -> int:
    doc = _load_json(args.spec)
    if "trajectory" not in doc:
        raise ValidationError("synth spec must contain a 'trajectory' object")
    spec = SynthSpec.from_dict(doc["trajectory"])
    traj = generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    poses_file = f"{traj.id}.txt"
    tio.write_pose_file(traj, out_dir / poses_file)
    outputs["poses"] = poses_file
    counts = {"poses": len(traj)}

    det_block = doc.get("detections")
    if det_block is not None:
        schedule = _expand_schedule(det_block, len(traj))
        frames = generate_detections(len(traj), schedule)
        tio.write_detections(frames, out_dir / "detections.jsonl")
        outputs["detections"] = "detections.jsonl"
        counts["detection_frames"] = len(frames)

    lm_block = doc.get("landmarks")
    if lm_block is not None:
        clip_seconds = float(lm_block.get("clip_seconds", 120.0))
        per_clip = int(lm_block.get("per_clip", 3))
        seed = int(lm_block.get("seed", 0))
        landmarks = []
        for clip in segment(traj, clip_seconds):
            landmarks.extend(generate_landmarks(clip, per_clip, seed))
        tio.write_landmarks(landmarks, out_dir / "landmarks.jsonl")
        outputs["landmarks"] = "landmarks.jsonl"
        counts["landmarks"] = len(landmarks)

    tio.write_report(
        {
            "tool": _tool_info(),
            "stage": "synth",
            "config": doc,
            "inputs": _digests([args.spec]),
            "outputs": outputs,
            "counts": counts,
        },
        out_dir / "manifest.json",
    )
    return 0


def _expand_schedule(det_block: dict, n_frames: int) -> list[int]:
    """Detection spec: either an explicit per-frame 'schedule' or run-length 'spans'."""
    if "schedule" in det_block:
        return [int(c) for c in det_block["schedule"]]
    schedule = [0] * n_frames
    for span in det_block.get("spans", []):
        start = int(span["start"])
        for f in range(start, min(start + int(span["frames"]), n_frames)):
            schedule[f] = int(span["count"])
    return schedule


def cmd_loss(args) -> int:
    doc = _load_json(args.input)
    for key in ("pred_waypoints", "gt_waypoints"):
        if key not in doc:
            raise ValidationError(f"loss input must contain {key!r}")
    weights = LossWeights.from_dict(doc.get("weights", {}))
    reg, _ = loss_reg(doc["pred_waypoints"], doc["gt_waypoints"])
    ori, _ = loss_ori(doc["pred_waypoints"], doc["gt_waypoints"])
    arr = None
    if "arrival_logit" in doc and "arrival_label" in doc:
        arr, _ = loss_arr(doc["arrival_logit"], doc["arrival_label"])
    hall = None
    if "pred_features" in doc and "gt_features" in doc:
        hall, _ = loss_hall(doc["pred_features"], doc["gt_features"])
    total = loss_total((reg, ori, arr or 0.0, hall or 0.0), weights)
    print(
        json.dumps(
            {"loss_reg": reg, "loss_ori": ori, "loss_arr": arr, "loss_hall": hall, "loss_total": total},
            sort_keys=True,
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_convention_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--camera-forward", default="+z", help="camera forward axis (+x/-x/+y/-y/+z/-z)")
    p.add_argument("--world-up", default="+z", help="world up axis (+x/-x/+y/-y/+z/-z)")


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker processes (default: ${WORKERS_ENV} or CPU count); never changes output bytes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="navcurate", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"navcurate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="cut a pose stream into re-anchored fixed-duration clips")
    p.add_argument("--input", required=True, help="TUM-style pose file")
    p.add_argument("--fps", type=float, required=True, help="frame rate of the pose stream")
    p.add_argument("--clip-seconds", type=float, default=120.0)
    p.add_argument("--out", required=True, help="output clip directory")
    p.add_argument("--traj-id", default=None, help="override the trajectory id (default: file stem)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("filter", help="apply the robot-compatibility rules to a clip directory")
    p.add_argument("--clips", required=True, help="clip directory from 'segment'")
    p.add_argument("--detections", required=True, help="pedestrian detections (JSON lines, source frame indices)")
    p.add_argument("--config", default=None, help="FilterConfig JSON file; flags override")
    p.add_argument("--report", required=True, help="verdict report path")
    p.add_argument("--accepted", default=None, help="accepted clip-id list path (default: REPORT.accepted)")
    p.add_argument("--pitch-range-max-deg", type=float, default=None)
    p.add_argument("--divergence-max-deg", type=float, default=None)
    p.add_argument("--window-seconds", type=float, default=None)
    p.add_argument("--min-window-displacement-m", type=float, default=None)
    p.add_argument("--crowd-count-threshold", type=int, default=None)
    p.add_argument("--crowd-frame-threshold", type=int, default=None)
    p.add_argument("--person-label", default=None)
    p.add_argument("--person-score-min", type=float, default=None)
    _add_convention_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("samples", help="build training samples from accepted clips and landmarks")
    p.add_argument("--clips", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--accepted", required=True, help="accepted clip-id list from 'filter'")
    p.add_argument("--config", default=None, help="SamplerConfig JSON file; flags override")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="samples file (JSON lines)")
    p.add_argument("--history-len", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--min-offset", type=int, default=None)
    p.add_argument("--max-offset", type=int, default=None)
    p.add_argument("--arrival-window", type=int, default=None)
    p.add_argument("--arrival-fraction", type=float, default=None)
    p.add_argument("--waypoint-stride", type=int, default=None)
    p.add_argument("--draws-per-landmark", type=int, default=None)
    _add_convention_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=cmd_samples)

    p = sub.add_parser("eval", help="score waypoint predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction records (JSON lines)")
    p.add_argument("--out", required=True, help="metric report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic pose/detection/landmark files")
    p.add_argument("--spec", required=True, help="synth spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("loss", help="print reference loss components for arrays in a JSON file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_loss)

    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    record = {"error": kind, "detail": str(exc)}
    if isinstance(exc, ParseError):
        record["path"] = exc.path
        record["line"] = exc.line
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", None) is None and hasattr(args, "workers"):
            args.workers = default_workers()
        return args.func(args)
    except ParseError as exc:
        return _fail("parse", exc, 2)
    except (ValidationError, InvalidSpec) as exc:
        return _fail("validation", exc, 2)
    except (EmptyResult, EmptyInput) as exc:
        return _fail("empty", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 4)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
