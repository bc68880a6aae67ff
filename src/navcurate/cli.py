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
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__, schema
from . import io as tio
from .errors import EmptyInput, EmptyResult, InvalidSpec, ParseError, ValidationError
from .filters import FilterConfig, run_filters, slice_detections
from .geometry import AxisConvention
from .losses import LossInput, loss_arr, loss_hall, loss_ori, loss_reg, loss_total
from .metrics import evaluate
from .sampling import SamplerConfig, build_clip_samples, collect_samples
from .segmentation import load_clip, read_manifest, save_clips, segment
from .synth import SynthFile, generate, generate_detections, generate_landmarks

WORKERS_ENV = "NAVCURATE_WORKERS"


def default_workers() -> int:
    value = os.environ.get(WORKERS_ENV)
    if value:
        try:
            workers = int(value)
        except ValueError:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {value!r}")
        if workers < 1:
            raise ValidationError(f"{WORKERS_ENV} must be at least 1, got {workers}")
        return workers
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


def _flag_values(args, cls) -> dict:
    """The config flags of cls that were given on the command line, by field name."""
    return {f.name: vars(args)[f.name] for f in dataclasses.fields(cls) if vars(args)[f.name] is not None}


def _merged_config(cls, args):
    """cls from the --config file, if any, with the given flags overriding its keys."""
    data = _load_json(args.config) if args.config else {}
    if type(data) is dict:
        data = {**data, **_flag_values(args, cls)}
    return schema.load(cls, data)


def _convention(args) -> AxisConvention:
    return AxisConvention(**_flag_values(args, AxisConvention))


def _map_tasks(fn, tasks, workers: int) -> list:
    """Run fn over tasks, optionally in a process pool; result order == task order."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    # A forked pool starts all max_workers processes at the first submit.
    workers = min(workers, len(tasks))
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


# A clip task carries where the clip is (directory, manifest index, entry); the worker parses it.
def _filter_task(task):
    clip_dir, index, entry, detections, config, convention = task
    return run_filters(load_clip(clip_dir, entry, index), detections, config, convention)


def _samples_task(task):
    clip_dir, index, entry, landmarks, config, convention = task
    return build_clip_samples(load_clip(clip_dir, entry, index), landmarks, config, convention)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_segment(args) -> int:
    traj = tio.parse_pose_file(args.input, args.fps, traj_id=args.traj_id)
    clips = segment(traj, args.clip_seconds)
    save_clips(
        clips,
        args.out,
        map_tasks=lambda fn, tasks: _map_tasks(fn, tasks, args.workers),
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
    entries = read_manifest(args.clips)
    if not entries:
        raise EmptyInput(f"{Path(args.clips) / 'manifest.json'} lists no clips")
    detections = tio.parse_detections(args.detections)
    config = _merged_config(FilterConfig, args)
    convention = _convention(args)
    tasks = [
        (args.clips, i, entry, slice_detections(detections, entry), config, convention)
        for i, entry in sorted(enumerate(entries), key=lambda pair: pair[1].clip_id)
    ]
    verdicts = _map_tasks(_filter_task, tasks, args.workers)
    accepted = [v.clip_id for v in verdicts if v.accepted]
    rejected_by_reason: dict[str, int] = {}
    for verdict in verdicts:
        for reason in verdict.reasons:
            rejected_by_reason[reason] = rejected_by_reason.get(reason, 0) + 1
    report = {
        "tool": _tool_info(),
        "stage": "filter",
        "config": {"filter": dataclasses.asdict(config), "convention": dataclasses.asdict(convention)},
        "inputs": _digests([args.detections, Path(args.clips) / "manifest.json"]),
        "counts": {
            "clips_in": len(entries),
            "accepted": len(accepted),
            "rejected": len(entries) - len(accepted),
            "rejected_by_reason": rejected_by_reason,
        },
        "verdicts": [dataclasses.asdict(v) for v in verdicts],
    }
    # The accepted list goes first: a report on disk always names a complete list.
    tio._write_text(args.accepted or f"{args.report}.accepted", "".join(f"{cid}\n" for cid in accepted))
    tio.write_report(report, args.report)
    return 0


def cmd_samples(args) -> int:
    entries = read_manifest(args.clips)
    landmarks = tio.parse_landmarks(args.landmarks)
    accepted_ids = {
        line.strip() for line in Path(args.accepted).read_text(encoding="utf-8").splitlines() if line.strip()
    }
    config = _merged_config(SamplerConfig, args)
    convention = _convention(args)

    samples, skipped = collect_samples(
        [entry.clip_id for entry in entries],
        landmarks,
        accepted_ids,
        lambda pairs: _map_tasks(
            _samples_task, [(args.clips, i, entries[i], lms, config, convention) for i, lms in pairs], args.workers
        ),
    )
    tio.write_samples(samples, args.out)
    manifest = {
        "tool": _tool_info(),
        "stage": "samples",
        "config": {"sampler": dataclasses.asdict(config), "convention": dataclasses.asdict(convention)},
        "inputs": _digests([Path(args.clips) / "manifest.json", args.landmarks, args.accepted]),
        "outputs": {"samples": str(args.out)},
        "counts": {
            "clips_in": len(entries),
            "clips_used": sum(1 for entry in entries if entry.clip_id in accepted_ids),
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
            "metrics": dataclasses.asdict(report),
        },
        args.out,
    )
    return 0


def cmd_synth(args) -> int:
    doc = _load_json(args.spec)
    spec = schema.load(SynthFile, doc)
    traj = generate(spec.trajectory)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    poses_file = f"{traj.id}.txt"
    tio.write_pose_file(traj, out_dir / poses_file)
    outputs["poses"] = poses_file
    counts = {"poses": len(traj)}

    if spec.detections is not None:
        frames = generate_detections(len(traj), spec.detections.counts(len(traj)))
        tio.write_detections(frames, out_dir / "detections.jsonl")
        outputs["detections"] = "detections.jsonl"
        counts["detection_frames"] = len(frames)

    if spec.landmarks is not None:
        landmarks = []
        for clip in segment(traj, spec.landmarks.clip_seconds):
            landmarks.extend(generate_landmarks(clip, spec.landmarks.per_clip, spec.landmarks.seed))
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


def cmd_loss(args) -> int:
    doc = schema.decoder(LossInput)(_load_json(args.input))
    reg, _ = loss_reg(doc.pred_waypoints, doc.gt_waypoints)
    ori, _ = loss_ori(doc.pred_waypoints, doc.gt_waypoints)
    arr = None
    if doc.arrival_logit is not None and doc.arrival_label is not None:
        arr, _ = loss_arr(doc.arrival_logit, doc.arrival_label)
    hall = None
    if doc.pred_features is not None and doc.gt_features is not None:
        hall, _ = loss_hall(doc.pred_features, doc.gt_features)
    total = loss_total((reg, ori, arr or 0.0, hall or 0.0), doc.weights)
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

def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """One --field-name flag per field of cls, typed by its annotation (config fields are str, int or float)."""
    for f in dataclasses.fields(cls):
        p.add_argument(
            f"--{f.name.replace('_', '-')}",
            type=schema.hints(cls)[f.name],
            default=None,
            help=f"{cls.__name__}.{f.name} (default: {f.default})",
        )


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
    _add_workers_flag(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("filter", help="apply the robot-compatibility rules to a clip directory")
    p.add_argument("--clips", required=True, help="clip directory from 'segment'")
    p.add_argument("--detections", required=True, help="pedestrian detections (JSON lines, source frame indices)")
    p.add_argument("--config", default=None, help="FilterConfig JSON file; flags override")
    p.add_argument("--report", required=True, help="verdict report path")
    p.add_argument("--accepted", default=None, help="accepted clip-id list path (default: REPORT.accepted)")
    _add_config_flags(p, FilterConfig)
    _add_config_flags(p, AxisConvention)
    _add_workers_flag(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("samples", help="build training samples from accepted clips and landmarks")
    p.add_argument("--clips", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--accepted", required=True, help="accepted clip-id list from 'filter'")
    p.add_argument("--config", default=None, help="SamplerConfig JSON file; flags override")
    p.add_argument("--out", required=True, help="samples file (JSON lines)")
    _add_config_flags(p, SamplerConfig)
    _add_config_flags(p, AxisConvention)
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
        if hasattr(args, "workers"):
            if args.workers is None:
                args.workers = default_workers()
            elif args.workers < 1:
                raise ValidationError(f"--workers must be at least 1, got {args.workers}")
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
