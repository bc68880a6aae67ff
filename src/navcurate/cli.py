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
import functools
import json
import os
import sys
from collections import deque
from pathlib import Path

import numpy as np

from . import __version__, schema
from . import io as tio
from .errors import EmptyResult, ParseError, SchemaError, ValidationError
from .filters import FilterConfig, run_filters, slice_detections
from .geometry import AxisConvention
from .losses import LossInput, loss_arr, loss_hall, loss_ori, loss_reg, loss_total
from .metrics import evaluate
from .sampling import SamplerConfig, build_clip_samples, collect_samples
from .segmentation import CLIP_MANIFEST_NAME, load_clip, read_manifest, save_clips, segment
from .synth import SynthFile, generate, generate_landmarks, write_detection_file

def _manifest(stage: str, inputs: dict, **sections) -> dict:
    """A stage's manifest or report: tool, stage, the sha256 of each input path by role, and the stage's sections."""
    return {
        "tool": {"name": "navcurate", "version": __version__},
        "stage": stage,
        "inputs": {role: tio.file_digest(path) for role, path in inputs.items()},
        **sections,
    }


def _flag_values(args, cls) -> dict:
    """The config flags of cls that were given on the command line, by field name."""
    return {f.name: vars(args)[f.name] for f in dataclasses.fields(cls) if vars(args)[f.name] is not None}


def _merged_config(cls, args):
    """cls from the --config file, if any, with the given flags overriding its keys.

    A flag value of the wrong type fails before the file is read, so only
    a value from the file is named with the file (see io.load_json).
    """
    flags = _flag_values(args, cls)

    def decode(data):
        return schema.load(cls, {**data, **flags} if type(data) is dict else data)

    if not args.config:
        return decode({})
    try:
        decode({})  # the flags alone, on the defaults
    except SchemaError:
        raise
    except ValidationError:
        pass  # a range rule, which the file's values may satisfy
    return tio.load_json(args.config, decode)[1]


def _convention(args) -> AxisConvention:
    return AxisConvention(**_flag_values(args, AxisConvention))


# A pool worker's task function, set once per worker by the pool initializer.
_fn = None


def _set_fn(fn) -> None:
    global _fn
    _fn = fn


def _run(task):
    return _fn(task)


def _imap(fn, tasks, workers: int):
    """Yield fn(task) for each task, in task order, as the results arrive.

    With more than one worker and task, the tasks run in a process pool,
    one task per call. Each worker gets fn once, through the pool
    initializer: a stage binds its read-only inputs into fn with
    functools.partial, so a task carries only its own arguments. At most
    4 * workers tasks are submitted ahead of the one being yielded, so
    finished results wait in bounded memory. An error in a task, or closing
    the generator early, cancels the tasks not yet started and shuts the
    pool down, its workers joined, before the error leaves the generator.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, so a stage that never pools does not import it

    # A forked pool starts all max_workers processes at the first submit.
    workers = min(workers, len(tasks))
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_set_fn, initargs=(fn,))
    try:
        futures = deque()
        for task in tasks:
            if len(futures) == 4 * workers:
                yield futures.popleft().result()
            futures.append(pool.submit(_run, task))
        while futures:
            yield futures.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _map_tasks(fn, tasks, workers: int) -> list:
    """The list of fn(task) for each task, in task order (see _imap)."""
    return list(_imap(fn, tasks, workers))


# A clip task is (manifest index, entry[, lo, hi]); the worker parses the clip's pose file.
def _filter_task(clip_dir, detections, config, convention, task):
    index, entry = task
    return run_filters(load_clip(clip_dir, entry, index), slice_detections(detections, entry), config, convention)


def _samples_task(clip_dir, landmarks, config, convention, task):
    index, entry, lo, hi = task
    return build_clip_samples(load_clip(clip_dir, entry, index), landmarks[lo:hi], config, convention)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# segment's tolerance: the relative difference allowed between the median timestamp step and 1/--fps.
FPS_TOL = 0.01


def cmd_segment(args) -> int:
    traj = tio.parse_pose_file(args.input, args.fps, traj_id=args.traj_id)
    # Clip windows count frames at 1/fps s each, so the timestamps must step at that rate (a lone pose has no step).
    step = float(np.median(np.diff(traj.timestamps))) if len(traj) > 1 else None
    if step is not None and abs(step * args.fps - 1.0) > FPS_TOL:
        raise ValidationError(f"{args.input}: median timestamp step {step!r} s is not 1/fps = {1.0 / args.fps!r} s "
                              f"(--fps {args.fps!r}) within {FPS_TOL:.0%}")
    entries = segment(traj, args.clip_seconds)
    manifest = _manifest(
        "segment",
        {"poses": args.input},
        config={"fps": args.fps, "clip_seconds": args.clip_seconds, "traj_id": traj.id},
        counts={"poses_in": len(traj), "clips_out": len(entries)},
    )
    save_clips(traj, entries, args.out, manifest, lambda fn, tasks: _map_tasks(fn, tasks, args.workers))
    return 0


def cmd_filter(args) -> int:
    entries = read_manifest(args.clips)
    if not entries:
        raise EmptyResult(f"{Path(args.clips) / CLIP_MANIFEST_NAME} lists no clips")
    detections = tio.parse_detections(args.detections)
    config = _merged_config(FilterConfig, args)
    convention = _convention(args)
    fn = functools.partial(_filter_task, args.clips, detections, config, convention)
    verdicts = _map_tasks(fn, sorted(enumerate(entries), key=lambda pair: pair[1].clip_id), args.workers)
    accepted = [v.clip_id for v in verdicts if v.accepted]
    rejected_by_reason: dict[str, int] = {}
    for verdict in verdicts:
        for reason in verdict.reasons:
            rejected_by_reason[reason] = rejected_by_reason.get(reason, 0) + 1
    report = _manifest(
        "filter",
        {"detections": args.detections, "clip_manifest": Path(args.clips) / CLIP_MANIFEST_NAME},
        config={"filter": dataclasses.asdict(config), "convention": dataclasses.asdict(convention)},
        counts={
            "clips_in": len(entries),
            "accepted": len(accepted),
            "rejected": len(entries) - len(accepted),
            "rejected_by_reason": rejected_by_reason,
        },
        verdicts=[dataclasses.asdict(v) for v in verdicts],
    )
    # The old report goes before the accepted list, the new one after it: a report on disk names a complete list.
    tio.remove_output(args.report)
    tio._write_lines(args.accepted or f"{args.report}.accepted", (f"{cid}\n" for cid in accepted))
    tio.write_report(report, args.report)
    return 0


def cmd_samples(args) -> int:
    entries = read_manifest(args.clips)
    landmarks = tio.parse_landmarks(args.landmarks)
    accepted_ids = tio.parse_accepted(args.accepted)
    config = _merged_config(SamplerConfig, args)
    convention = _convention(args)

    landmarks, rows, skipped = collect_samples([entry.clip_id for entry in entries], landmarks, accepted_ids)
    fn = functools.partial(_samples_task, args.clips, landmarks, config, convention)
    lines = []
    for clip_lines, clip_skips in _map_tasks(fn, [(i, entries[i], lo, hi) for i, lo, hi in rows], args.workers):
        lines.extend(clip_lines)
        for reason, count in clip_skips.items():
            skipped[reason] += count
    tio.remove_output(f"{args.out}.manifest.json")
    digest = tio.write_samples(lines, args.out)
    manifest = _manifest(
        "samples",
        {"clip_manifest": Path(args.clips) / CLIP_MANIFEST_NAME, "landmarks": args.landmarks,
         "accepted": args.accepted},
        config={"sampler": dataclasses.asdict(config), "convention": dataclasses.asdict(convention)},
        outputs={"samples": Path(args.out).name},
        sha256={"samples": digest},
        counts={
            "clips_in": len(entries),
            "clips_used": sum(1 for entry in entries if entry.clip_id in accepted_ids),
            "landmarks_in": len(landmarks),
            "samples": len(lines),
            "skipped_landmark_draws": skipped,
        },
    )
    tio.write_report(manifest, f"{args.out}.manifest.json")
    if not lines:
        raise EmptyResult("no samples were emitted")
    return 0


def cmd_eval(args) -> int:
    records = tio.parse_predictions(args.pred)
    report = evaluate(records)
    tio.write_report(_manifest("eval", {"predictions": args.pred}, metrics=dataclasses.asdict(report)), args.out)
    return 0


def cmd_synth(args) -> int:
    _, spec = tio.load_json(args.spec, lambda doc: schema.load(SynthFile, doc))
    traj = generate(spec.trajectory)
    # Counts past MAX_BOXES and a landmark clip_seconds that plans no clip raise here, before anything is written.
    per_frame = spec.detections.counts(len(traj)) if spec.detections is not None else None
    landmarks = None
    if spec.landmarks is not None:
        landmarks = []
        for entry in segment(traj, spec.landmarks.clip_seconds):
            landmarks.extend(generate_landmarks(entry, spec.landmarks.per_clip, spec.landmarks.seed))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tio.remove_output(out_dir / "manifest.json")
    outputs, counts = {"poses": f"{traj.id}.txt"}, {"poses": len(traj)}
    tio.write_pose_file(traj, out_dir / outputs["poses"])

    if per_frame is not None:
        write_detection_file(len(traj), per_frame, out_dir / "detections.jsonl")
        outputs["detections"] = "detections.jsonl"
        counts["detection_frames"] = len(traj)

    if landmarks is not None:
        tio.write_landmarks(landmarks, out_dir / "landmarks.jsonl")
        outputs["landmarks"] = "landmarks.jsonl"
        counts["landmarks"] = len(landmarks)

    tio.write_report(_manifest("synth", {"spec": args.spec}, outputs=outputs, counts=counts), out_dir / "manifest.json")
    return 0


def cmd_loss(args) -> int:
    _, doc = tio.load_json(args.input, schema.decoder(LossInput))
    # Overflow gives inf or nan, which the check below rejects instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        reg, _ = loss_reg(doc.pred_waypoints, doc.gt_waypoints)
        ori, _ = loss_ori(doc.pred_waypoints, doc.gt_waypoints)
        arr = None
        if doc.arrival_logit is not None and doc.arrival_label is not None:
            arr, _ = loss_arr(doc.arrival_logit, doc.arrival_label)
        hall = None
        if doc.pred_features is not None and doc.gt_features is not None:
            hall, _ = loss_hall(doc.pred_features, doc.gt_features)
        total = loss_total((reg, ori, arr or 0.0, hall or 0.0), doc.weights)
    losses = {"loss_reg": reg, "loss_ori": ori, "loss_arr": arr, "loss_hall": hall, "loss_total": total}
    for name, value in losses.items():
        if value is not None and not np.isfinite(value):
            raise ValidationError(f"{name} is not finite: the inputs overflow")
    print(json.dumps(losses, sort_keys=True, allow_nan=False))
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
        default=os.cpu_count() or 1,
        help="worker processes (default: CPU count); never changes output bytes",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """An argument error raises ValidationError, which main prints as one JSON line (exit 2); subparsers share the class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="navcurate", description=__doc__.splitlines()[0])
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
    tio._digests.clear()  # a digest is of this stage's read, never of an earlier call's
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ValidationError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except ParseError as exc:
        return _fail("parse", exc, 2)
    except ValidationError as exc:
        return _fail("validation", exc, 2)
    except EmptyResult as exc:
        return _fail("empty", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 4)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
