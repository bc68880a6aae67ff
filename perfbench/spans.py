"""In-process tracing: wrappers around the public functions the CLI calls.

`Tracer.installed()` swaps each target attribute for a wrapper that records
a span (name, start, end, parent, run) and the target's counts in memory,
and restores the originals on exit. Targets are patched where they are
looked up (e.g. `navcurate.sampling.to_ego_waypoint`, because sampling
imports the name); a target the program no longer has is skipped and its
metrics read 0.

Pool workers: `_map_tasks` is wrapped so that each task runs under
`collect_task`, which returns the worker's spans and counts with the
result. Workers are forked from this process and so inherit the patched
modules; `_ACTIVE` is how a forked worker finds the tracer, because task
functions are pickled by reference and carry no state.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_ACTIVE: "Tracer | None" = None


def _size(path) -> int:
    return os.path.getsize(path)


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


# (module, attribute, span name, counts(args, result) -> {metric: increment} or None).
# `_map_tasks` is listed for completeness; Tracer wraps it specially.
TARGETS = [
    ("navcurate.cli", "_map_tasks", "cli.map_tasks", None),
    ("navcurate.io", "parse_pose_file", "io.parse_pose_file", lambda a, r: {"io.parse_pose_file.poses": len(r)}),
    ("navcurate.segmentation", "parse_pose_file", "io.parse_pose_file",
     lambda a, r: {"io.parse_pose_file.poses": len(r)}),
    ("navcurate.segmentation", "write_pose_file", "io.write_pose_file",
     lambda a, r: {"io.write_pose_file.bytes": _size(a[1])}),
    ("navcurate.io", "parse_detections", "io.parse_detections",
     lambda a, r: {"io.parse_detections.lines": _count_lines(a[0]),
                   "io.parse_detections.boxes": sum(len(f.detections) for f in r)}),
    ("navcurate.io", "parse_landmarks", "io.parse_landmarks", None),
    ("navcurate.io", "write_samples", "io.write_samples", lambda a, r: {"io.write_samples.bytes": _size(a[1])}),
    ("navcurate.io", "parse_predictions", "io.parse_predictions",
     lambda a, r: {"io.parse_predictions.records": len(r)}),
    ("navcurate.io", "write_report", "io.write_report", None),
    ("navcurate.io", "file_digest", "io.file_digest", lambda a, r: {"io.file_digest.bytes": _size(a[0])}),
    ("navcurate.cli", "segment", "segmentation.segment", None),
    ("navcurate.cli", "save_clips", "segmentation.save_clips", None),
    ("navcurate.cli", "load_clips", "segmentation.load_clips", None),
    ("navcurate.cli", "slice_detections", "filters.slice_detections",
     lambda a, r: {"filters.slice_detections.frames_scanned": len(a[0])}),
    ("navcurate.cli", "run_filters", "filters.run_filters", lambda a, r: {"filters.accepted": int(r.accepted)}),
    ("navcurate.filters", "pitch_many", "geometry.pitch_many", None),
    ("navcurate.filters", "yaw_many", "geometry.yaw_many", None),
    ("navcurate.sampling", "to_ego_waypoint", "geometry.to_ego_waypoint", None),
    ("navcurate.cli", "build_clip_samples", "sampling.build_clip_samples",
     lambda a, r: {"sampling.draws": len(a[1]) * a[2].draws_per_landmark, "sampling.samples": len(r[0])}),
    ("navcurate.cli", "evaluate", "metrics.evaluate", lambda a, r: {"metrics.evaluate.records": len(a[0])}),
    ("navcurate.metrics", "discrete_frechet", "metrics.discrete_frechet",
     lambda a, r: {"metrics.frechet_cells": (len(a[0]) + 1) * (len(a[1]) + 1)}),
]


class Tracer:
    """Spans and counts of one traced run, kept in memory until `write`."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or None, run)
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self.run = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def _wrap_map_tasks(self, fn):
        @functools.wraps(fn)
        def traced(task_fn, tasks, workers):
            pooled = workers > 1 and len(tasks) > 1  # when _map_tasks starts its pool
            if pooled:
                self.counts["cli.map_tasks.tasks"] += len(tasks)
                self.counts["cli.map_tasks.task_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
            index = len(self.spans)
            # Only a pooled fan-out is pool overhead; inline runs get their own name.
            name = "cli.map_tasks" if pooled else "cli.map_tasks.inline"
            pairs = self.span(name, fn, functools.partial(collect_task, task_fn), tasks, workers)
            results = []
            for result, spans, counts in pairs:
                self._adopt(spans, parent=index)
                for key, value in counts.items():
                    self.counts[key] += value
                results.append(result)
            return results

        return traced

    def _adopt(self, spans: list, parent: int) -> None:
        """Append a worker's spans, re-rooting them under the map_tasks span."""
        offset = len(self.spans)
        for name, start, end, p, run in spans:
            self.spans.append((name, start, end, parent if p is None else p + offset, run))

    @contextmanager
    def installed(self):
        global _ACTIVE
        saved = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                wrapper = self._wrap_map_tasks(original) if attr == "_map_tasks" else self._wrap(name, original, count)
                setattr(module, attr, wrapper)
            _ACTIVE = self
            yield self
        finally:
            _ACTIVE = None
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def collect_task(task_fn, task):
    """Run one pool task with a fresh span buffer; return (result, spans, counts)."""
    tracer = _ACTIVE
    if tracer is None:  # a worker that did not inherit the tracer, e.g. a spawned one
        return task_fn(task), [], {}
    saved = tracer.spans, tracer.stack, tracer.counts
    tracer.spans, tracer.stack, tracer.counts = [], [], defaultdict(float)
    try:
        result = task_fn(task)
        return result, tracer.spans, dict(tracer.counts)
    finally:
        tracer.spans, tracer.stack, tracer.counts = saved


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def summarize(spans: list) -> dict[int, dict[str, dict[str, float]]]:
    """Per span name and run: total time `s`, `calls`, and `self_s` (time no child span covers)."""
    children: defaultdict = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict = {}
    for i, (name, start, end, parent, run) in enumerate(spans):
        entry = out.setdefault(run, {}).setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["s"] += end - start
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _union(children.get(i, []))
    return out
