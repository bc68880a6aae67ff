"""Schema-driven coverage: every field of every record and config class rejects wrong JSON types.

The cases come from ``dataclasses.fields``, so a field added later is
covered without touching this file. Each case is run through the file
path and through the constructor, which share one type rule per field.
"""

import argparse
import copy
import dataclasses
import importlib
import json
import math
import pickle
import pkgutil
import re
import types
import typing

import numpy as np
import pytest

import navcurate
from navcurate import schema
from navcurate.cli import build_parser
from navcurate.errors import ParseError, SchemaError, ValidationError
from navcurate.filters import FilterConfig
from navcurate.geometry import AxisConvention
from navcurate.io import (
    Detection,
    DetectionFrame,
    DetectionTable,
    LandmarkAnnotation,
    PredictionRecord,
    PredictionTable,
    RawTrajectory,
    TrainingSample,
    parse_detections,
    parse_landmarks,
    parse_predictions,
    parse_samples,
)
from navcurate.losses import LossInput, LossWeights
from navcurate.sampling import SamplerConfig
from navcurate.segmentation import ClipEntry, read_manifest, save_clips, segment
from navcurate.synth import DetectionBlock, DetectionSpan, LandmarkBlock, SynthFile, SynthSpec, generate

from oracles import EgoWaypoint, frames_of, records_of
from test_cli_fuzz import _dumps, _replaced, _sites
from test_io import PARITY_POOL

# One value of each wrong JSON type: a boolean, a numeric string, null, a
# float and a nested list. A case is skipped where the field accepts it.
WRONG = [True, "5", None, 2.5, [[1]]]

def parse_detection_frames(path):
    return frames_of(parse_detections(path))


def parse_prediction_records(path):
    return records_of(parse_predictions(path))


RECORDS = [
    (LandmarkAnnotation("c", 3, (0.0, 0.0, 1.0, 1.0), "n", "go"), parse_landmarks),
    (
        TrainingSample("s", "c", "go", 4, 9, (2, 3, 4), ((1.0, 0.5), (2.0, 1.0)), False),
        parse_samples,
    ),
    (PredictionRecord("s", ((1.0, 0.0),), ((1.0, 0.5),), 0.5, True), parse_prediction_records),
    (DetectionFrame(3, (Detection("person", (0.0, 0.0, 1.0, 1.0), 0.9),)), parse_detection_frames),
]

CONFIGS = [
    FilterConfig(),
    SamplerConfig(),
    LossWeights(),
    AxisConvention(),
    SynthFile(
        SynthSpec("composite", traj_id="t", parts=(SynthSpec("straight"),)),
        DetectionBlock(schedule=(1, 0), spans=(DetectionSpan(0, 2, 1),)),
        LandmarkBlock(),
    ),
]


def _accepts(tp, value) -> bool:
    """Whether value has the JSON type annotation tp names (the documented rules, restated)."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in args:
        return value is None or _accepts(next(a for a in args if a is not type(None)), value)
    return {bool: type(value) is bool, str: type(value) is str, float: type(value) is float}.get(tp, False)


def _nested(tp):
    """The object-form dataclass a field holds (directly, optionally or as tuple items), else None."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = (a for a in args if a is not type(None))
    elif typing.get_origin(tp) is tuple:
        tp = args[0]
    return tp if dataclasses.is_dataclass(tp) else None


def _mutations(cls, obj, path=()):
    """(key path, document) for each field at any depth set to each wrong JSON type."""
    for f in dataclasses.fields(cls):
        tp = schema.hints(cls)[f.name]
        here = path + (f.name,)
        for bad in WRONG:
            if not _accepts(tp, bad):
                yield here, _with(obj, here, bad)
        value = _at(obj, here)
        nested = _nested(tp)
        if nested is not None and value:
            yield from _mutations(nested, obj, here + ((0,) if type(value) is list else ()))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _with(obj, path, value):
    doc = copy.deepcopy(obj)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _json(value) -> dict:
    return json.loads(json.dumps(value, default=schema.to_json))


def _ids(cases):
    return [type(c[0] if isinstance(c, tuple) else c).__name__ for c in cases]


def _named(cls, key) -> str:
    """The start of the SchemaError message for a bad value at key path key of cls (or at an item of it)."""
    return f"{cls.__name__} has '" + ".".join(map(str, key)).replace(".0", "[0]")


def _assert_constructor_rejects(cls, key, doc):
    with pytest.raises(SchemaError) as exc:
        cls(**doc)
    assert str(exc.value).startswith(_named(cls, key)), (key, str(exc.value))


@pytest.mark.parametrize("record, parse", RECORDS, ids=_ids(RECORDS))
def test_record_rejects_every_wrong_json_type(tmp_path, record, parse):
    path = tmp_path / "records.jsonl"
    valid = _json(record)
    path.write_text(json.dumps(valid) + "\n")
    assert list(parse(path)) == [record]
    assert type(record)(**valid) == record
    cases = list(_mutations(type(record), valid))
    assert len(cases) >= 2 * len(dataclasses.fields(record))
    for key, doc in cases:
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ParseError) as exc:
            parse(path)
        assert exc.value.line == 1, key
        _assert_constructor_rejects(type(record), key, doc)


@pytest.mark.parametrize("config", CONFIGS, ids=_ids(CONFIGS))
def test_config_rejects_every_wrong_json_type(config):
    cls = type(config)
    valid = _json(config)
    assert schema.load(cls, valid) == config
    assert cls(**valid) == config
    cases = list(_mutations(cls, valid))
    assert len(cases) >= 2 * len(dataclasses.fields(config))
    for key, doc in cases:
        with pytest.raises(SchemaError) as exc:
            schema.load(cls, doc)
        # The message names the key path down to the bad value (or an item of it).
        assert str(exc.value).startswith(_named(cls, key)), (key, str(exc.value))
        _assert_constructor_rejects(cls, key, doc)


@pytest.mark.parametrize("config", CONFIGS, ids=_ids(CONFIGS))
def test_config_rejects_non_object_and_unknown_key(config):
    cls = type(config)
    for doc in ([], 5, "x", None, {**_json(config), "bogus": 1}):
        with pytest.raises(SchemaError):
            schema.load(cls, doc)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
def test_non_finite_number_is_not_a_number(value):
    with pytest.raises(SchemaError, match="expected number"):
        schema.load(FilterConfig, {"pitch_range_max_deg": value})
    with pytest.raises(SchemaError, match=r"expected \[number, number, number, number\]"):
        schema.decoder(LandmarkAnnotation)({"clip_id": "c", "goal_frame": 0, "bbox": [0, 0, value, 1], "name": "n", "instruction": "go"})


def test_nested_config_rejects_unknown_key():
    for block, field in ("trajectory", "parts"), ("detections", "spans"):
        doc = _json(CONFIGS[-1])
        doc[block][field][0]["bogus"] = 1
        with pytest.raises(SchemaError, match=re.escape(f"'{block}.{field}[0].bogus'")):
            schema.load(SynthFile, doc)


def test_config_in_a_record_rejects_unknown_key():
    doc = {"pred_waypoints": [[1, 0]], "gt_waypoints": [[1, 0]], "weights": {"lambda_reg": 1, "bogus": 1}}
    assert schema.decoder(LossInput)({**doc, "weights": {"lambda_reg": 1}, "bogus": 1}).weights == LossWeights(1)
    with pytest.raises(SchemaError, match=r"unknown key 'weights\.bogus'"):
        schema.decoder(LossInput)(doc)


def test_record_ignores_unknown_keys(tmp_path):
    record, parse = RECORDS[0]
    path = tmp_path / "lm.jsonl"
    path.write_text(json.dumps({**_json(record), "confidence": 0.4}) + "\n")
    assert parse_landmarks(path) == [record]


def test_nested_record_ignores_unknown_keys(tmp_path):
    # A detection box is part of its record: an unknown key in it is ignored, by the parser and by the decoder.
    record, parse = RECORDS[3]
    doc = _json(record)
    doc["detections"][0]["extra"] = 1
    assert schema.decoder(DetectionFrame)(doc) == record
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    assert parse(path) == [record]
    doc["detections"][0]["score"] = "x"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(ParseError, match=r"DetectionFrame has 'detections\[0\]\.score' = \"x\", expected number$"):
        parse(path)


def test_clip_entry_rejects_every_wrong_json_type(tmp_path):
    traj = generate(SynthSpec("straight", duration_s=2.0, fps=5.0))
    manifest_path = save_clips(traj, segment(traj, 1.0), tmp_path)
    manifest = json.loads(manifest_path.read_text())
    cases = list(_mutations(ClipEntry, manifest["clips"][1]))
    assert len(cases) >= 2 * len(dataclasses.fields(ClipEntry))
    for key, entry in cases:
        manifest_path.write_text(json.dumps({**manifest, "clips": [manifest["clips"][0], entry]}))
        with pytest.raises(ValidationError, match=f"clip entry 1 has .*{key[0]}"):
            read_manifest(tmp_path)
        _assert_constructor_rejects(ClipEntry, key, entry)


LANDMARK, SAMPLE, PREDICTION = (RECORDS[i][0] for i in range(3))


# Values built in code that were once coerced, accepted as given, or crashed with a bare TypeError.
PROBES = [
    (SAMPLE, "history_frames", (1.7,)),
    (SAMPLE, "arrival", 1),
    (LANDMARK, "goal_frame", True),
    (LANDMARK, "bbox", ("0", 0, 1, 1)),
    (PREDICTION, "predicted_arrival", True),
    (DetectionFrame(3, ()), "frame", np.int64(3)),
    (SAMPLE, "t", 4.5),
    (LANDMARK, "name", 7),
    (PREDICTION, "arrival_label", 0.0),
    (FilterConfig(), "crowd_count_threshold", 2.5),
    (SamplerConfig(), "horizon", 2.5),
    (LossWeights(), "lambda_reg", True),
    (ClipEntry("c", "s", 30.0, 0, 10, "c.txt"), "fps", "30"),
    (ClipEntry("c", "s", 30.0, 0, 10, "c.txt"), "start_frame", np.int64(3)),
    (SynthSpec("straight"), "duration_s", "5"),
    (RawTrajectory("t", 10.0, [0.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]]), "id", 5),
]


@pytest.mark.parametrize("valid, field, value", PROBES, ids=[f"{type(v).__name__}.{f}" for v, f, _ in PROBES])
def test_constructor_rejects_wrong_type_without_coercing(valid, field, value):
    with pytest.raises(SchemaError, match="^" + re.escape(_named(type(valid), (field,)))) as exc:
        dataclasses.replace(valid, **{field: value})
    # A pool worker's error reaches the parent pickled.
    assert str(pickle.loads(pickle.dumps(exc.value))) == str(exc.value)


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("predicted", ((np.float64(0.0), 0.0),), "[np.float64(0.0), 0.0]"),
        ("predicted", ((0, np.int64(3)),), "[0, np.int64(3)]"),
        ("predicted_arrival", np.float32(0.5), "np.float32(0.5)"),
    ],
    ids=["float64-waypoint", "int64-waypoint", "float32-arrival"],
)
def test_error_shows_a_non_json_type_as_its_repr(field, value, shown):
    # json.dumps prints an np.float64 as 0.0, which reads as a valid value.
    with pytest.raises(SchemaError) as exc:
        dataclasses.replace(PREDICTION, **{field: value})
    assert f"= {shown}, expected" in str(exc.value)


def test_error_shows_a_deeply_nested_value_cut_short():
    # Past 40 levels the shown text is cut anyway; the message must not recurse into the rest.
    value = 0.5
    for _ in range(5000):
        value = [value]
    with pytest.raises(SchemaError) as exc:
        dataclasses.replace(PREDICTION, predicted_arrival=value)
    assert f"= {'[' * 37}..., expected" in str(exc.value)


def test_named_tuple_waypoints_are_stored_as_plain_tuples():
    rows = tuple(EgoWaypoint(*w) for w in PREDICTION.predicted)
    record = dataclasses.replace(PREDICTION, predicted=rows)
    assert record == PREDICTION
    assert type(record.predicted[0]) is tuple


# The config flags as they stood before the flags were generated from the
# fields: a renamed field would rename its flag, so the names are pinned too.
PINNED_FLAGS = {
    "filter": {
        "--pitch-range-max-deg": float,
        "--divergence-max-deg": float,
        "--window-seconds": float,
        "--min-window-displacement-m": float,
        "--crowd-count-threshold": int,
        "--crowd-frame-threshold": int,
        "--person-label": str,
        "--person-score-min": float,
        "--camera-forward": str,
        "--world-up": str,
    },
    "samples": {
        "--seed": int,
        "--history-len": int,
        "--horizon": int,
        "--min-offset": int,
        "--max-offset": int,
        "--arrival-window": int,
        "--arrival-fraction": float,
        "--waypoint-stride": int,
        "--draws-per-landmark": int,
        "--camera-forward": str,
        "--world-up": str,
    },
}
IO_FLAGS = {
    "filter": {"--help", "--clips", "--detections", "--config", "--report", "--accepted", "--workers"},
    "samples": {"--help", "--clips", "--landmarks", "--accepted", "--config", "--out", "--workers"},
}


@pytest.mark.parametrize("command, config", [("filter", FilterConfig), ("samples", SamplerConfig)])
def test_config_flags_are_the_config_fields(command, config):
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.option_strings[-1]: a for a in sub.choices[command]._actions}
    flags = set(actions) - IO_FLAGS[command]
    fields = {"--" + f.name.replace("_", "-"): (cls, f.name) for cls in (config, AxisConvention) for f in dataclasses.fields(cls)}
    assert flags == set(fields)
    for flag, (cls, name) in fields.items():
        assert actions[flag].type is schema.hints(cls)[name]
        assert actions[flag].default is None
    assert {flag: actions[flag].type for flag in flags} == PINNED_FLAGS[command]


# ---------------------------------------------------------------------------
# Range rules of the config and document classes, message for message
# ---------------------------------------------------------------------------

CLIP = ClipEntry("c", "s", 30.0, 0, 10, "c.txt")
STRAIGHT = SynthSpec("straight")
SPAN = DetectionSpan(0, 2, 1)

# (valid object, fields to replace, the full message). A case that replaces one
# field breaks one rule; one that replaces two breaks two rules and pins the one
# that fires first.
RANGE_RULES = [
    *[(FilterConfig(), {name: 0}, f"{name} must be positive, got 0")
      for name in ("pitch_range_max_deg", "divergence_max_deg", "window_seconds", "min_window_displacement_m",
                   "crowd_count_threshold", "crowd_frame_threshold")],
    (FilterConfig(), {"person_score_min": 1.5}, "person_score_min must be in [0, 1], got 1.5"),
    (FilterConfig(), {"person_score_min": -0.5}, "person_score_min must be in [0, 1], got -0.5"),
    (FilterConfig(), {"window_seconds": -1.0, "divergence_max_deg": 0.0}, "divergence_max_deg must be positive, got 0.0"),
    (SamplerConfig(), {"history_len": 0}, "history_len and horizon must be >= 1"),
    (SamplerConfig(), {"horizon": 0}, "history_len and horizon must be >= 1"),
    (SamplerConfig(), {"min_offset": 0}, "need 0 < min_offset <= max_offset, got 0, 60"),
    (SamplerConfig(), {"min_offset": 20, "max_offset": 10}, "need 0 < min_offset <= max_offset, got 20, 10"),
    (SamplerConfig(), {"arrival_window": 10}, "arrival_window must be in [0, min_offset)"),
    (SamplerConfig(), {"arrival_window": -1}, "arrival_window must be in [0, min_offset)"),
    (SamplerConfig(), {"arrival_fraction": 1.5}, "arrival_fraction must be in [0, 1], got 1.5"),
    (SamplerConfig(), {"waypoint_stride": 0}, "waypoint_stride must be >= 1"),
    (SamplerConfig(), {"draws_per_landmark": 0}, "draws_per_landmark must be >= 1"),
    (SamplerConfig(), {"seed": -1}, "seed must be a non-negative 64-bit integer"),
    (SamplerConfig(), {"seed": 2**64}, "seed must be a non-negative 64-bit integer"),
    (SamplerConfig(), {"seed": -1, "arrival_window": 60}, "arrival_window must be in [0, min_offset)"),
    (AxisConvention(), {"camera_forward": "z"}, "camera_forward must be one of ['+x', '+y', '+z', '-x', '-y', '-z'], got 'z'"),
    (AxisConvention(), {"world_up": "up"}, "world_up must be one of ['+x', '+y', '+z', '-x', '-y', '-z'], got 'up'"),
    (AxisConvention(), {"world_up": "", "camera_forward": "x"},
     "camera_forward must be one of ['+x', '+y', '+z', '-x', '-y', '-z'], got 'x'"),
    *[(LossWeights(), {name: -1.0}, f"{name} must be non-negative, got -1.0")
      for name in ("lambda_reg", "lambda_ori", "lambda_arr", "lambda_hall")],
    (LossWeights(), {"lambda_hall": -2.0, "lambda_ori": -1.0}, "lambda_ori must be non-negative, got -1.0"),
    (CLIP, {"clip_id": ""}, "clip_id and source_id must be non-empty"),
    (CLIP, {"source_id": ""}, "clip_id and source_id must be non-empty"),
    (CLIP, {"file": ""}, "clip file must be non-empty"),
    (CLIP, {"clip_id": "a\nb"}, "clip_id must not hold a line break, got 'a\\nb'"),
    (CLIP, {"source_id": "a/b"},
     "source_id must be one file name, without '/' or NUL and not '.' or '..', got 'a/b'"),
    (CLIP, {"file": ".."}, "file must be one file name, without '/' or NUL and not '.' or '..', got '..'"),
    (CLIP, {"fps": 0.0}, "fps must be positive, got 0.0"),
    (CLIP, {"n_frames": 0}, "n_frames must be at least 1, got 0"),
    (CLIP, {"start_frame": -1}, "start_frame must be a non-negative int64 frame index, got -1"),
    (CLIP, {"start_frame": 2**63 - 10}, f"start_frame must be a non-negative int64 frame index, got {2**63 - 10}"),
    (CLIP, {"n_frames": 0, "file": "a\rb"}, "file must not hold a line break, got 'a\\rb'"),
    (CLIP, {"sha256": "ab"}, "sha256 must be 64 lowercase hex digits, got 'ab'"),
    (CLIP, {"sha256": "A" * 64}, f"sha256 must be 64 lowercase hex digits, got '{'A' * 64}'"),
    (CLIP, {"sha256": "0" * 63 + "g"}, f"sha256 must be 64 lowercase hex digits, got '{'0' * 63}g'"),
    (STRAIGHT, {"kind": "walk"},
     "kind must be one of ('straight', 'arc', 'sinusoid_pitch', 'head_turn', 'stationary', 'composite'), got 'walk'"),
    (STRAIGHT, {"duration_s": 0.0}, "duration_s must be positive, got 0.0"),
    (STRAIGHT, {"fps": -1.0}, "fps must be positive, got -1.0"),
    (STRAIGHT, {"speed_mps": 0.0}, "speed_mps must be positive, got 0.0"),
    (STRAIGHT, {"kind": "head_turn"}, "head_turn needs turn_len_s > 0"),
    (STRAIGHT, {"kind": "head_turn", "turn_start_s": -1.0, "turn_len_s": 1.0}, "turn interval must lie inside the duration"),
    (STRAIGHT, {"kind": "head_turn", "turn_start_s": 119.5, "turn_len_s": 1.0}, "turn interval must lie inside the duration"),
    (STRAIGHT, {"kind": "sinusoid_pitch", "period_s": 0.0}, "sinusoid_pitch needs period_s > 0"),
    (STRAIGHT, {"kind": "composite"}, "composite needs at least one part"),
    (STRAIGHT, {"kind": "composite", "parts": (STRAIGHT, SynthSpec("arc", fps=10.0))}, "composite parts must share one fps"),
    (STRAIGHT, {"kind": "composite", "parts": (SynthSpec("composite", parts=(STRAIGHT,)),)}, "composite parts cannot nest"),
    (STRAIGHT, {"kind": "composite", "parts": (SynthSpec("straight", duration_s=2e5),) * 2},
     "composite parts hold more than MAX_POSES = 10000000 poses"),
    (STRAIGHT, {"duration_s": 1e6}, "duration_s 1000000.0 at fps 30.0 gives more than MAX_POSES = 10000000 poses"),
    (STRAIGHT, {"duration_s": 1e308, "fps": 1e308},
     "duration_s 1e+308 at fps 1e+308 gives more than MAX_POSES = 10000000 poses"),
    (STRAIGHT, {"kind": "composite", "speed_mps": -1.0}, "speed_mps must be positive, got -1.0"),
    (SPAN, {"start": -1}, "detection span start must be non-negative, got -1"),
    (SPAN, {"frames": -2}, "detection span frames must be non-negative, got -2"),
    (SPAN, {"count": -3}, "detection span count must be non-negative, got -3"),
    (SPAN, {"count": -3, "frames": -2}, "detection span frames must be non-negative, got -2"),
    (DetectionBlock(), {"schedule": (1, -1)}, "detection schedule counts must be non-negative"),
    (LandmarkBlock(), {"per_clip": -1}, "per_clip must be non-negative, got -1"),
    (LandmarkBlock(), {"seed": 2**64}, "landmark seed must be a non-negative 64-bit integer"),
    (LandmarkBlock(), {"seed": -1, "per_clip": -1}, "per_clip must be non-negative, got -1"),
]


# The dataclasses whose constructor changes a value: RawTrajectory renormalises drifted quaternions, and
# FilterVerdict sorts its reasons (its diagnostics are a dict, which no annotation rule describes).
NOT_SCHEMA = {"RawTrajectory", "FilterVerdict"}


def test_every_schema_class_post_init_is_check():
    modules = [importlib.import_module(f"navcurate.{m.name}") for m in pkgutil.iter_modules(navcurate.__path__)]
    found = {cls.__name__: cls for module in modules for cls in vars(module).values()
             if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__}
    assert NOT_SCHEMA <= found.keys()
    assert len(found) - len(NOT_SCHEMA) >= 19  # five records, eleven configs and documents, two tables, MetricReport
    own = [name for name, cls in found.items() if name not in NOT_SCHEMA
           and getattr(cls, "__post_init__", None) is not schema.check]
    assert sorted(own) == []


@pytest.mark.parametrize("valid, changes, message", RANGE_RULES,
                         ids=[f"{type(v).__name__}-{'-'.join(c)}" for v, c, _ in RANGE_RULES])
def test_range_rule_message(valid, changes, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        dataclasses.replace(valid, **changes)


def test_draws_per_landmark_are_bounded():
    assert SamplerConfig(draws_per_landmark=10_000).draws_per_landmark == 10_000
    with pytest.raises(ValidationError, match="^draws_per_landmark must be at most 10000, got 10001$"):
        SamplerConfig(draws_per_landmark=10_001)


# ---------------------------------------------------------------------------
# Columns: a numpy array of one dtype, cast only where no value changes
# ---------------------------------------------------------------------------

TABLES = {
    "DetectionTable": (DetectionTable, {"frames": [2, 5], "offsets": [0, 1, 1], "labels": [0], "names": ("person",),
                                        "scores": [0.5], "bboxes": [[0.0, 0.0, 1.0, 1.0]]}),
    "PredictionTable": (PredictionTable, {"id_text": "ab", "id_offsets": [0, 1, 2], "offsets": [0, 1, 2],
                                          "predicted": [[1.0, 0.0]] * 2, "ground_truth": [[1.0, 0.5]] * 2,
                                          "predicted_arrival": [0.5, 0.0], "predicted_arrival_null": [False, True],
                                          "arrival_label": [True, False], "arrival_label_null": [False, True]}),
    "RawTrajectory": (RawTrajectory, {"id": "t", "fps": 10.0, "timestamps": [0.0, 0.1],
                                      "positions": [[0.0, 0.0, 0.0]] * 2, "quaternions": [[0.0, 0.0, 0.0, 1.0]] * 2}),
}


def _table(name, **changes):
    cls, columns = TABLES[name]
    return cls(**{**columns, **changes})


# (class, column, a value that casting would change): each was once stored cast, or raised a bare numpy error.
COLUMN_REJECTS = [
    ("DetectionTable", "frames", [0.7, 1.9]),
    ("DetectionTable", "frames", np.array([2.0, 5.0])),  # an integral float is a float, as in JSON
    ("DetectionTable", "offsets", np.array([0, 1, 1], dtype=np.uint64)),
    ("DetectionTable", "labels", [True]),
    ("DetectionTable", "scores", ["0.5"]),
    ("DetectionTable", "scores", [True]),
    ("DetectionTable", "bboxes", [[0j, 0, 1, 1]]),
    ("RawTrajectory", "timestamps", ["0.5", "1.0"]),
    ("RawTrajectory", "timestamps", [0.0, [0.1]]),
    ("RawTrajectory", "positions", [[0.0, 0.0, None]] * 2),
    ("RawTrajectory", "quaternions", np.array([[0, 0, 0, 1]] * 2, dtype=complex)),
    ("PredictionTable", "id_offsets", [0.0, 1.0, 2.0]),
    ("PredictionTable", "predicted_arrival", np.array([None, 0.0])),
    ("PredictionTable", "arrival_label", [1, 7]),
    ("PredictionTable", "arrival_label_null", np.array([0, 1], dtype=np.int8)),
]


@pytest.mark.parametrize("name, column, value", COLUMN_REJECTS,
                         ids=[f"{name}.{column}-{i}" for i, (name, column, _) in enumerate(COLUMN_REJECTS)])
def test_column_rejects_a_value_its_cast_would_change(name, column, value):
    with pytest.raises(SchemaError, match=f"^{name} has '{column}' = .+, expected ") as exc:
        _table(name, **{column: value})
    assert str(pickle.loads(pickle.dumps(exc.value))) == str(exc.value)


# (class, column, a value the column stores cast to its dtype, every value unchanged, and that dtype).
COLUMN_ACCEPTS = [
    ("RawTrajectory", "timestamps", [0, 1], np.float64),  # integers in a float column, as JSON numbers are
    ("RawTrajectory", "positions", np.zeros((2, 3), dtype=np.int32), np.float64),
    ("RawTrajectory", "timestamps", np.array([0.0, 0.1], dtype=np.float32), np.float64),
    ("DetectionTable", "frames", np.array([2, 5], dtype=np.uint8), np.int64),
    ("DetectionTable", "bboxes", np.asfortranarray([[0.0, 0.0, 1.0, 1.0]]), np.float64),
    ("PredictionTable", "arrival_label", np.array([1, 0], dtype=np.int8).view(bool), np.bool_),
]


@pytest.mark.parametrize("name, column, value, dtype", COLUMN_ACCEPTS,
                         ids=[f"{name}.{column}-{i}" for i, (name, column, _, _) in enumerate(COLUMN_ACCEPTS)])
def test_column_casts_where_no_value_changes(name, column, value, dtype):
    stored = getattr(_table(name, **{column: value}), column)
    assert stored.dtype == dtype
    assert np.array_equal(stored, np.asarray(value))
    assert stored.flags.c_contiguous and not stored.flags.writeable


@pytest.mark.parametrize("dtype", [float, np.int64, bool, str, object, complex])
def test_empty_column_of_any_dtype(dtype):
    empty = np.array([], dtype=dtype)
    table = DetectionTable(empty, [0], empty, (), empty, empty.reshape(0, 4))
    assert len(table) == 0
    assert [table.frames.dtype, table.labels.dtype, table.scores.dtype] == [np.int64, np.int64, np.float64]


def test_column_of_its_own_dtype_is_a_read_only_view():
    scores = np.array([0.5])
    table = _table("DetectionTable", scores=scores)
    assert np.shares_memory(table.scores, scores)
    assert not table.scores.flags.writeable
    assert scores.flags.writeable  # the caller's array is left as it was


def test_unpickled_table_is_checked_and_read_only_again():
    table = pickle.loads(pickle.dumps(_table("PredictionTable")))
    assert not table.arrival_label.flags.writeable and table.arrival_label.dtype == bool


# ---------------------------------------------------------------------------
# The column pass compiled from a record class
# ---------------------------------------------------------------------------


@schema.record
@dataclasses.dataclass(frozen=True)
class _Part:
    name: str
    size: float

    __post_init__ = schema.check


@schema.record
@dataclasses.dataclass(frozen=True)
class _EveryKind:
    """A record with a field of each kind the column pass supports, and one declared rule (which bounds the int)."""

    count: int
    weight: float
    name: str
    flag: bool
    box: tuple[float, float, float]
    sizes: tuple[float, ...]
    path: tuple[tuple[float, float], ...]
    parts: tuple[_Part, ...]
    level: float | None = None
    seen: bool | None = None

    rules = (("0 <= count <= len(path)", "count must be in [0, {len(path)}], the path's points, got {count!r}"),)
    __post_init__ = schema.check


@schema.record
@dataclasses.dataclass(frozen=True)
class _AllOptional:
    size: float = 1.0
    tag: str | None = None

    __post_init__ = schema.check


EVERY_KIND = {"count": 2, "weight": 0.5, "name": "a", "flag": True, "box": [0, 1.5, 2], "sizes": [3, 4.5],
              "path": [[0, 1], [2.5, -3]], "parts": [{"name": "p", "size": 1}, {"name": "q", "size": 0.5, "extra": 1}],
              "level": 0.25, "seen": False}
# The rejections a take raises, as io._records catches them.
REJECTED = (KeyError, TypeError, ValueError, OverflowError)


@pytest.mark.parametrize("cls, valid", [(_EveryKind, EVERY_KIND), (_AllOptional, {"size": 2})],
                         ids=["every-kind", "all-optional"])
def test_column_pass_accepts_exactly_what_the_decoder_accepts(cls, valid):
    decode = schema.decoder(cls)
    cases = 0
    for site in _sites(valid):
        for value in PARITY_POOL + [-1, 2**63, math.inf]:
            try:
                obj = json.loads(_dumps(_replaced(valid, site, value)))
            except RecursionError:  # the list nested past json's limit is a parse error before any pass
                continue
            try:
                decode(obj)
                want = True
            except ValidationError:
                want = False
            take, _ = schema.columns(cls, coded=["name"] if cls is _EveryKind else ())
            try:
                take(obj)
                got = True
            except REJECTED:
                got = False
            assert got == want, (site, value)
            cases += 1
    assert cases >= 15 * len(list(_sites(valid)))


def test_column_pass_columns():
    take, cols = schema.columns(_EveryKind, coded=["parts.name"])
    take(EVERY_KIND)
    # The optional fields left out; one size, no parts.
    required = {key: value for key, value in EVERY_KIND.items() if key not in ("level", "seen")}
    take(required | {"sizes": [1], "parts": []})
    take(EVERY_KIND | {"name": "b", "parts": [{"name": "r", "size": 2}, {"name": "p", "size": 3}]})
    assert {key: (type(col).__name__, list(col)) for key, col in cols.items()} == {
        "count": ("array", [2, 2, 2]),
        "weight": ("array", [0.5, 0.5, 0.5]),
        "name": ("list", ["a", "a", "b"]),
        "flag": ("array", [1, 1, 1]),
        "box": ("array", [0.0, 1.5, 2.0] * 3),
        "sizes.ends": ("array", [2, 3, 5]),
        "sizes": ("array", [3.0, 4.5, 1.0, 3.0, 4.5]),
        "path.ends": ("array", [2, 4, 6]),
        "path": ("array", [0.0, 1.0, 2.5, -3.0] * 3),
        "parts.ends": ("array", [2, 2, 4]),
        "parts.name": ("array", [0, 1, 2, 0]),
        "parts.name.names": ("dict", ["p", "q", "r"]),
        "parts.size": ("array", [1.0, 0.5, 2.0, 3.0]),
        "level": ("array", [0.25, 0.0, 0.25]),
        "level.null": ("array", [0, 1, 0]),
        "seen": ("array", [0, 0, 0]),
        "seen.null": ("array", [0, 1, 0]),
    }
    assert cols["parts.name.names"] == {"p": 0, "q": 1, "r": 2}


@schema.record
@dataclasses.dataclass(frozen=True)
class _Bounded:
    """A record whose rule names a constant of this module, which is bound only after the class is made."""

    size: int

    rules = (("0 <= size <= _SIZE_LIMIT", "size must be in [0, {_SIZE_LIMIT}], got {size!r}"),)
    __post_init__ = schema.check


_SIZE_LIMIT = 3


@pytest.mark.parametrize("size", [-1, 0, 3, 4, 2**63])
def test_rule_names_resolve_in_the_module_of_the_class(size):
    valid = 0 <= size <= 3
    outcomes = []
    for build in (_Bounded, lambda size: schema.decoder(_Bounded)({"size": size})):
        try:
            assert build(size).size == size
            outcomes.append(True)
        except ValidationError as exc:
            assert str(exc) == f"size must be in [0, 3], got {size}"
            outcomes.append(False)
    take, cols = schema.columns(_Bounded)
    try:
        take({"size": size})
        outcomes.append(list(cols["size"]) == [size])
    except REJECTED:
        outcomes.append(False)
    assert outcomes == [valid] * 3


def test_declared_rule_is_checked_by_the_constructor():
    with pytest.raises(ValidationError, match=r"^count must be in \[0, 1\], the path's points, got 2$"):
        _EveryKind(2, 0.5, "a", True, (0.0, 1.0, 2.0), (3.0,), ((0.0, 1.0),), ())


@pytest.mark.parametrize(
    "tp",
    [dict, tuple[str, str], tuple[int, float], tuple[tuple[int, ...], ...], tuple[float, ...] | None, int | str,
     LossWeights, tuple[LossWeights, ...], tuple[Detection, ...]],
    ids=repr,
)
def test_column_pass_rejects_an_unsupported_hint_when_compiled(tp):
    cls = schema.record(dataclasses.make_dataclass("Odd", [("x", tp)], frozen=True))
    with pytest.raises(TypeError):
        schema.columns(cls)
