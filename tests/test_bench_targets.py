"""The benchmark's trace targets name functions the package still has.

`perfbench/spans.py` wraps each `(module, attr)` of its TARGETS and skips
a name the package no longer has, so that layer's metrics read 0 without
an error. This test makes such a rename fail here instead. The targets
in DEAD are already gone; they leave this list when the benchmark's
targets are next updated.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

DEAD = {
    ("navcurate.cli", "load_clips"),
    ("navcurate.sampling", "to_ego_waypoint"),
    ("navcurate.metrics", "discrete_frechet"),
}


def _targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS]


def test_every_live_target_resolves():
    missing = {(module, attr) for module, attr in _targets() if not hasattr(importlib.import_module(module), attr)}
    assert missing == DEAD
