"""tools/scale_probe.py at tiny sizes, run as its own process as CI runs it."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parents[1] / "tools" / "scale_probe.py"

# Per stage: tiny-size arguments, the JSON keys it prints in order, and the output file its digest is of.
STAGES = {
    "eval": (["--records", "2000"], ["records", "wall_s", "cpu_s", "peak_rss_mb", "metrics_sha256"], "metrics.json"),
    "synth": (["--poses", "3000", "--workers", "2"], ["poses", "workers", "wall_s", "cpu_s", "peak_rss_mb", "sha256"],
              "out/arc.txt"),
    # Two 3,600-pose clips.
    "segment": (["--poses", "7200", "--workers", "2"],
                ["poses", "clips", "workers", "wall_s", "cpu_s", "peak_rss_mb", "manifest_sha256"], "clips/manifest.json"),
    # Two clips of 20 landmarks, two draws each.
    "samples": (["--poses", "7200", "--per-clip", "20", "--draws", "2", "--workers", "2"],
                ["poses", "clips", "landmarks", "samples", "workers", "wall_s", "cpu_s", "peak_rss_mb", "sha256"],
                "samples.jsonl"),
    # Two clips, one detection record of 0-3 boxes per pose.
    "filter": (["--poses", "7200", "--workers", "2"],
               ["poses", "clips", "accepted", "workers", "wall_s", "cpu_s", "peak_rss_mb", "sha256"], "report.json"),
}


def run_probe(*argv):
    return subprocess.run([sys.executable, str(PROBE), *argv], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("stage", STAGES)
def test_prints_one_line_of_the_stage_keys(tmp_path, stage):
    args, keys, output = STAGES[stage]
    proc = run_probe(stage, *args, "--workdir", str(tmp_path / "work"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    [line] = proc.stdout.splitlines()
    result = json.loads(line)
    assert list(result) == keys
    assert result[keys[0]] == int(args[1])
    assert result[keys[-1]] == hashlib.sha256((tmp_path / "work" / output).read_bytes()).hexdigest()


def test_peak_above_the_limit_exits_1():
    args, keys, _ = STAGES["eval"]
    proc = run_probe("eval", *args, "--max-rss-mb", "1")
    assert proc.returncode == 1
    assert list(json.loads(proc.stdout)) == keys
    assert "is above --max-rss-mb 1.0" in proc.stderr


def test_failed_stage_exits_1(tmp_path):
    proc = run_probe("eval", "--records", "0", "--workdir", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith('eval exited 3: {"error": "empty"')


def test_parent_imports_neither_numpy_nor_navcurate():
    # A child inherits its parent's RSS high-water mark, so the probe's own process must stay small.
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('scale_probe', sys.argv[1])\n"
        "probe = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(probe)\n"
        "assert probe.main(['eval', '--records', '20']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'navcurate')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(PROBE)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
