"""The Python example and the quick start in README.md run as written, against the sources in src/."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_python_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    # The example writes its detection and prediction files to the working directory.
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_quick_start_runs(tmp_path):
    blocks = [block for block in re.findall(r"```sh\n(.*?)```", README, re.S) if "navcurate synth" in block]
    assert len(blocks) == 1
    # `navcurate` is the installed entry point; here it runs the CLI module on src/.
    script = f'navcurate() {{ {shlex.quote(sys.executable)} -m navcurate.cli "$@"; }}\n' + blocks[0]
    proc = subprocess.run(
        ["bash", "-e", "-c", script], cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in ("clips/manifest.json", "report.json", "samples.jsonl", "metrics.json"):
        assert (tmp_path / name).is_file(), name
    assert '"loss_total"' in proc.stdout
