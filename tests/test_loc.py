"""tools/loc.py: line counts per module, and their change since a git revision."""

import subprocess
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


def _git(repo: Path, *args: str) -> None:
    config = ["-c", "user.name=loc", "-c", "user.email=loc@example.com", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", *config, *args], cwd=repo, check=True, capture_output=True)


def _loc(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LOC), *argv], capture_output=True, text=True, timeout=60)


def test_counts_now_at_a_base_revision_and_the_change(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "kept.py").write_text('"""Doc."""\n\nX = 1\n')
    (src / "gone.py").write_text("Y = 2\nZ = 3\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "base")
    (src / "kept.py").write_text('"""Doc."""\n\nX = 1\n# a comment\nW = [\n    2,\n]\n')
    (src / "gone.py").unlink()
    (src / "new.py").write_text("V = 4\n")

    proc = _loc(str(src), "--base", "HEAD")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["module", "base", "wc", "-l", "base", "code", "wc", "-l", "code", "+/-", "wc", "-l",
                              "+/-", "code"]
    # Per module: wc -l and code lines at the base, now, and the change; an absent module counts 0.
    assert {line.split()[0]: line.split()[1:] for line in lines} == {
        "gone.py": ["2", "2", "0", "0", "-2", "-2"],
        "kept.py": ["3", "1", "7", "4", "+4", "+3"],
        "new.py": ["0", "0", "1", "1", "+1", "+1"],
        "total": ["5", "3", "8", "5", "+3", "+2"],
    }
    proc = _loc(str(src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["total", "8", "5"]


def test_unknown_revision_fails_with_the_git_error(tmp_path):
    _git(tmp_path, "init", "-q")
    proc = _loc(str(tmp_path), "--base", "no-such-rev")
    assert proc.returncode == 1
    assert "no-such-rev" in proc.stderr
