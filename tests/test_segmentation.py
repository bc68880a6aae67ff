import dataclasses
import hashlib
import json

import numpy as np
import pytest

from navcurate.errors import EmptyResult, ValidationError
from navcurate.io import RawTrajectory
from navcurate.segmentation import ClipEntry, load_clip, read_manifest, save_clips, segment

from conftest import clips_of, quat_close, random_unit_quat
from oracles import pose_at, relative_pose


def random_trajectory(rng, n, fps=30.0, traj_id="walk"):
    return RawTrajectory(
        traj_id,
        fps,
        np.arange(n) / fps,
        rng.uniform(-20.0, 20.0, (n, 3)),
        np.stack([random_unit_quat(rng) for _ in range(n)]),
    )


class TestSegment:
    def test_two_full_clips(self, rng):
        traj = random_trajectory(rng, 7200)
        clips = clips_of(traj, clip_seconds=120.0)
        assert len(clips) == 2
        assert all(e.n_frames == len(c) == 3600 for e, c in clips)
        assert [e.clip_id for e, _ in clips] == [c.id for _, c in clips] == ["walk_0000", "walk_0001"]

    def test_below_one_clip_is_empty_result(self, rng):
        traj = random_trajectory(rng, 3599)
        with pytest.raises(EmptyResult):
            segment(traj, clip_seconds=120.0)

    def test_trailing_partial_dropped(self, rng):
        traj = random_trajectory(rng, 3600 + 1200)
        clips = segment(traj, clip_seconds=120.0)
        assert len(clips) == 1

    def test_first_pose_is_identity(self, rng):
        for _, clip in clips_of(random_trajectory(rng, 240, fps=1.0), clip_seconds=60.0):
            assert np.linalg.norm(clip.positions[0]) <= 1e-9
            assert quat_close(clip.quaternions[0], [0, 0, 0, 1])

    def test_frame_ranges_tile_a_prefix(self, rng):
        traj = random_trajectory(rng, 1000, fps=10.0)
        clips = clips_of(traj, clip_seconds=30.0)
        expected_start = 0
        for entry, clip in clips:
            assert entry.start_frame == expected_start
            expected_start += len(clip)
        assert expected_start <= len(traj)
        assert len(traj) - expected_start < 300

    def test_invalid_clip_seconds(self, rng):
        traj = random_trajectory(rng, 100)
        with pytest.raises(ValidationError):
            segment(traj, clip_seconds=0.0)

    def test_reanchoring_preserves_relative_transforms(self, rng):
        traj = random_trajectory(rng, 120, fps=4.0)
        clips = clips_of(traj, clip_seconds=10.0)
        for entry, clip in clips:
            for _ in range(10):
                i, j = rng.integers(0, len(clip), size=2)
                rel_clip = relative_pose(pose_at(clip, i), pose_at(clip, j))
                rel_raw = relative_pose(pose_at(traj, entry.start_frame + i), pose_at(traj, entry.start_frame + j))
                assert np.allclose(rel_clip.position, rel_raw.position, atol=1e-9)
                assert quat_close(rel_clip.orientation, rel_raw.orientation, tol=1e-9)

    def test_timestamps_preserved(self, rng):
        traj = random_trajectory(rng, 200, fps=5.0)
        clips = clips_of(traj, clip_seconds=20.0)
        for entry, clip in clips:
            assert np.array_equal(clip.timestamps, traj.timestamps[entry.start_frame : entry.start_frame + len(clip)])


class TestClipInvariants:
    def _damage_pose_0(self, rng, tmp_path, changes):
        """Save clips, rewrite columns of pose 0 of clip 1, and return the error load_clip raises."""
        traj = random_trajectory(rng, 400, fps=8.0)
        entries = segment(traj, clip_seconds=25.0)
        save_clips(traj, entries, tmp_path / "clips")
        path = tmp_path / "clips" / entries[1].file
        lines = path.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[first].split()
        for column, value in changes.items():
            fields[column] = value
        lines[first] = " ".join(fields) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValidationError) as exc:
            load_all(tmp_path / "clips")
        return str(exc.value)

    def test_rejects_non_identity_anchor(self, rng, tmp_path):
        error = self._damage_pose_0(rng, tmp_path, {1: "1.0"})  # pose 0 moves 1 m off the origin
        manifest = tmp_path / "clips" / "manifest.json"
        assert error == f"{manifest}: clip entry 1: pose 0 of walk_0001.txt must sit at the local origin"

    def test_rejects_turned_anchor(self, rng, tmp_path):
        error = self._damage_pose_0(rng, tmp_path, {4: "1.0", 7: "0.0"})  # pose 0 turns half a turn about x
        manifest = tmp_path / "clips" / "manifest.json"
        assert error == f"{manifest}: clip entry 1: pose 0 of walk_0001.txt must have identity orientation"

    @pytest.mark.parametrize(
        "field, value",
        [("start_frame", 2.7), ("start_frame", True), ("start_frame", np.int64(3)), ("fps", True), ("fps", "30")],
        ids=repr,
    )
    def test_values_never_coerced(self, field, value):
        args = dict(clip_id="c", source_id="s", fps=30.0, start_frame=0, n_frames=1, file="c.txt")
        assert ClipEntry(**args).start_frame == 0
        with pytest.raises(ValidationError, match=field):
            ClipEntry(**{**args, field: value})


def load_all(clip_dir):
    return [load_clip(clip_dir, entry, i) for i, entry in enumerate(read_manifest(clip_dir))]


class TestSaveLoad:
    def test_round_trip(self, rng, tmp_path):
        traj = random_trajectory(rng, 400, fps=8.0)
        clips = clips_of(traj, clip_seconds=25.0)
        save_clips(traj, segment(traj, clip_seconds=25.0), tmp_path / "clips", extra={"stage": "segment"})
        entries = read_manifest(tmp_path / "clips")
        assert [dataclasses.replace(entry, sha256=None) for entry in entries] == [entry for entry, _ in clips]
        files = [(tmp_path / "clips" / entry.file).read_bytes() for entry in entries]
        assert [entry.sha256 for entry in entries] == [hashlib.sha256(data).hexdigest() for data in files]
        loaded = load_all(tmp_path / "clips")
        assert [c.id for c in loaded] == [c.id for _, c in clips]
        for (_, a), b in zip(clips, loaded):
            assert a.fps == b.fps
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.quaternions, b.quaternions)

    def test_truncated_clip_file_rejected(self, rng, tmp_path):
        traj = random_trajectory(rng, 400, fps=8.0)
        entries = segment(traj, clip_seconds=25.0)
        save_clips(traj, entries, tmp_path / "clips")
        path = tmp_path / "clips" / entries[1].file
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-5]))
        with pytest.raises(ValidationError, match="clip entry 1 lists 200 frames"):
            load_all(tmp_path / "clips")

    @pytest.mark.parametrize("start_frame", [2**63 - 200, 10**400], ids=["last-frame-past-int64", "huge"])
    def test_start_frame_beyond_int64_rejected(self, rng, tmp_path, start_frame):
        # Source frame indices are int64 in the detection table, so the clip's last frame must fit.
        traj = random_trajectory(rng, 400, fps=8.0)
        manifest_path = save_clips(traj, segment(traj, clip_seconds=25.0), tmp_path / "clips")
        manifest = json.loads(manifest_path.read_text())
        manifest["clips"][1]["start_frame"] = start_frame
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="start_frame"):
            read_manifest(tmp_path / "clips")
