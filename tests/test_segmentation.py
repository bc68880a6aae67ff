import json

import numpy as np
import pytest

from navcurate.errors import EmptyResult, ValidationError
from navcurate.io import RawTrajectory
from navcurate.segmentation import Clip, load_clips, save_clips, segment

from conftest import quat_close, random_unit_quat
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
        clips = segment(traj, clip_seconds=120.0)
        assert len(clips) == 2
        assert all(len(c) == 3600 for c in clips)
        assert [c.clip_id for c in clips] == ["walk_0000", "walk_0001"]

    def test_below_one_clip_is_empty_result(self, rng):
        traj = random_trajectory(rng, 3599)
        with pytest.raises(EmptyResult):
            segment(traj, clip_seconds=120.0)

    def test_trailing_partial_dropped(self, rng):
        traj = random_trajectory(rng, 3600 + 1200)
        clips = segment(traj, clip_seconds=120.0)
        assert len(clips) == 1

    def test_first_pose_is_identity(self, rng):
        for clip in segment(random_trajectory(rng, 240, fps=1.0), clip_seconds=60.0):
            assert np.linalg.norm(clip.positions[0]) <= 1e-9
            assert quat_close(clip.quaternions[0], [0, 0, 0, 1])

    def test_frame_ranges_tile_a_prefix(self, rng):
        traj = random_trajectory(rng, 1000, fps=10.0)
        clips = segment(traj, clip_seconds=30.0)
        expected_start = 0
        for clip in clips:
            assert clip.start_frame == expected_start
            expected_start += len(clip)
        assert expected_start <= len(traj)
        assert len(traj) - expected_start < 300

    def test_invalid_clip_seconds(self, rng):
        traj = random_trajectory(rng, 100)
        with pytest.raises(ValidationError):
            segment(traj, clip_seconds=0.0)

    def test_reanchoring_preserves_relative_transforms(self, rng):
        traj = random_trajectory(rng, 120, fps=4.0)
        clips = segment(traj, clip_seconds=10.0)
        for clip in clips:
            for _ in range(10):
                i, j = rng.integers(0, len(clip), size=2)
                rel_clip = relative_pose(pose_at(clip, i), pose_at(clip, j))
                rel_raw = relative_pose(pose_at(traj, clip.start_frame + i), pose_at(traj, clip.start_frame + j))
                assert np.allclose(rel_clip.position, rel_raw.position, atol=1e-9)
                assert quat_close(rel_clip.orientation, rel_raw.orientation, tol=1e-9)

    def test_timestamps_preserved(self, rng):
        traj = random_trajectory(rng, 200, fps=5.0)
        clips = segment(traj, clip_seconds=20.0)
        for clip in clips:
            assert np.array_equal(clip.timestamps, traj.timestamps[clip.start_frame : clip.start_frame + len(clip)])


class TestClipInvariants:
    def test_rejects_non_identity_anchor(self, rng):
        with pytest.raises(ValidationError):
            Clip(
                clip_id="c",
                source_id="s",
                fps=30.0,
                timestamps=np.array([0.0]),
                positions=np.array([[1.0, 0.0, 0.0]]),
                quaternions=np.array([[0.0, 0.0, 0.0, 1.0]]),
                start_frame=0,
            )


class TestSaveLoad:
    def test_round_trip(self, rng, tmp_path):
        traj = random_trajectory(rng, 400, fps=8.0)
        clips = segment(traj, clip_seconds=25.0)
        save_clips(clips, tmp_path / "clips", extra={"stage": "segment"})
        loaded = load_clips(tmp_path / "clips")
        assert [c.clip_id for c in loaded] == [c.clip_id for c in clips]
        for a, b in zip(clips, loaded):
            assert a.start_frame == b.start_frame
            assert a.source_id == b.source_id
            assert a.fps == b.fps
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.quaternions, b.quaternions)

    def test_truncated_clip_file_rejected(self, rng, tmp_path):
        clips = segment(random_trajectory(rng, 400, fps=8.0), clip_seconds=25.0)
        save_clips(clips, tmp_path / "clips")
        path = tmp_path / "clips" / f"{clips[1].clip_id}.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-5]))
        with pytest.raises(ValidationError, match="clip entry 1 lists 200 frames"):
            load_clips(tmp_path / "clips")

    @pytest.mark.parametrize("start_frame", [2**63 - 200, 10**400], ids=["last-frame-past-int64", "huge"])
    def test_start_frame_beyond_int64_rejected(self, rng, tmp_path, start_frame):
        # Source frame indices are int64 in the detection table, so the clip's last frame must fit.
        clips = segment(random_trajectory(rng, 400, fps=8.0), clip_seconds=25.0)
        manifest_path = save_clips(clips, tmp_path / "clips")
        manifest = json.loads(manifest_path.read_text())
        manifest["clips"][1]["start_frame"] = start_frame
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="start_frame"):
            load_clips(tmp_path / "clips")
