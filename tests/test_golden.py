"""Golden bytes: synth -> segment -> filter -> samples -> eval on a small composite stream.

Every output file's sha256 must equal the constant below, so a change to
the byte contract fails tier-1 and not only the benchmark's digest check.
The stream chains an arc, a pitch sinusoid and a head turn (60 s at
10 fps, three 20 s clips): the composite's yaw offsets, the clip
re-anchoring, the pitch and yaw filters and the ego projection all run.
eval scores predictions derived from samples.jsonl: each sample's
waypoints are the ground truth, the prediction is each waypoint scaled by
0.9, and the arrival label and prediction come from the sample's arrival
flag. A change that moves these bytes on purpose updates the constants and
says why.
"""

import hashlib
import json
from pathlib import Path

from navcurate.cli import main

SPEC = {
    "trajectory": {
        "kind": "composite",
        "traj_id": "gold",
        "parts": [
            {"kind": "arc", "duration_s": 20.0, "fps": 10.0, "yaw_rate_dps": 3.0},
            {"kind": "sinusoid_pitch", "duration_s": 20.0, "fps": 10.0, "amplitude_deg": 4.0, "period_s": 5.0},
            {"kind": "head_turn", "duration_s": 20.0, "fps": 10.0, "turn_deg": 80.0, "turn_start_s": 8.0,
             "turn_len_s": 4.0},
        ],
    },
    "detections": {"spans": [{"start": 40, "frames": 5, "count": 3}, {"start": 130, "frames": 2, "count": 7}]},
    "landmarks": {"per_clip": 4, "seed": 11, "clip_seconds": 20.0},
}

# Captured at the commit before the broadcast quaternion kernels; the four manifests (clips/manifest.json,
# report.json, samples.jsonl.manifest.json, synth/manifest.json) since their inputs are keyed by role;
# metrics.json at the commit before the stages built their manifests through one helper; clips/manifest.json,
# report.json (which digests it) and samples.jsonl.manifest.json again since the clip manifest lists each pose
# file's sha256 and the samples manifest that of samples.jsonl; synth/manifest.json again since it records its
# spec by digest (inputs.spec) only, without a copy of the spec under config.
GOLDEN = {
    "clips/gold_0000.txt": "0171dea39ad2cf7afda3995b80e4a412a5426025f800d07157f51c8cafea22b7",
    "clips/gold_0001.txt": "fee2a470c51acfa6d2e89428f0935daa4ba836f783db1196bf6fe911804c5f55",
    "clips/gold_0002.txt": "e5afc41a292b8e0565bc11f1f3406b9b5aa0f8783bacc3356d982deec8a5c576",
    "clips/manifest.json": "4463e2c6b4257c3ecddaf5988fb1c500b244092e978a3ef6e3bb75071c0f1996",
    "metrics.json": "a15e3173a32a8c0d1d8c550ba1db66584f94a88f15e09a30bd4635eed2e15433",
    "report.json": "e08fbe2b4d37f0139b8490dcff39b9436683a8352e18172dcfc2475210ae1fe6",
    "report.json.accepted": "6f8a3bfa39465ababfc0e17c03c2e1be6af158d8137d49b1ae7328d752733d36",
    "samples.jsonl": "93ab01899f7671adcd901bec7dbcd4c99f5ff71f23c8f9a83cee55c0aea3316f",
    "samples.jsonl.manifest.json": "f4ae409bbda9d17392636cd93cb56ee991eba33ca29187e3af45ca458aeffecb",
    "synth/detections.jsonl": "c53697904a58e20c3323a5b704f9bb14cfe21026e9f7b8567964abde62862452",
    "synth/gold.txt": "7076838bcdf5bf3542a597f94732a0090a202ebcc5a4e8e218bc4559205f86c1",
    "synth/landmarks.jsonl": "f1edf22eb08e283f0a6882d27c1f09137ede45ebf004a3fe0fd77a9958d3c83a",
    "synth/manifest.json": "74901272f5443e6ee3ac2022bd3ad83eba331ddb23275f1254e1ae67d9e51374",
}


def _run_pipeline() -> None:
    Path("spec.json").write_text(json.dumps(SPEC))
    assert main(["synth", "--spec", "spec.json", "--out", "synth"]) == 0
    assert main(["segment", "--input", "synth/gold.txt", "--fps", "10", "--clip-seconds", "20",
                 "--out", "clips", "--workers", "1"]) == 0
    assert main(["filter", "--clips", "clips", "--detections", "synth/detections.jsonl", "--report", "report.json",
                 "--world-up=-y", "--workers", "1"]) == 0
    assert main(["samples", "--clips", "clips", "--landmarks", "synth/landmarks.jsonl",
                 "--accepted", "report.json.accepted", "--out", "samples.jsonl", "--seed", "5",
                 "--draws-per-landmark", "3", "--world-up=-y", "--workers", "1"]) == 0
    with open("predictions.jsonl", "w") as out:
        for line in Path("samples.jsonl").read_text().splitlines():
            sample = json.loads(line)
            record = {
                "sample_id": sample["sample_id"],
                "predicted": [[0.9 * x, 0.9 * y] for x, y in sample["waypoints"]],
                "ground_truth": sample["waypoints"],
                "predicted_arrival": 1.0 if sample["arrival"] else 0.0,
                "arrival_label": sample["arrival"],
            }
            out.write(json.dumps(record) + "\n")
    assert main(["eval", "--pred", "predictions.jsonl", "--out", "metrics.json"]) == 0


def test_stage_outputs_keep_their_bytes(tmp_path, monkeypatch):
    # The pipeline writes its files under the working directory.
    monkeypatch.chdir(tmp_path)
    _run_pipeline()
    digests = {
        path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(".").rglob("*"))
        if path.is_file() and path.name not in ("spec.json", "predictions.jsonl")
    }
    assert json.loads(Path("report.json").read_text())["counts"]["rejected_by_reason"] == {"view_divergence": 1}
    assert digests == GOLDEN
