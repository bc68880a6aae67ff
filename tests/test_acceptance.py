"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; nothing is calibrated later.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from hashlib import sha256
from pathlib import Path

import numpy as np
import scipy.stats

from navcurate.cli import main
from navcurate.errors import GimbalDegenerate
from navcurate.filters import (
    REASON_CROWD,
    REASON_DIVERGENCE,
    REASON_PITCH,
    FilterConfig,
    run_filters,
)
from navcurate.geometry import quat_from_axis_angle, quat_multiply, quat_rotate
from navcurate.io import RawTrajectory, parse_samples, write_predictions, PredictionRecord
from navcurate.losses import loss_arr, loss_hall, loss_ori, loss_reg
from navcurate.metrics import ade, aoe, discrete_frechet, maoe
from navcurate.sampling import SamplerConfig, build_clip_samples, draw_start
from navcurate.segmentation import segment
from navcurate.synth import (
    CLIP_CONVENTION,
    RAW_CONVENTION,
    SynthSpec,
    generate,
    generate_detections,
    generate_landmarks,
)

from conftest import quat_close
from oracles import Pose, pose_at, relative_pose, to_ego_waypoint
from test_losses import central_diff, nondegenerate_waypoints, rel_error
from test_metrics import brute_force_frechet, prepend_origin


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def clip_of(spec, clip_seconds=120.0):
    return segment(generate(spec), clip_seconds)[0]


def test_criterion_01_frechet_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    with criterion(1, "discrete Frechet matches brute-force coupling enumeration"):
        for _ in range(1000):
            p = rng.uniform(-10, 10, size=(int(rng.integers(1, 7)), 2))
            q = rng.uniform(-10, 10, size=(int(rng.integers(1, 7)), 2))
            got = discrete_frechet(p, q)
            want = brute_force_frechet(prepend_origin(p), prepend_origin(q))
            assert abs(got - want) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_02_metric_fixed_points():
    with criterion(2, "perfect and antiparallel metric fixed points"):
        rng = np.random.default_rng(202)
        for _ in range(20):
            wps = np.cumsum(rng.uniform(0.1, 1.0, size=(8, 2)), axis=0)
            assert aoe(wps, wps) == 0.0
            assert maoe(wps, wps) == 0.0
            assert ade(wps, wps) == 0.0
            assert discrete_frechet(wps, wps) == 0.0
        pred = np.array([[float(i), 0.0] for i in range(1, 9)])
        assert abs(aoe(pred, -pred) - 180.0) <= 1e-9
        assert abs(maoe(pred, -pred) - 180.0) <= 1e-9


def test_criterion_03_filter_boundary_suite():
    cfg = FilterConfig()  # thresholds 15 deg, 60 deg, >5 persons, >3 frames
    with criterion(3, "filter boundary suite (nine exact verdicts)"):
        def verdict(spec, counts=None):
            clip = clip_of(spec)
            detections = generate_detections(len(clip), counts or [])
            return run_filters(clip, detections, cfg, CLIP_CONVENTION)

        straight = SynthSpec("straight")
        v1 = verdict(SynthSpec("sinusoid_pitch", amplitude_deg=10.0))
        assert (v1.accepted, v1.reasons) == (False, (REASON_PITCH,))
        v2 = verdict(SynthSpec("sinusoid_pitch", amplitude_deg=5.0))
        assert v2.accepted
        v3 = verdict(SynthSpec("head_turn", turn_deg=75.0, turn_start_s=30.0, turn_len_s=3.0))
        assert (v3.accepted, v3.reasons) == (False, (REASON_DIVERGENCE,))
        v4 = verdict(SynthSpec("head_turn", turn_deg=45.0, turn_start_s=30.0, turn_len_s=3.0))
        assert v4.accepted
        v5 = verdict(straight, [6] * 4)
        assert (v5.accepted, v5.reasons) == (False, (REASON_CROWD,))
        v6 = verdict(straight, [6] * 3)
        assert v6.accepted
        v7 = verdict(straight, [5] * 5)
        assert v7.accepted
        v8 = verdict(straight)
        assert (v8.accepted, v8.reasons) == (True, ())
        v9 = verdict(SynthSpec("sinusoid_pitch", amplitude_deg=10.0), [6] * 4)
        assert (v9.accepted, v9.reasons) == (False, (REASON_CROWD, REASON_PITCH))


def test_criterion_04_filter_monotonicity():
    rng = np.random.default_rng(404)
    with criterion(4, "loosening any threshold never flips accept to reject"):
        clips = []
        for i in range(50):
            kind = i % 4
            if kind == 0:
                spec = SynthSpec("sinusoid_pitch", duration_s=30.0, fps=10.0,
                                 amplitude_deg=float(rng.uniform(2, 18)))
            elif kind == 1:
                turn_len = float(rng.uniform(2.0, 6.0))
                spec = SynthSpec("head_turn", duration_s=30.0, fps=10.0,
                                 turn_deg=float(rng.uniform(10, 100)),
                                 turn_start_s=float(rng.uniform(1.0, 20.0)), turn_len_s=turn_len)
            elif kind == 2:
                spec = SynthSpec("arc", duration_s=30.0, fps=10.0, yaw_rate_dps=float(rng.uniform(1, 20)))
            else:
                spec = SynthSpec("straight", duration_s=30.0, fps=10.0)
            clip = clip_of(spec, clip_seconds=30.0)
            detections = generate_detections(len(clip), list(rng.integers(0, 9, size=20)))
            clips.append((clip, detections))
        for trial in range(200):
            clip, detections = clips[trial % len(clips)]
            cfg = FilterConfig(
                pitch_range_max_deg=float(rng.uniform(3, 30)),
                divergence_max_deg=float(rng.uniform(15, 90)),
                crowd_count_threshold=int(rng.integers(1, 9)),
                crowd_frame_threshold=int(rng.integers(1, 8)),
            )
            loose = FilterConfig(
                pitch_range_max_deg=cfg.pitch_range_max_deg + float(rng.uniform(0, 25)),
                divergence_max_deg=cfg.divergence_max_deg + float(rng.uniform(0, 60)),
                crowd_count_threshold=cfg.crowd_count_threshold + int(rng.integers(0, 5)),
                crowd_frame_threshold=cfg.crowd_frame_threshold + int(rng.integers(0, 5)),
            )
            before = run_filters(clip, detections, cfg, CLIP_CONVENTION)
            after = run_filters(clip, detections, loose, CLIP_CONVENTION)
            assert not (before.accepted and not after.accepted), f"trial {trial} flipped"


def test_criterion_05_sampler_law():
    with criterion(5, "start-draw law: bounds and chi-squared uniformity"):
        cfg = SamplerConfig()  # min 10, max 60, arrival window 2 by default
        rng = np.random.default_rng(505)
        draws = [draw_start(100, cfg, rng) for _ in range(10_000)]
        arrival = [t for t in draws if 100 - t <= cfg.arrival_window]
        regular = [t for t in draws if 100 - t > cfg.arrival_window]
        assert all(40 <= t <= 90 for t in regular)
        assert all(98 <= t <= 100 for t in arrival)
        assert len(arrival) > 0
        counts = np.bincount(np.array(regular) - 40, minlength=51)
        result = scipy.stats.chisquare(counts)
        assert result.pvalue > 0.01, f"chi-squared p={result.pvalue:.4f}"


def test_criterion_06_waypoint_consistency():
    rng = np.random.default_rng(606)
    cfg = SamplerConfig()
    with criterion(6, "stored waypoints match re-derivation through the raw frame"):
        checked = 0
        for i in range(100):
            kind = ("straight", "arc", "head_turn", "sinusoid_pitch")[i % 4]
            spec = SynthSpec(
                kind,
                duration_s=40.0,
                fps=10.0,
                speed_mps=float(rng.uniform(0.8, 2.2)),
                amplitude_deg=float(rng.uniform(1, 8)),
                yaw_rate_dps=float(rng.uniform(-15, 15)) or 1.0,
                turn_deg=float(rng.uniform(-50, 50)) or 10.0,
                turn_start_s=10.0,
                turn_len_s=5.0,
                traj_id=f"wc{i:03d}",
            )
            traj = generate(spec)
            clip = segment(traj, 40.0)[0]
            landmarks = generate_landmarks(clip, 2, seed=i)
            samples, _ = build_clip_samples(clip, landmarks, cfg, CLIP_CONVENTION)
            for sample in samples:
                s = clip.start_frame
                ref = pose_at(traj, s + sample.t)
                for step, stored in enumerate(sample.waypoints, start=1):
                    again = to_ego_waypoint(
                        ref, traj.positions[s + sample.t + step * cfg.waypoint_stride], RAW_CONVENTION
                    )
                    assert abs(stored[0] - again.x) <= 1e-9
                    assert abs(stored[1] - again.y) <= 1e-9
                    checked += 1
        assert checked > 500


def test_criterion_07_gradient_checks():
    rng = np.random.default_rng(707)
    with criterion(7, "analytic gradients match central finite differences"):
        for _ in range(100):
            k = int(rng.integers(1, 9))
            pred = rng.uniform(-3, 3, size=(k, 2))
            gt = rng.uniform(-3, 3, size=(k, 2))
            _, grad = loss_reg(pred, gt)
            assert rel_error(grad, central_diff(lambda x: loss_reg(x, gt)[0], pred)) < 1e-5

        for _ in range(100):
            k = int(rng.integers(1, 9))
            pred = nondegenerate_waypoints(rng, k)
            gt = nondegenerate_waypoints(rng, k)
            _, grad = loss_ori(pred, gt)
            assert rel_error(grad, central_diff(lambda x: loss_ori(x, gt)[0], pred)) < 1e-5

        for _ in range(100):
            z = float(rng.uniform(-10, 10))
            y = int(rng.integers(0, 2))
            _, grad = loss_arr(z, y)
            h = 1e-6
            fd = (loss_arr(z + h, y)[0] - loss_arr(z - h, y)[0]) / (2 * h)
            assert abs(grad - fd) / max(abs(fd), 1e-12) < 1e-5

        for _ in range(100):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 10))
            gt = rng.uniform(-2, 2, size=(k, d))
            pred = gt + rng.uniform(0.01, 1.0, size=(k, d)) * rng.choice([-1.0, 1.0], size=(k, d))
            _, grad = loss_hall(pred, gt)
            assert rel_error(grad, central_diff(lambda x: loss_hall(x, gt)[0], pred)) < 1e-5

        # Exact optimum on identical inputs (norms and dots exact for 3-4-5 steps).
        steps = np.array([[3.0, 4.0], [4.0, -3.0], [6.0, 8.0], [-3.0, 4.0], [5.0, 12.0]])
        wps = np.cumsum(steps, axis=0)
        value, _ = loss_ori(wps, wps.copy())
        assert value == -1.0


def test_criterion_08_geometry_round_trips():
    rng = np.random.default_rng(808)
    with criterion(8, "re-anchoring preserves transforms; ego projection yaw-equivariant"):
        traj = RawTrajectory(
            "rt",
            10.0,
            np.arange(500) / 10.0,
            rng.uniform(-30, 30, (500, 3)),
            np.stack([q / np.linalg.norm(q) for q in rng.standard_normal((500, 4))]),
        )
        clips = segment(traj, 10.0)
        for _ in range(1000):
            clip = clips[int(rng.integers(0, len(clips)))]
            i, j = (int(v) for v in rng.integers(0, len(clip), size=2))
            rel_clip = relative_pose(pose_at(clip, i), pose_at(clip, j))
            rel_raw = relative_pose(pose_at(traj, clip.start_frame + i), pose_at(traj, clip.start_frame + j))
            assert np.linalg.norm(rel_clip.position - rel_raw.position) <= 1e-9
            assert quat_close(rel_clip.orientation, rel_raw.orientation, tol=1e-9)

        done = 0
        while done < 1000:
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            ref = Pose(0.0, rng.uniform(-10, 10, 3), q)
            target = rng.uniform(-10, 10, 3)
            try:
                base = to_ego_waypoint(ref, target)
            except GimbalDegenerate:
                continue
            theta = float(rng.uniform(-180, 180))
            q_rot = quat_from_axis_angle([0.0, 0.0, 1.0], theta)
            moved = Pose(0.0, quat_rotate(q_rot, ref.position), quat_multiply(q_rot, q))
            rotated = to_ego_waypoint(moved, quat_rotate(q_rot, target))
            assert abs(rotated.x - base.x) <= 1e-9
            assert abs(rotated.y - base.y) <= 1e-9
            done += 1


def _hash_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_pipeline(root: Path, workers: int, monkeypatch) -> None:
    root.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(root)
    spec = {
        "trajectory": {"kind": "straight", "duration_s": 240.0, "fps": 10.0, "speed_mps": 1.4, "traj_id": "walk"},
        "detections": {"spans": [{"start": 650, "frames": 4, "count": 6}]},
        "landmarks": {"per_clip": 3, "seed": 7, "clip_seconds": 60.0},
    }
    Path("spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", "spec.json", "--out", "synth"]) == 0
    assert main(["segment", "--input", "synth/walk.txt", "--fps", "10", "--clip-seconds", "60", "--out", "clips",
                 "--workers", str(workers)]) == 0
    assert (
        main(
            [
                "filter",
                "--clips", "clips",
                "--detections", "synth/detections.jsonl",
                "--report", "report.json",
                "--world-up=-y",
                "--workers", str(workers),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "samples",
                "--clips", "clips",
                "--landmarks", "synth/landmarks.jsonl",
                "--accepted", "report.json.accepted",
                "--out", "samples.jsonl",
                "--seed", "5",
                "--world-up=-y",
                "--workers", str(workers),
            ]
        )
        == 0
    )
    samples = parse_samples("samples.jsonl")
    records = [
        PredictionRecord(
            s.sample_id,
            s.waypoints,
            s.waypoints,
            predicted_arrival=1.0 if s.arrival else 0.0,
            arrival_label=s.arrival,
        )
        for s in samples
    ]
    write_predictions(records, "predictions.jsonl")
    assert main(["eval", "--pred", "predictions.jsonl", "--out", "metrics.json"]) == 0


def test_criterion_09_pipeline_determinism(tmp_path, monkeypatch):
    with criterion(9, "pipeline byte-identical across reruns and worker counts"):
        _run_pipeline(tmp_path / "run_a", workers=1, monkeypatch=monkeypatch)
        _run_pipeline(tmp_path / "run_b", workers=1, monkeypatch=monkeypatch)
        _run_pipeline(tmp_path / "run_c", workers=8, monkeypatch=monkeypatch)
        a = _hash_tree(tmp_path / "run_a")
        b = _hash_tree(tmp_path / "run_b")
        c = _hash_tree(tmp_path / "run_c")
        assert a == b, "rerun with identical flags changed bytes"
        assert a == c, "worker count changed bytes"
        metrics = json.loads((tmp_path / "run_a" / "metrics.json").read_text())["metrics"]
        assert metrics["ade_m"] == 0.0 and metrics["arrival_accuracy"] == 1.0


def _segment_and_filter(traj) -> int:
    cfg = FilterConfig()
    return sum(run_filters(c, [], cfg, CLIP_CONVENTION).accepted for c in segment(traj, 120.0))


def test_criterion_10_throughput():
    with criterion(10, "segment+filter 1000 two-minute clips inside the time budget"):
        trajs = []
        for i in range(1000):
            kind = ("straight", "arc", "sinusoid_pitch")[i % 3]
            trajs.append(
                generate(
                    SynthSpec(kind, duration_s=120.0, fps=30.0, amplitude_deg=4.0, yaw_rate_dps=2.0,
                              traj_id=f"tp{i:04d}")
                )
            )
        assert sum(len(t) for t in trajs) == 3_600_000

        start = time.perf_counter()
        accepted_single = sum(_segment_and_filter(t) for t in trajs)
        single = time.perf_counter() - start
        assert single < 30.0, f"single-core took {single:.1f}s"

        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=8) as pool:
            accepted_pool = sum(pool.map(_segment_and_filter, trajs, chunksize=16))
        pooled = time.perf_counter() - start
        assert pooled < 10.0, f"8 workers took {pooled:.1f}s"
        assert accepted_single == accepted_pool == 1000
        print(f"    throughput: single-core {single:.2f}s, 8 workers {pooled:.2f}s", end=" ")
