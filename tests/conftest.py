import multiprocessing

import numpy as np
import pytest

from navcurate.segmentation import cut_clip, segment
from oracles import Pose


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    while True:
        q = rng.standard_normal(4)
        norm = np.linalg.norm(q)
        if norm > 1e-2:
            return q / norm


def random_pose(rng: np.random.Generator, timestamp: float = 0.0) -> Pose:
    return Pose(timestamp, rng.uniform(-50.0, 50.0, size=3), random_unit_quat(rng))


def clips_of(traj, clip_seconds: float) -> list:
    """(entry, poses) per clip that segment plans for traj, the poses cut by cut_clip."""
    return [(entry, cut_clip(traj, entry)) for entry in segment(traj, clip_seconds)]


def quat_close(q1, q2, tol: float = 1e-9) -> bool:
    """Same rotation up to sign: dot-product distance below tol."""
    return 1.0 - abs(float(np.dot(q1, q2))) <= tol


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_worker_left():
    """Each test leaves no child process behind: a pool shuts down, its workers joined, however its tasks end."""
    yield
    assert multiprocessing.active_children() == []
