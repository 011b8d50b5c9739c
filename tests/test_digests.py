"""Determinism contract: committed sha256 digests of three reference outputs.

A change that is meant to leave results alone must leave these digests
alone.  Only a change to the physics that sets psi at the default geometry
may re-record (c), and it logs the old and the new digest.

(a) the BIFR bytes of a 200-frame file at psi = 0.6 (criterion 9's file),
    converted to the dense version 1, and (a2) the version-2 bytes that
    ``FrameSimulator.write`` writes;
(b) the accumulator of criterion 9's 2000-frame stream at psi = 0.6, for
    1, 4 and 16 worker ranges;
(c) the accumulator of a 2000-frame stream with mean_pairs 3 at the default
    geometry, with psi from ``analytic_summary``.
"""

import hashlib

import numpy as np
import pytest

import twophoton as tp
from oracle import v2_to_v1
from twophoton.frameio import FrameFileReader
from twophoton.framepipe import analyze_source

BIFR_200 = "fd71c93648a97dbeb28568d25693f66791eafdc9fd64d4d79709c63f4ce5ab23"
BIFR_200_V2 = "51f430d4e5a84441b9e964892c17f20c917513cdc9539ba19ff29cef636d9d47"
STREAM_PSI_06 = "4205914a9b641c4e4f9ee654eba18b4bcf0fbe4c8ab3020e7696f86fddb5cda0"
STREAM_BRIGHT_DEFAULT = "2e482e04c1c48c27358027580f8cfb1ee45ff55d90bbe2787f77b038a703cb72"


def accumulator_digest(acc) -> str:
    """sha256 over the counters, the pair matrix and the singles histogram."""
    h = hashlib.sha256()
    counters = (
        acc.width,
        acc.frames_total,
        acc.frames_empty,
        acc.frames_single,
        acc.frames_pair,
        acc.frames_multi,
        acc.pairs_rejected,
    )
    h.update(np.asarray(counters, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(acc.matrix, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(acc.singles, dtype="<i8").tobytes())
    return h.hexdigest()


def test_bifr_bytes(tmp_path):
    sim = tp.build_simulator(tp.ExperimentConfig(n_frames=200, seed=55), psi=0.6)
    path = tmp_path / "frames.bifr"
    sim.write(path)
    h = hashlib.sha256()
    for chunk in v2_to_v1(path):
        h.update(chunk)
    assert h.hexdigest() == BIFR_200


def test_bifr_v2_bytes(tmp_path):
    sim = tp.build_simulator(tp.ExperimentConfig(n_frames=200, seed=55), psi=0.6)
    path = tmp_path / "frames.bifr"
    sim.write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BIFR_200_V2


def test_v1_and_v2_files_of_a_run_give_identical_accumulators(tmp_path):
    # a 128x64 camera keeps the dense file small: 16 kB a frame
    camera = tp.CameraModel(width=128, height=64, strip_rows=(20, 51), dark_rate=1.0)
    grid = camera.pixel_grid()
    pdf = tp.JointPattern2D(grid, np.ones((grid.n, grid.n)) / (grid.n * grid.spacing) ** 2)
    sim = tp.FrameSimulator(pdf, camera, 2000, 3.0, 9)
    sim.write(tmp_path / "v2.bifr")
    v2_to_v1(tmp_path / "v2.bifr", tmp_path / "v1.bifr")
    accs = [
        analyze_source(source, camera).accumulator
        for source in (sim, FrameFileReader(tmp_path / "v2.bifr"), FrameFileReader(tmp_path / "v1.bifr"))
    ]
    assert accs[0].frames_pair > 100
    assert len({accumulator_digest(acc) for acc in accs}) == 1


@pytest.mark.parametrize("workers", [1, 4, 16])
def test_criterion_9_stream(workers):
    sim = tp.build_simulator(tp.ExperimentConfig(n_frames=2000, seed=55), psi=0.6)
    acc = analyze_source(sim, sim.camera, workers=workers).accumulator
    assert accumulator_digest(acc) == STREAM_PSI_06


def test_bright_stream_at_default_geometry():
    config = tp.ExperimentConfig(n_frames=2000, mean_pairs=3.0)
    sim = tp.build_simulator(config, tp.analytic_summary(config).psi)
    acc = analyze_source(sim, config.camera).accumulator
    assert accumulator_digest(acc) == STREAM_BRIGHT_DEFAULT
