"""Determinism contract: committed sha256 digests of three reference outputs.

A change that is meant to leave results alone must leave these digests
alone.  Only a change to the physics that sets psi at the default geometry
may re-record (c), and it logs the old and the new digest.

(a) the BIFR bytes of a 200-frame file at psi = 0.6 (criterion 9's file);
(b) the accumulator of criterion 9's 2000-frame stream at psi = 0.6, for
    1, 4 and 16 worker ranges;
(c) the accumulator of a 2000-frame stream with mean_pairs 3 at the default
    geometry, with psi from ``analytic_summary``.
"""

import hashlib

import numpy as np
import pytest

import twophoton as tp
from twophoton.framepipe import AnalysisConfig, analyze_source

BIFR_200 = "fd71c93648a97dbeb28568d25693f66791eafdc9fd64d4d79709c63f4ce5ab23"
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
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BIFR_200


@pytest.mark.parametrize("workers", [1, 4, 16])
def test_criterion_9_stream(workers):
    sim = tp.build_simulator(tp.ExperimentConfig(n_frames=2000, seed=55), psi=0.6)
    acc = analyze_source(sim, AnalysisConfig(camera=sim.camera), workers=workers).accumulator
    assert accumulator_digest(acc) == STREAM_PSI_06


def test_bright_stream_at_default_geometry():
    config = tp.ExperimentConfig(n_frames=2000, mean_pairs=3.0)
    sim = tp.build_simulator(config, tp.analytic_summary(config).psi)
    acc = analyze_source(sim, config.analysis_config()).accumulator
    assert accumulator_digest(acc) == STREAM_BRIGHT_DEFAULT
