"""Experiment orchestration: distances and the accidental correction's inputs."""

import numpy as np
import pytest

import twophoton as tp
from twophoton.errors import InvalidParameterError
from twophoton.framepipe import accidental_fraction, estimate_pair_rate
from twophoton.sensor import CameraModel


@pytest.mark.parametrize("d", [0.0, -0.1])
@pytest.mark.parametrize("mode", ["fresnel", "fourier-2f"])
def test_non_positive_distance_rejected(d, mode):
    with pytest.raises(InvalidParameterError):
        tp.analytic_summary(tp.ExperimentConfig(mode=mode), d=d)


def test_closure_corrects_accidentals_with_camera_efficiency():
    config = tp.ExperimentConfig(
        n_frames=4000, seed=3, camera=CameraModel(quantum_efficiency=0.3)
    )
    closure = tp.run_closure(config, psi=0.6)
    acc = closure.analysis.accumulator
    eps = accidental_fraction(estimate_pair_rate(acc, 0.3), 0.3)
    assert closure.recovered.accidentals == eps
    assert not np.isclose(eps, accidental_fraction(estimate_pair_rate(acc, 0.5), 0.5))
