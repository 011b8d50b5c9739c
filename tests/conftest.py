"""Shared fixtures.

The full-scale Monte Carlo closure (240,000 frames) takes ~23 s, so it runs
once per session and is shared by every test that needs it.
"""

import time
from types import SimpleNamespace

import pytest

import twophoton as tp
from twophoton.framepipe import marginal_consistency


@pytest.fixture(scope="session")
def full_scale_closure():
    """Full 240,000-frame closure at psi = 0.6 with the default camera.

    Returns a namespace with the closure result and its wall-clock runtime.
    """
    config = tp.ExperimentConfig(seed=101)
    start = time.perf_counter()
    result = tp.run_closure(config, psi=0.6)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(result=result, elapsed=elapsed)


@pytest.fixture(scope="session")
def full_scale_consistency(full_scale_closure):
    res = full_scale_closure.result.analysis
    return marginal_consistency(res.accumulator, res.camera)


@pytest.fixture()
def default_config():
    return tp.ExperimentConfig()
