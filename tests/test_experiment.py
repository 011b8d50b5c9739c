"""Experiment orchestration: distances, the closed-form slit rows against
the grid route, the accidental correction's inputs, and the visibility
estimator against the noise-free oracle of ``oracle.py``."""

import numpy as np
import pytest
from scipy import stats

import twophoton as tp
from oracle import expected_accumulator
from twophoton import framepipe, patterns
from twophoton.biphoton import ApertureCorrelations
from twophoton.errors import InvalidParameterError
from twophoton.framepipe import (
    AnalysisResult,
    accidental_fraction,
    analyze_source,
    corrected_counts,
    estimate_pair_rate,
    superpixel_bin,
)
from twophoton.optics import SpatialGrid, slit_averaged_rows, slit_rows
from twophoton.sensor import CameraModel

DISTANCES = [0.055, 0.063, 0.30, 0.54, 0.87]
MODES = ["fresnel", "fourier-2f"]


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


@pytest.mark.parametrize("mean_pairs, qe", [(0.5, 0.5), (3.0, 0.5), (2.0, 0.3)])
@pytest.mark.parametrize("psi", [0.3, 0.6, 0.792, 0.9])
def test_estimator_recovers_oracle_visibilities(psi, mean_pairs, qe):
    config = tp.ExperimentConfig(mean_pairs=mean_pairs, camera=CameraModel(quantum_efficiency=qe))
    acc = expected_accumulator(config, psi, 20_000)
    rec = tp.recover_visibilities(AnalysisResult(acc, config.analysis_config()), config.fringe_period, qe)
    want = tp.visibilities_from_psi(psi)
    assert rec.accidentals == pytest.approx(accidental_fraction(mean_pairs, qe), rel=1e-12)
    assert abs(rec.v1m - want.v1m) < 1e-3
    assert abs(rec.v12 - want.v12) < 1e-3
    assert abs(rec.v12_ratio - want.v12) < 1e-3


def test_oracle_matches_monte_carlo_counts():
    """Pearson's chi-square of the MC's corrected counts against the
    oracle's, over 4x4 superpixels of the upper triangle (the lower one
    mirrors it).  At about 0.4 raw counts a superpixel the statistic has
    variance 2 + k4 / v^2 per superpixel, with v and k4 the corrected
    counts' Poisson variance and fourth cumulant, not the 2 of a chi-square
    distribution; over 8,128 superpixels it is normal with that variance.
    The accepted pair count, which the chi-square alone barely sees, must
    also be Poisson about the oracle's.  A 4-pixel superpixel spans 1.65
    fringe periods, so neither check sees the fringes; the estimator tests
    above do."""
    n = 20_000
    config = tp.ExperimentConfig(n_frames=n, mean_pairs=3.0, seed=2026)
    psi = tp.analytic_summary(config).psi
    cfg = config.analysis_config()
    acc = analyze_source(tp.build_simulator(config, psi), cfg).accumulator
    observed = corrected_counts(acc, cfg)[0]
    oracle = expected_accumulator(config, psi, n)
    expected, variance, missing = corrected_counts(oracle, cfg)
    scale = framepipe._acceptance_scale(oracle, cfg)[0]
    upper = np.triu(~missing)

    def binned(cells):
        return superpixel_bin(np.where(upper, cells, 0.0), 4)

    o, e, v, k4 = (binned(x) for x in (observed, expected, variance, oracle.matrix * scale**4))
    use = v > 0
    terms = (o[use] - e[use]) ** 2 / v[use]
    z = (terms.sum() - use.sum()) / np.sqrt(np.sum(2 + k4[use] / v[use] ** 2))
    assert stats.norm.sf(z) > 1e-3, (terms.sum(), use.sum(), z)
    pairs = oracle.matrix.sum() / 4
    assert 2 * stats.norm.sf(abs(acc.pairs_accepted - pairs) / np.sqrt(pairs)) > 1e-3


def test_closure_reads_no_band_fill(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fits read an interpolated or excess pattern")

    monkeypatch.setattr(framepipe, "_interpolate_missing", refuse)
    monkeypatch.setattr(patterns, "excess_pattern", refuse)
    monkeypatch.setattr(tp.experiment, "excess_pattern", refuse)
    closure = tp.run_closure(tp.ExperimentConfig(n_frames=1500, seed=3), psi=0.6)
    assert 0.0 < closure.recovered.v1m <= 1.0


def closed_rows(config, d):
    args = (config.pump().grid, config.slits(), config.wavelength)
    if config.mode == "fourier-2f":
        return slit_averaged_rows(*args, focal_length=config.focal_length)
    return slit_averaged_rows(*args, distance=d)


def slit_plane(config, k):
    """Slit-plane grid with k intervals per half separation, wide enough for
    both slits: slit centers and edges of the default geometry on nodes."""
    slits = config.slits()
    h = slits.x2 / k
    half = h * np.ceil((slits.x2 + slits.width / 2) / h)
    return SpatialGrid(-half, half, int(round(2 * half / h)) + 1)


@pytest.mark.parametrize("mode", MODES)
def test_grid_rows_converge_to_closed_form(mode):
    # averaging a slit over grid nodes is a first-order rule: the error
    # halves with the spacing
    config = tp.ExperimentConfig(mode=mode)
    want = closed_rows(config, 0.3)
    errors = []
    for k in (32, 64, 128, 256):
        grid = slit_rows(config.illumination_kernel(slit_plane(config, k), 0.3), config.slits())
        errors.append(max(np.abs(g - w).max() / np.abs(w).max() for g, w in zip(grid, want)))
    ratios = np.array(errors[1:]) / np.array(errors[:-1])
    assert np.all((ratios > 0.4) & (ratios < 0.6)), (errors, ratios)
    assert errors[-1] < 1e-2


@pytest.mark.parametrize("mode", MODES)
def test_thin_slit_rows_are_the_pointwise_kernel(mode):
    config = tp.ExperimentConfig(mode=mode, slit_width=0.0)
    grid = slit_rows(config.illumination_kernel(slit_plane(config, 8), 0.3), config.slits())
    for g, w in zip(grid, closed_rows(config, 0.3)):
        assert np.abs(g - w).max() < 1e-9


def grid_psi(config, d, nodes):
    """psi from the grid route, each slit's row the mean of the sampled kernel
    over ``nodes`` equally spaced nodes spanning the slit, edges included.

    The former 1025- and 4097-node slit-plane grids put 257 and 1025 nodes
    inside each slit of the default geometry; only those nodes enter the
    rows, so the kernel is sampled on them alone.
    """
    slits, w = config.slits(), config.slit_width
    rows = [
        config.illumination_kernel(SpatialGrid(c - w / 2, c + w / 2, nodes), d).values.mean(axis=0)
        for c in (slits.x1, slits.x2)
    ]
    return ApertureCorrelations.from_pump(config.pump(), *rows).psi_effective


@pytest.mark.parametrize("d", DISTANCES)
@pytest.mark.parametrize("mode", MODES)
def test_closed_form_psi_matches_richardson_limit_of_grid(mode, d):
    config = tp.ExperimentConfig(mode=mode)
    psi_1025, psi_4097 = grid_psi(config, d, 257), grid_psi(config, d, 1025)
    richardson = psi_4097 + (psi_4097 - psi_1025) / 3
    assert abs(tp.analytic_summary(config, d).psi - richardson) <= 1e-5
