"""Experiment orchestration: distances, the closed-form slit rows against
the grid route, the accidental correction's inputs, and the visibility
estimator against the noise-free oracle of ``oracle.py``."""

import warnings

import numpy as np
import pytest
from scipy import stats

import twophoton as tp
from oracle import expected_accumulator
from twophoton import framepipe, patterns
from twophoton.biphoton import ApertureCorrelations
from twophoton.errors import AliasingWarning, InvalidParameterError
from twophoton.framepipe import (
    AnalysisResult,
    accidental_fraction,
    analyze_source,
    estimate_pair_rate,
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


def test_analysis_config_is_the_camera():
    camera = CameraModel(quantum_efficiency=0.3)
    assert tp.ExperimentConfig(camera=camera).analysis_config() is camera


def test_closure_corrects_accidentals_with_camera_efficiency():
    config = tp.ExperimentConfig(
        n_frames=4000, seed=3, camera=CameraModel(quantum_efficiency=0.3)
    )
    closure = tp.run_closure(config, psi=0.6)
    acc = closure.analysis.accumulator
    eps = accidental_fraction(estimate_pair_rate(acc, 0.3), 0.3)
    assert closure.recovered.accidentals == eps
    # the result's camera carries the efficiency; no argument repeats it
    assert tp.recover_visibilities(closure.analysis, config.fringe_period).accidentals == eps
    assert not np.isclose(eps, accidental_fraction(estimate_pair_rate(acc, 0.5), 0.5))


@pytest.mark.parametrize("mean_pairs, qe", [(0.5, 0.5), (3.0, 0.5), (2.0, 0.3)])
@pytest.mark.parametrize("psi", [0.3, 0.6, 0.792, 0.9])
def test_estimator_recovers_oracle_visibilities(psi, mean_pairs, qe):
    config = tp.ExperimentConfig(mean_pairs=mean_pairs, camera=CameraModel(quantum_efficiency=qe))
    acc = expected_accumulator(config, psi, 20_000)
    rec = tp.recover_visibilities(AnalysisResult(acc, config.camera), config.fringe_period)
    want = tp.visibilities_from_psi(psi)
    assert rec.accidentals == pytest.approx(accidental_fraction(mean_pairs, qe), rel=1e-12)
    assert abs(rec.v1m - want.v1m) < 1e-3
    assert abs(rec.v12 - want.v12) < 1e-3
    assert abs(rec.v12_ratio - want.v12) < 1e-3


def test_oracle_matches_monte_carlo_counts():
    """Pearson's chi-square of the MC's accepted pair counts against the
    oracle's, with the cells of the upper triangle off the near-diagonal
    band binned by the fringe phases (x' / L mod 1, x'' / L mod 1) of their
    two columns, 8 x 8 bins, so the fringes of every term of G2 are
    resolved.  The raw counts are Poisson, and bins the oracle expects
    fewer than 5 counts in are left out.  The accepted pair count must also
    be Poisson about the oracle's: at about 9,800 pairs a 7% error in the
    pair rate is 6 sigma away.  The oracle leaves out three survivors of
    which two merge, which add about 1% to the MC's pairs at mean_pairs 2.
    """
    n, k = 50_000, 8
    config = tp.ExperimentConfig(n_frames=n, mean_pairs=2.0, seed=2026)
    psi = tp.analytic_summary(config).psi
    acc = analyze_source(tp.build_simulator(config, psi), config.camera).accumulator
    oracle = expected_accumulator(config, psi, n)
    cam = config.camera
    phase = np.floor(k * np.mod(cam.pixel_grid().positions / config.fringe_period, 1.0))
    idx = np.arange(cam.width)
    cells = np.subtract.outer(idx, idx) < -cam.patch_size
    label = (k * phase[:, None] + phase[None, :]).astype(int)[cells]
    o = np.bincount(label, acc.matrix[cells], minlength=k * k)
    e = np.bincount(label, oracle.matrix[cells], minlength=k * k)
    use = e >= 5
    assert use.sum() > k * k * 0.9
    stat = np.sum((o[use] - e[use]) ** 2 / e[use])
    assert stats.chi2.sf(stat, use.sum()) > 1e-3, (stat, use.sum())
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


def test_aliasing_warns_only_for_a_grid_the_caller_passes():
    config = tp.ExperimentConfig()
    coarse = SpatialGrid(-3 * config.fringe_period, 3 * config.fringe_period, 12)
    with pytest.warns(AliasingWarning):
        tp.analytic_patterns(config, grid=coarse, psi=0.6, g1=0.5)
    # the pixel grid's 2.42 samples per period are the camera's own
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasingWarning)
        tp.analytic_patterns(config, psi=0.6, g1=0.5)
        tp.joint_pdf(config, psi=0.6)


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
