"""Experiment orchestration: distances, the closed-form slit rows against
the grid route, the accidental correction's inputs, and the visibility
estimator against the noise-free oracle of ``oracle.py``."""

import warnings

import numpy as np
import pytest
from scipy import stats

import twophoton as tp
from oracle import acceptance_matrix, corrected_matrix, expected_accumulator
from twophoton import framepipe, patterns, visibility
from twophoton.biphoton import ApertureCorrelations
from twophoton.errors import (
    AliasingWarning,
    EmptyEstimateError,
    InvalidParameterError,
    UnderDeterminedFitError,
)
from twophoton.framepipe import (
    AnalysisResult,
    accidental_fraction,
    analyze_source,
    estimate_pair_rate,
)
from twophoton.optics import SpatialGrid, slit_averaged_rows, slit_rows
from twophoton.patterns import JointPattern2D
from twophoton.sensor import CameraModel
from twophoton.visibility import fit_joint_visibility

DISTANCES = [0.055, 0.063, 0.30, 0.54, 0.87]
MODES = ["fresnel", "fourier-2f"]


@pytest.mark.parametrize("d", [0.0, -0.1])
@pytest.mark.parametrize("mode", ["fresnel", "fourier-2f"])
def test_non_positive_distance_rejected(d, mode):
    with pytest.raises(InvalidParameterError):
        tp.ExperimentConfig(mode=mode, distance=d)
    # a sweep point is the configuration at its distance, checked the same way
    with pytest.raises(InvalidParameterError):
        tp.sweep(tp.ExperimentConfig(mode=mode), [0.3, d])


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
        raise AssertionError("the fits read an excess pattern")

    monkeypatch.setattr(patterns, "excess_pattern", refuse)
    monkeypatch.setattr(tp.experiment, "excess_pattern", refuse)
    closure = tp.run_closure(tp.ExperimentConfig(n_frames=1500, seed=3), psi=0.6)
    assert 0.0 < closure.recovered.v1m <= 1.0


def test_simulator_of_a_nan_psi_is_refused():
    # a NaN psi makes a NaN pair pdf, refused before any frame is drawn
    with pytest.raises(InvalidParameterError, match="total mass"):
        tp.build_simulator(tp.ExperimentConfig(n_frames=200, seed=1), psi=float("nan"))


def test_hot_path_builds_no_dense_pattern(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fit built a dense corrected-count pattern")

    monkeypatch.setattr(tp.experiment, "fit_joint_visibility", refuse)
    monkeypatch.setattr(visibility, "fit_joint_visibility", refuse)
    closure = tp.run_closure(tp.ExperimentConfig(n_frames=1500, seed=3), psi=0.6)
    assert 0.0 < closure.recovered.v1m <= 1.0


FIT_FIELDS = ("v12", "amp_sum", "amp_diff", "amp_single", "offset", "residual")


def dense_recovery(acc, cam, period):
    """``recover_visibilities`` by the dense route: the corrected counts of
    ``corrected_matrix`` weighted by the acceptance through
    ``fit_joint_visibility``."""
    counts, acceptance = corrected_matrix(acc, cam)
    jfit = fit_joint_visibility(JointPattern2D(cam.pixel_grid(), counts), period, acceptance)
    qe = cam.quantum_efficiency
    eps = accidental_fraction(estimate_pair_rate(acc, qe), qe)
    v12 = (jfit.amp_sum - jfit.amp_diff) / (jfit.offset * (1.0 - eps))
    return jfit, jfit.amp_single / jfit.offset, v12


def assert_pair_fit_is_dense(acc, cam, period, residual_abs=None):
    rec = tp.recover_visibilities(AnalysisResult(acc, cam), period)
    jfit, v1m, v12 = dense_recovery(acc, cam, period)
    assert rec.v1m == pytest.approx(v1m, rel=1e-12)
    assert rec.v12 == pytest.approx(v12, rel=1e-12)
    assert rec.v12_ratio == pytest.approx(jfit.v12, rel=1e-12)
    for name in FIT_FIELDS[:-1]:
        assert getattr(rec.joint_fit, name) == pytest.approx(getattr(jfit, name), rel=1e-12), name
    if residual_abs is None:
        assert rec.joint_fit.residual == pytest.approx(jfit.residual, rel=1e-12)
    else:
        assert abs(rec.joint_fit.residual - jfit.residual) <= residual_abs
    return rec


@pytest.mark.parametrize("mean_pairs", [0.5, 1.0, 3.0])
def test_pair_fit_equals_the_dense_fit(mean_pairs):
    for seed in range(8):
        config = tp.ExperimentConfig(n_frames=3000, mean_pairs=mean_pairs, seed=700 + seed)
        acc = analyze_source(tp.build_simulator(config, psi=0.6), config.camera).accumulator
        assert_pair_fit_is_dense(acc, config.camera, config.fringe_period)


@pytest.mark.parametrize("mean_pairs", [0.5, 3.0])
@pytest.mark.parametrize("distance", [0.3, 0.87])
def test_pair_fit_equals_the_dense_fit_on_the_oracle(distance, mean_pairs):
    # the oracle observes every cell of positive acceptance and fits to
    # rounding, so the residual is compared in absolute terms
    config = tp.ExperimentConfig(distance=distance, mean_pairs=mean_pairs)
    acc = expected_accumulator(config, tp.analytic_summary(config).psi, 20_000)
    rec = assert_pair_fit_is_dense(acc, config.camera, config.fringe_period, residual_abs=1e-12)
    assert rec.joint_fit.residual < 1e-12


@pytest.fixture(scope="module")
def closure_3000():
    config = tp.ExperimentConfig(n_frames=3000, seed=5)
    acc = analyze_source(tp.build_simulator(config, psi=0.6), config.camera).accumulator
    return acc, config.fringe_period


@pytest.mark.parametrize("first", [0, 1, 2])
def test_cameras_that_differ_in_the_filter_geometry_get_their_own_fit(closure_3000, first):
    acc, period = closure_3000
    cams = [CameraModel(), CameraModel(strip_rows=(248, 263)), CameraModel(patch_size=5)]
    tp.experiment._fit_geometry.cache_clear()
    framepipe.acceptance_profile.cache_clear()
    order = cams[first:] + cams[:first]
    fits = {cam: assert_pair_fit_is_dense(acc, cam, period).joint_fit for cam in order}
    assert len({fit.offset for fit in fits.values()}) == len(cams)


def test_cached_arrays_are_read_only():
    cam = CameraModel()
    normal = tp.experiment._fit_geometry(cam, tp.ExperimentConfig().fringe_period)
    arrays = [normal.profile, normal.basis, normal.gram, normal.unit_gram]
    for arr in arrays + list(framepipe.acceptance_profile(cam)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def tiny_accumulator(width, i, j):
    acc = framepipe.CoincidenceAccumulator(width)
    acc.matrix[[i, j, i, j], [i, j, j, i]] = 1
    acc.frames_total, acc.frames_empty = 10, 5
    return acc


@pytest.mark.parametrize(
    "cam, period, error",
    [
        # |delta col| of 6 and 7 only: 6 cells of positive acceptance
        (CameraModel(width=8, patch_size=5), 58e-6, UnderDeterminedFitError),
        # the 512 pixels span less than two periods
        (CameraModel(), 6.2e-3, UnderDeterminedFitError),
        (CameraModel(), 0.0, InvalidParameterError),
    ],
)
def test_invalid_geometry_raises_on_every_call(cam, period, error):
    acc = tiny_accumulator(cam.width, 0, cam.width - 1)
    result = AnalysisResult(acc, cam)
    for _ in range(2):
        with pytest.raises(error):
            tp.recover_visibilities(result, period)
    # the dense fit refuses the same geometry the same way
    counts, acceptance = corrected_matrix(acc, cam)
    with pytest.raises(error):
        fit_joint_visibility(JointPattern2D(cam.pixel_grid(), counts), period, acceptance)


def test_recovery_of_pairs_inside_the_band_only_is_empty():
    # finalize refuses the same accumulator: no cell it holds is observed
    result = AnalysisResult(tiny_accumulator(512, 10, 12), CameraModel())
    with pytest.raises(EmptyEstimateError, match="positive acceptance"):
        tp.recover_visibilities(result, tp.ExperimentConfig().fringe_period)
    with pytest.raises(EmptyEstimateError):
        framepipe.finalize(result.accumulator, result.camera)


def test_recovery_rejects_an_accumulator_of_another_width():
    result = AnalysisResult(tiny_accumulator(64, 10, 40), CameraModel())
    with pytest.raises(InvalidParameterError, match="width"):
        tp.recover_visibilities(result, tp.ExperimentConfig().fringe_period)


def test_visibilities_are_reported_as_fitted():
    # 800 frames are noisy enough that both V12 estimates of this seed fall below 0
    config = tp.ExperimentConfig(n_frames=800, seed=4)
    rec = tp.recover_visibilities(
        analyze_source(tp.build_simulator(config), config.camera), config.fringe_period
    )
    jf = rec.joint_fit
    want = (jf.amp_sum - jf.amp_diff) / (jf.offset * (1.0 - rec.accidentals))
    assert rec.v12 == pytest.approx(want, rel=1e-12)
    assert rec.v12 < 0.0 and rec.v12_ratio < 0.0
    assert rec.v1m == jf.amp_single / jf.offset > 1.0


@pytest.mark.parametrize("mean_pairs", [0.5, 3.0])
def test_refit_of_the_written_estimate_is_the_recovered_fit(mean_pairs):
    config = tp.ExperimentConfig(n_frames=1500, mean_pairs=mean_pairs, seed=3)
    closure = tp.run_closure(config, psi=0.6)
    acc, cam = closure.analysis.accumulator, closure.analysis.camera
    acceptance = acceptance_matrix(cam)
    fit = fit_joint_visibility(framepipe.finalize(acc, cam), config.fringe_period, acceptance)
    rec = closure.recovered
    assert fit.amp_single / fit.offset == pytest.approx(rec.v1m, rel=1e-12)
    assert fit.v12 == pytest.approx(rec.v12_ratio, rel=1e-12)
    # the amplitudes differ from the counts' by the estimate's scale only
    want = rec.joint_fit
    assert fit.amp_sum / fit.offset == pytest.approx(want.amp_sum / want.offset, rel=1e-12)
    assert fit.amp_diff / fit.offset == pytest.approx(want.amp_diff / want.offset, rel=1e-12)
    assert fit.residual == pytest.approx(want.residual, rel=1e-12)


def test_run_without_an_empty_frame_has_no_accidental_estimate():
    config = tp.ExperimentConfig(n_frames=300, mean_pairs=9.0, seed=3)
    analysis = analyze_source(tp.build_simulator(config, psi=0.6), config.camera)
    assert analysis.accumulator.frames_empty == 0
    assert analysis.accumulator.pairs_accepted > 0
    with pytest.raises(EmptyEstimateError, match="empty frames"):
        tp.recover_visibilities(analysis, config.fringe_period)


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


def closed_rows(config):
    args = (config.pump().grid, config.slits(), config.wavelength)
    if config.mode == "fourier-2f":
        return slit_averaged_rows(*args, focal_length=config.focal_length)
    return slit_averaged_rows(*args, distance=config.distance)


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
    config = tp.ExperimentConfig(mode=mode, distance=0.3)
    want = closed_rows(config)
    errors = []
    for k in (32, 64, 128, 256):
        grid = slit_rows(config.illumination_kernel(slit_plane(config, k)), config.slits())
        errors.append(max(np.abs(g - w).max() / np.abs(w).max() for g, w in zip(grid, want)))
    ratios = np.array(errors[1:]) / np.array(errors[:-1])
    assert np.all((ratios > 0.4) & (ratios < 0.6)), (errors, ratios)
    assert errors[-1] < 1e-2


@pytest.mark.parametrize("mode", MODES)
def test_thin_slit_rows_are_the_pointwise_kernel(mode):
    config = tp.ExperimentConfig(mode=mode, slit_width=0.0, distance=0.3)
    grid = slit_rows(config.illumination_kernel(slit_plane(config, 8)), config.slits())
    for g, w in zip(grid, closed_rows(config)):
        assert np.abs(g - w).max() < 1e-9


def grid_psi(config, nodes):
    """psi from the grid route, each slit's row the mean of the sampled kernel
    over ``nodes`` equally spaced nodes spanning the slit, edges included.

    The former 1025- and 4097-node slit-plane grids put 257 and 1025 nodes
    inside each slit of the default geometry; only those nodes enter the
    rows, so the kernel is sampled on them alone.
    """
    slits, w = config.slits(), config.slit_width
    rows = [
        config.illumination_kernel(SpatialGrid(c - w / 2, c + w / 2, nodes)).values.mean(axis=0)
        for c in (slits.x1, slits.x2)
    ]
    return ApertureCorrelations.from_pump(config.pump(), *rows).psi_effective


@pytest.mark.parametrize("d", DISTANCES)
@pytest.mark.parametrize("mode", MODES)
def test_closed_form_psi_matches_richardson_limit_of_grid(mode, d):
    config = tp.ExperimentConfig(mode=mode, distance=d)
    psi_1025, psi_4097 = grid_psi(config, 257), grid_psi(config, 1025)
    richardson = psi_4097 + (psi_4097 - psi_1025) / 3
    assert abs(tp.analytic_summary(config).psi - richardson) <= 1e-5
