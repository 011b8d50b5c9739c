"""Visibility formulas, the complementarity identity, and fringe fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twophoton.errors import InvalidParameterError, UnderDeterminedFitError
from twophoton.optics import SpatialGrid
from twophoton.patterns import (
    FringePattern1D,
    JointPattern2D,
    coincidence_pattern,
    excess_closed_form,
    marginal_pattern,
    single_photon_pattern,
)
from twophoton.visibility import (
    VisibilitySet,
    fit_fringe_visibility,
    fit_joint_visibility,
    visibilities_from_psi,
)

PERIOD = 58e-6


def fringe_grid(periods=6, n=600):
    half = periods * PERIOD / 2
    return SpatialGrid(-half, half, n)


class TestClosedForms:
    def test_known_point(self):
        v = visibilities_from_psi(0.6)
        assert v.v1 == pytest.approx(0.6)
        assert v.v1m == pytest.approx(1.2 / 1.36)
        assert v.v12 == pytest.approx(0.64 / 1.36)

    def test_separable_and_maximally_entangled_limits(self):
        sep = visibilities_from_psi(1.0)
        assert sep.v1m == pytest.approx(1.0) and sep.v12 == pytest.approx(0.0)
        ent = visibilities_from_psi(0.0)
        assert ent.v1m == pytest.approx(0.0) and ent.v12 == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            visibilities_from_psi(1.5)
        with pytest.raises(InvalidParameterError):
            visibilities_from_psi(-1.2)

    @given(st.floats(-1.0, 1.0))
    def test_complementarity_identity(self, psi):
        v = visibilities_from_psi(psi)
        assert abs(v.v1m**2 + v.v12**2 - 1.0) < 1e-12

    @given(st.floats(-1.0, 1.0))
    def test_v12_from_v1_consistent(self, psi):
        # V12 = (1 - V1^2) / (1 + V1^2): the one-photon visibility fixes V12
        v = visibilities_from_psi(psi)
        assert (1 - v.v1**2) / (1 + v.v1**2) == pytest.approx(v.v12, abs=1e-12)


class TestFringeFit:
    def test_recovers_clean_fringe(self):
        grid = fringe_grid()
        p = single_photon_pattern(0.73, PERIOD, grid)
        fit = fit_fringe_visibility(p, PERIOD)
        assert fit.visibility == pytest.approx(0.73, abs=1e-9)
        assert fit.phase == pytest.approx(0.0, abs=1e-9)

    def test_csv_precision_roundtrip(self):
        # values quantized as in the CSV writers re-fit to the same visibility
        grid = fringe_grid()
        p = single_photon_pattern(0.5, PERIOD, grid)
        from twophoton.patterns import FringePattern1D

        quantized = FringePattern1D(
            grid, np.array([float(f"{v:.9e}") for v in p.values]), PERIOD
        )
        fit0 = fit_fringe_visibility(p, PERIOD)
        fit1 = fit_fringe_visibility(quantized, PERIOD)
        assert abs(fit0.visibility - fit1.visibility) < 1e-8

    def test_noisy_fringe_within_tolerance(self):
        rng = np.random.default_rng(3)
        grid = fringe_grid(periods=10, n=1000)
        p = single_photon_pattern(0.4, PERIOD, grid)
        from twophoton.patterns import FringePattern1D

        noisy = FringePattern1D(grid, p.values + rng.normal(0, 0.01, grid.n), PERIOD)
        fit = fit_fringe_visibility(noisy, PERIOD)
        assert fit.visibility == pytest.approx(0.4, abs=0.01)

    def test_too_short_span(self):
        grid = SpatialGrid(-PERIOD / 2, PERIOD / 2, 50)
        p = single_photon_pattern(0.4, PERIOD, grid)
        with pytest.raises(UnderDeterminedFitError):
            fit_fringe_visibility(p, PERIOD)

    def test_negative_amplitude_absorbed_into_phase(self):
        grid = fringe_grid()
        from twophoton.patterns import FringePattern1D

        x = grid.positions
        v = 1.0 - 0.5 * np.cos(2 * np.pi * x / PERIOD)
        fit = fit_fringe_visibility(FringePattern1D(grid, v, PERIOD), PERIOD)
        assert fit.visibility == pytest.approx(0.5, abs=1e-9)
        assert abs(fit.phase) == pytest.approx(np.pi, abs=1e-9)


class TestJointFit:
    @pytest.mark.parametrize("v12", [0.05, 0.47, 0.95])
    def test_recovers_closed_form(self, v12):
        grid = fringe_grid(periods=8, n=320)
        excess = excess_closed_form(v12, PERIOD, grid)
        fit = fit_joint_visibility(excess, PERIOD)
        assert fit.v12 == pytest.approx(v12, abs=1e-9)
        assert fit.amp_sum > 0 >= fit.amp_diff

    def test_recovers_from_coincidence_route(self):
        psi = 0.6
        grid = fringe_grid(periods=8, n=640)
        g2 = coincidence_pattern(psi, PERIOD, grid)
        from twophoton.patterns import excess_pattern

        excess = excess_pattern(g2, marginal_pattern(g2), PERIOD)
        fit = fit_joint_visibility(excess, PERIOD)
        v12 = (1 - psi**2) / (1 + psi**2)
        # partial-period edge cells limit agreement at finite n
        assert fit.v12 == pytest.approx(v12, abs=5e-3)

    def test_mask_excludes_cells(self):
        grid = fringe_grid(periods=8, n=320)
        excess = excess_closed_form(0.5, PERIOD, grid)
        # corrupt a band and give it zero weight: fit should not notice
        vals = excess.values.copy()
        idx = np.arange(grid.n)
        band = np.abs(idx[:, None] - idx[None, :]) <= 2
        vals[band] = 99.0
        corrupted = JointPattern2D(grid, vals, "excess", period=PERIOD)
        fit = fit_joint_visibility(corrupted, PERIOD, (~band).astype(float))
        assert fit.v12 == pytest.approx(0.5, abs=1e-9)

    def test_underdetermined(self):
        import warnings

        from twophoton.errors import AliasingWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingWarning)
            grid = SpatialGrid(-PERIOD / 2, PERIOD / 2, 16)
            excess = excess_closed_form(0.5, PERIOD, grid)
        with pytest.raises(UnderDeterminedFitError):
            fit_joint_visibility(excess, PERIOD)


@settings(max_examples=30, deadline=None)
@given(psi=st.floats(0.01, 0.99))
def test_fit_roundtrip_along_the_circle(psi):
    """Fits of exact patterns land back on the complementarity circle."""
    grid = fringe_grid(periods=4, n=240)
    v = visibilities_from_psi(psi)
    excess = excess_closed_form(v.v12, PERIOD, grid)
    jfit = fit_joint_visibility(excess, PERIOD)
    marg = single_photon_pattern(v.v1m, PERIOD, fringe_grid())
    mfit = fit_fringe_visibility(marg, PERIOD)
    assert mfit.visibility**2 + jfit.v12**2 == pytest.approx(1.0, abs=1e-7)


def lstsq_fringe(pattern, period):
    """The fringe fit's coefficients and residual from a dense design."""
    t = 2 * np.pi * pattern.grid.positions / period
    design = np.column_stack([np.ones_like(t), np.cos(t), np.sin(t)])
    y = pattern.values
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return coef, np.linalg.norm(design @ coef - y) / np.linalg.norm(y)


def lstsq_joint(excess, period, weights=None):
    """The joint fit's coefficients and residual from a dense n^2-by-7 design
    of the cells of positive weight."""
    t = 2 * np.pi * excess.grid.positions / period
    s2, d2 = np.add.outer(t, t), np.subtract.outer(t, t)
    y = excess.values
    sel = np.ones(y.shape, dtype=bool) if weights is None else weights > 0
    cols = [np.ones(y.shape), np.cos(s2), np.sin(s2), np.cos(d2), np.sin(d2),
            np.add.outer(np.cos(t), np.cos(t)), np.add.outer(np.sin(t), np.sin(t))]
    design = np.column_stack([c[sel] for c in cols])
    sw = np.ones(design.shape[0]) if weights is None else np.sqrt(weights[sel])
    coef = np.linalg.lstsq(design * sw[:, None], y[sel] * sw, rcond=None)[0]
    return coef, np.linalg.norm(design @ coef - y[sel]) / np.linalg.norm(y[sel])


def assert_close(got, want, scale, rel=1e-10):
    assert abs(got - want) <= rel * abs(scale), (got, want)


# (grid, fringe periods it spans): the camera's pixel grid (2.42 pixels per
# period), an odd grid off center, and a fine even grid
ORACLE_GRIDS = {
    "pixels": SpatialGrid(-255.5 * 24e-6, 255.5 * 24e-6, 512),
    "odd": SpatialGrid(-3.3 * PERIOD, 4.1 * PERIOD, 151),
    "fine": fringe_grid(periods=5, n=200),
}


class TestLstsqOracle:
    """The projection fits equal a dense least-squares solve to rounding."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fringe_fit(self, grid, seed):
        rng = np.random.default_rng(seed)
        t = 2 * np.pi * grid.positions / PERIOD
        y = 2.0 + 0.7 * np.cos(t + rng.uniform(-3, 3)) + rng.normal(0, 0.3, grid.n)
        fit = fit_fringe_visibility(FringePattern1D(grid, y, PERIOD), PERIOD)
        (c0, c1, c2), resid = lstsq_fringe(FringePattern1D(grid, y, PERIOD), PERIOD)
        assert_close(fit.offset, c0, c0)
        assert_close(fit.visibility, np.hypot(c1, c2) / c0, 1.0)
        assert_close(fit.phase, np.arctan2(-c2, c1), np.pi)
        assert_close(fit.residual, resid, resid)

    @pytest.mark.filterwarnings("ignore::twophoton.errors.AliasingWarning")
    @pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
    @pytest.mark.parametrize(
        "selection", ["none", "mask", "weights", "both", "band_acceptance"]
    )
    def test_joint_fit(self, grid, selection):
        rng = np.random.default_rng(len(selection) + grid.n)
        clean = excess_closed_form(0.4, PERIOD, grid).values
        y = clean + rng.normal(0, np.abs(clean).max(), clean.shape)
        idx = np.arange(grid.n)
        dc = np.abs(np.subtract.outer(idx, idx))
        # a mask is a weight of 1 on the cells it selects and 0 elsewhere
        weights = None
        if selection in ("mask", "both"):
            weights = (rng.random(y.shape) < 0.6).astype(float)
        if selection == "weights":
            weights = rng.uniform(0.05, 2.0, y.shape)
        if selection == "both":
            weights *= rng.uniform(0.05, 2.0, y.shape)
        if selection == "band_acceptance":
            # the analysis' own weights: 0 on the near-diagonal band, then
            # falling with the horizontal separation
            weights = np.where(dc > 3, 1.0 / (1.0 + dc), 0.0)
        excess = JointPattern2D(grid, y, "excess", period=PERIOD)
        fit = fit_joint_visibility(excess, PERIOD, weights)
        coef, resid = lstsq_joint(excess, PERIOD, weights)
        scale = np.abs(coef).max()
        assert_close(fit.offset, coef[0], scale)
        assert_close(fit.amp_sum, coef[1], scale)
        assert_close(fit.amp_diff, coef[3], scale)
        assert_close(fit.amp_single, np.hypot(coef[5], coef[6]), scale)
        assert_close(fit.residual, resid, resid)
        shift = (coef[5] ** 2 + coef[6] ** 2) / (2 * coef[0])
        b, c = coef[1] - shift, coef[3] - shift
        assert_close(fit.v12, min(max((b + c) / (b - c), 0.0), 1.0), 1.0)

    def test_masked_cells_are_never_read(self):
        grid = ORACLE_GRIDS["odd"]
        excess = excess_closed_form(0.4, PERIOD, grid)
        idx = np.arange(grid.n)
        dc = np.abs(np.subtract.outer(idx, idx))
        weights = np.where(dc <= 3, 0.0, 1.0 / (1.0 + dc))
        dirty = np.where(weights == 0, np.nan, excess.values)
        fit = fit_joint_visibility(
            JointPattern2D(grid, dirty, "excess", period=PERIOD), PERIOD, weights
        )
        assert fit == fit_joint_visibility(excess, PERIOD, weights)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf, -np.inf])
    def test_weights_must_be_finite_and_non_negative(self, bad):
        excess = excess_closed_form(0.4, PERIOD, ORACLE_GRIDS["odd"])
        weights = np.ones(excess.values.shape)
        weights[7, 40] = bad
        with pytest.raises(InvalidParameterError):
            fit_joint_visibility(excess, PERIOD, weights)

    def test_weights_must_match_the_pattern(self):
        excess = excess_closed_form(0.4, PERIOD, ORACLE_GRIDS["odd"])
        with pytest.raises(InvalidParameterError):
            fit_joint_visibility(excess, PERIOD, np.ones((3, 3)))


class TestUnderDetermined:
    def test_antidiagonal_mask(self):
        # t' + t'' is constant on an anti-diagonal: 1, cos 2S and sin 2S
        # cannot be told apart there
        grid = fringe_grid(periods=8, n=320)
        excess = excess_closed_form(0.5, PERIOD, grid)
        idx = np.arange(grid.n)
        anti = np.add.outer(idx, idx) == grid.n - 1
        with pytest.raises(UnderDeterminedFitError):
            fit_joint_visibility(excess, PERIOD, anti.astype(float))

    def test_fringe_sampled_at_half_periods(self):
        # two samples per period, on the fringe's zero crossings of sin
        grid = SpatialGrid(0.0, 10 * PERIOD, 21)
        y = 1.0 + 0.5 * np.cos(2 * np.pi * grid.positions / PERIOD)
        with pytest.raises(UnderDeterminedFitError):
            fit_fringe_visibility(FringePattern1D(grid, y, PERIOD), PERIOD)
