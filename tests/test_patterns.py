"""Analytic fringe patterns: closed forms, general routes, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twophoton as tp
from oracle import coincidence_expanded, excess_product
from twophoton.biphoton import ApertureCorrelations
from twophoton.errors import AliasingWarning, CompositionError, InvalidParameterError
from twophoton.optics import SlitPair, SpatialGrid, fourier_2f_kernel
from twophoton.patterns import (
    JointPattern2D,
    coincidence_general,
    coincidence_pattern,
    excess_closed_form,
    excess_pattern,
    intensity_general,
    marginal_pattern,
    single_photon_pattern,
)

LAMBDA = 812e-9
FOCAL = 50e-3
A = 0.7e-3
PERIOD = LAMBDA * FOCAL / A


def fine_grid(periods=6, n=384):
    half = periods * PERIOD / 2
    return SpatialGrid(-half, half, n)


def reldiff(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max())
    return np.abs(a - b).max() / scale


class TestSinglePhotonPattern:
    def test_unit_mean(self):
        p = single_photon_pattern(0.7, PERIOD, fine_grid())
        assert p.values.mean() == pytest.approx(1.0)

    def test_flat_at_zero_coherence(self):
        p = single_photon_pattern(0.0, PERIOD, fine_grid())
        assert np.allclose(p.values, 1.0)

    def test_full_coherence_touches_zero(self):
        p = single_photon_pattern(1.0, PERIOD, fine_grid(n=1200))
        assert p.values.min() < 1e-3
        assert p.values.min() >= 0

    def test_g1_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            single_photon_pattern(1.2, PERIOD, fine_grid())

    def test_undersampled_grid_warns(self):
        coarse = SpatialGrid(-3 * PERIOD, 3 * PERIOD, 12)
        with pytest.warns(AliasingWarning):
            single_photon_pattern(0.5, PERIOD, coarse)


class TestCoincidencePattern:
    def test_unit_sum(self):
        g2 = coincidence_pattern(0.6, PERIOD, fine_grid())
        assert g2.values.sum() * g2.cell_area() == pytest.approx(1.0)

    def test_modulus_and_expanded_forms_agree(self):
        grid = fine_grid()
        for psi in (0.0, 0.3, -0.8, 1.0, 2.5, 0.5 * np.exp(0.3j)):
            m = coincidence_pattern(psi, PERIOD, grid)
            assert reldiff(m.values, coincidence_expanded(psi, PERIOD, grid)) < 1e-12

    def test_reciprocal_psi_swaps_fringe_roles(self):
        # the pattern at 1/psi is the pattern at psi reflected in one
        # coordinate (sum and difference fringes exchange); unit-sum
        # normalization removes the 1/psi^2 scale
        grid = fine_grid()
        g_in = coincidence_pattern(0.4, PERIOD, grid)
        g_out = coincidence_pattern(1 / 0.4, PERIOD, grid)
        assert reldiff(g_in.values, g_out.values[:, ::-1]) < 1e-12

    def test_swap_symmetry(self):
        g2 = coincidence_pattern(0.37, PERIOD, fine_grid())
        assert np.allclose(g2.values, g2.values.T)

    @pytest.mark.parametrize("psi", [0.6, 0.792, -0.3, 0.999, 0.5 * np.exp(0.3j)])
    def test_in_place_build_matches_the_direct_expression(self, psi):
        grid = tp.CameraModel().pixel_grid()
        x = grid.positions
        sp = np.pi * (x[:, None] + x[None, :]) / PERIOD
        dp = np.pi * (x[:, None] - x[None, :]) / PERIOD
        v = np.abs(np.cos(sp) + psi * np.cos(dp)) ** 2
        want = v / (v.sum() * grid.spacing * grid.spacing)
        with pytest.warns(AliasingWarning):
            got = coincidence_pattern(psi, PERIOD, grid)
        assert np.array_equal(got.values, want)

    def test_separable_limit_is_rank_one(self):
        # psi = 1: the amplitude factorizes, so the pattern is an outer product
        g2 = coincidence_pattern(1.0, PERIOD, fine_grid(n=256))
        s = np.linalg.svd(g2.values, compute_uv=False)
        assert s[1] / s[0] < 1e-12


class TestGeneralRoutes:
    """General kernel route against the closed forms, 2f detection."""

    def setup_method(self):
        config = tp.ExperimentConfig(
            pump_width=0.5 * LAMBDA * FOCAL / A,
            mode="fourier-2f",
            slit_width=0.0,
        )
        self.corr = config.correlations()
        self.slits = config.slits()
        # the thin slits' centers -+A/2 sit on nodes 10 and 30
        self.slit_grid = SpatialGrid(-A, A, 41)
        self.det = fine_grid(n=256)
        self.h2 = fourier_2f_kernel(self.slit_grid, self.det, LAMBDA, FOCAL)

    def test_intensity_matches_closed_form(self):
        gen = intensity_general(self.h2, self.corr, self.slits)
        g1 = float(np.real(self.corr.g1))
        closed = single_photon_pattern(g1, PERIOD, self.det)
        assert reldiff(gen.values, closed.values) < 1e-12

    def test_coincidence_matches_closed_form(self):
        gen = coincidence_general(self.h2, self.corr, self.slits)
        closed = coincidence_pattern(complex(self.corr.psi), PERIOD, self.det)
        assert reldiff(gen.values, closed.values) < 1e-12


class TestMarginalAndExcess:
    def test_marginal_integrates_to_one(self):
        g2 = coincidence_pattern(0.6, PERIOD, fine_grid())
        m = marginal_pattern(g2)
        assert m.values.sum() * m.grid.spacing == pytest.approx(1.0)

    def test_marginal_fringe_has_v1m_visibility(self):
        psi = 0.6
        grid = fine_grid(n=1200)
        m = marginal_pattern(coincidence_pattern(psi, PERIOD, grid))
        v = m.values / m.values.mean()
        v1m = (v.max() - v.min()) / (v.max() + v.min())
        assert v1m == pytest.approx(2 * psi / (1 + psi**2), abs=1e-3)

    def test_excess_forms_agree(self):
        grid = fine_grid()
        for v12 in (0.0, 0.3, 0.9):
            a = excess_closed_form(v12, PERIOD, grid)
            assert reldiff(a.values, excess_product(v12, PERIOD, grid)) < 1e-12

    def test_excess_of_closed_form_matches_closed_form(self):
        psi = 0.5
        grid = fine_grid(periods=8, n=1024)
        g2 = coincidence_pattern(psi, PERIOD, grid)
        m = marginal_pattern(g2)
        got = excess_pattern(g2, m, PERIOD)
        v12 = (1 - psi**2) / (1 + psi**2)
        want = excess_closed_form(v12, PERIOD, grid)
        # closed form is in unit-mean units; the computed excess in density
        # units, so compare after removing scale and offset
        gv = got.values - got.values.mean()
        wv = want.values - want.values.mean()
        scale = (gv * wv).sum() / (wv * wv).sum()
        assert scale > 0
        assert np.abs(gv - scale * wv).max() < 2e-3 * np.abs(gv).max()

    @pytest.mark.filterwarnings("ignore::twophoton.errors.AliasingWarning")
    @pytest.mark.parametrize("psi", [0.3, 0.6, 0.792])
    def test_excess_matches_cell_mask_sum(self, psi):
        # the camera's pixel grid, and the ROI sum taken over a boolean cell
        # mask of the full matrix instead of a slice and a 1-D marginal sum
        grid = tp.CameraModel().pixel_grid()
        g2 = coincidence_pattern(psi, PERIOD, grid)
        m = marginal_pattern(g2).values
        raw = g2.values - np.outer(m, m)
        x = grid.positions
        half = int(np.floor(grid.extent / PERIOD)) * PERIOD / 2
        roi = np.abs(x - (grid.x_min + grid.x_max) / 2) <= half + 1e-9 * grid.spacing
        assert 0 < roi.sum() < grid.n
        mask2 = np.outer(roi, roi)
        cell = g2.cell_area()
        want = raw + (1.0 - raw[mask2].sum() * cell) / (int(mask2.sum()) * cell)
        got = excess_pattern(g2, marginal_pattern(g2), PERIOD).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_excess_roi_without_grid_points_is_the_full_grid(self):
        # one period of 0.9 centred between points 0 and 1 holds neither
        grid = SpatialGrid(0.0, 1.0, 2)
        g2 = JointPattern2D(grid, np.array([[0.3, 0.2], [0.2, 0.3]]), "coincidence")
        got = excess_pattern(g2, marginal_pattern(g2), 0.9)
        assert np.all(np.isfinite(got.values))
        assert got.values.sum() * g2.cell_area() == pytest.approx(1.0)

    def test_excess_grid_mismatch(self):
        g2 = coincidence_pattern(0.5, PERIOD, fine_grid())
        m = marginal_pattern(coincidence_pattern(0.5, PERIOD, fine_grid(n=385)))
        with pytest.raises(CompositionError):
            excess_pattern(g2, m, PERIOD)


@settings(max_examples=25, deadline=None)
@given(psi=st.floats(-1.0, 1.0))
def test_pattern_nonnegative_for_any_psi(psi):
    g2 = coincidence_pattern(psi, PERIOD, fine_grid(n=128))
    assert g2.values.min() >= 0
