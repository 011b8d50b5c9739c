"""Grids, kernels, and slit selection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twophoton.errors import InvalidParameterError, OutOfRangeError
from twophoton.optics import (
    LinearKernel,
    SlitPair,
    SpatialGrid,
    fourier_2f_kernel,
    fresnel_kernel,
    slit_averaged_rows,
    slit_columns,
    slit_rows,
)

LAMBDA = 812e-9
FOCAL = 50e-3


class TestSpatialGrid:
    def test_positions_and_spacing(self):
        g = SpatialGrid(-1.0, 1.0, 5)
        assert np.allclose(g.positions, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.spacing == pytest.approx(0.5)
        assert g.extent == pytest.approx(2.0)

    def test_cell_centered_sums_to_width(self):
        g = SpatialGrid.cell_centered(2e-3, 128)
        # rectangle rule over cell midpoints tiles the interval exactly
        assert g.spacing * 128 == pytest.approx(2e-3, rel=1e-14)
        assert g.positions[0] == pytest.approx(-1e-3 + g.spacing / 2)

    def test_nearest_index(self):
        g = SpatialGrid(-1.0, 1.0, 21)
        assert g.nearest_index(0.0) == 10
        assert g.nearest_index(-1.0) == 0
        with pytest.raises(OutOfRangeError):
            g.nearest_index(1.5)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpatialGrid(0.0, 0.0, 8)
        with pytest.raises(InvalidParameterError):
            SpatialGrid(-1.0, 1.0, 1)

    @given(st.floats(-1e-2, 1e-2), st.floats(1e-6, 1e-2), st.integers(2, 500))
    def test_spacing_consistent_with_positions(self, x0, extent, n):
        g = SpatialGrid(x0, x0 + extent, n)
        x = g.positions
        assert np.allclose(np.diff(x), g.spacing, rtol=1e-9, atol=1e-18)


class TestSlitPair:
    def test_centers(self):
        s = SlitPair(0.7e-3, 0.35e-3)
        assert s.x1 == pytest.approx(-0.35e-3)
        assert s.x2 == pytest.approx(0.35e-3)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            SlitPair(0.0)
        with pytest.raises(InvalidParameterError):
            SlitPair(0.7e-3, 0.8e-3)  # width >= separation


class TestKernels:
    def setup_method(self):
        self.gin = SpatialGrid(-1e-3, 1e-3, 64)
        self.gout = SpatialGrid(-2e-3, 2e-3, 48)

    def test_fourier_2f_unit_modulus_and_phase(self):
        k = fourier_2f_kernel(self.gin, self.gout, LAMBDA, FOCAL)
        assert k.values.shape == (48, 64)
        assert np.allclose(np.abs(k.values), 1.0)
        # h(0, x) = 1 for all x: the axial output point carries no phase
        gout_odd = SpatialGrid(-2e-3, 2e-3, 49)
        k0 = fourier_2f_kernel(self.gin, gout_odd, LAMBDA, FOCAL)
        assert np.allclose(k0.values[gout_odd.nearest_index(0.0)], 1.0)

    def test_fresnel_quadratic_phase(self):
        k = fresnel_kernel(self.gin, self.gout, LAMBDA, 0.3)
        xo = self.gout.positions[:, None]
        xi = self.gin.positions[None, :]
        expected = np.exp(1j * np.pi * (xo - xi) ** 2 / (LAMBDA * 0.3))
        assert np.allclose(k.values, expected)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            fourier_2f_kernel(self.gin, self.gout, -LAMBDA, FOCAL)
        with pytest.raises(InvalidParameterError):
            fresnel_kernel(self.gin, self.gout, LAMBDA, 0.0)

    def test_kernel_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            LinearKernel(self.gin, self.gout, np.ones((3, 3)))


class TestSlitSelection:
    def test_zero_width_picks_nearest_row(self):
        grid_out = SpatialGrid(-0.5e-3, 0.5e-3, 101)
        gin = SpatialGrid(-1e-3, 1e-3, 32)
        k = fourier_2f_kernel(gin, grid_out, LAMBDA, FOCAL)
        slits = SlitPair(0.7e-3, 0.0)
        r1, r2 = slit_rows(k, slits)
        i1 = grid_out.nearest_index(-0.35e-3)
        assert np.array_equal(r1, k.values[i1])

    def test_finite_width_averages_rows(self):
        grid_out = SpatialGrid(-0.6e-3, 0.6e-3, 241)
        gin = SpatialGrid(-1e-3, 1e-3, 16)
        k = fresnel_kernel(gin, grid_out, LAMBDA, 0.1)
        slits = SlitPair(0.7e-3, 0.1e-3)
        r1, _ = slit_rows(k, slits)
        x = grid_out.positions
        sel = np.abs(x + 0.35e-3) <= 0.05e-3 + 1e-9 * grid_out.spacing
        assert np.allclose(r1, k.values[sel].mean(axis=0))

    def test_slit_outside_grid(self):
        grid_out = SpatialGrid(-0.2e-3, 0.2e-3, 33)
        gin = SpatialGrid(-1e-3, 1e-3, 8)
        k = fourier_2f_kernel(gin, grid_out, LAMBDA, FOCAL)
        with pytest.raises(OutOfRangeError):
            slit_rows(k, SlitPair(0.7e-3, 0.1e-3))

    def test_columns_match_transposed_rows(self):
        grid_in = SpatialGrid(-0.5e-3, 0.5e-3, 51)
        grid_out = SpatialGrid(-1e-3, 1e-3, 40)
        k = fresnel_kernel(grid_in, grid_out, LAMBDA, 0.2)
        slits = SlitPair(0.6e-3, 0.0)
        c1, c2 = slit_columns(k, slits)
        i1 = grid_in.nearest_index(-0.3e-3)
        assert np.array_equal(c1, k.values[:, i1])


class TestSlitAveragedRows:
    grid = SpatialGrid(-1e-3, 1e-3, 64)

    def test_wavelength_must_be_positive(self):
        for wl in (0.0, -LAMBDA, float("nan")):
            with pytest.raises(InvalidParameterError):
                slit_averaged_rows(self.grid, SlitPair(0.7e-3, 0.1e-3), wl, distance=0.3)

    def test_distance_and_focal_length_must_be_positive(self):
        slits = SlitPair(0.7e-3, 0.1e-3)
        for v in (0.0, -0.3):
            with pytest.raises(InvalidParameterError):
                slit_averaged_rows(self.grid, slits, LAMBDA, distance=v)
            with pytest.raises(InvalidParameterError):
                slit_averaged_rows(self.grid, slits, LAMBDA, focal_length=v)

    def test_exactly_one_length(self):
        slits = SlitPair(0.7e-3, 0.1e-3)
        with pytest.raises(InvalidParameterError):
            slit_averaged_rows(self.grid, slits, LAMBDA)
        with pytest.raises(InvalidParameterError):
            slit_averaged_rows(self.grid, slits, LAMBDA, distance=0.3, focal_length=FOCAL)

    @pytest.mark.parametrize("width", [-1e-4, 0.7e-3, 1e-3])
    def test_slit_width_outside_domain(self, width):
        with pytest.raises(InvalidParameterError):
            SlitPair(0.7e-3, width)

    def test_narrow_slit_tends_to_pointwise_kernel(self):
        # the Fresnel average over a vanishing width is the kernel at the center
        thin = slit_averaged_rows(self.grid, SlitPair(0.7e-3, 0.0), LAMBDA, distance=0.3)
        narrow = slit_averaged_rows(self.grid, SlitPair(0.7e-3, 1e-8), LAMBDA, distance=0.3)
        for t, n in zip(thin, narrow):
            assert np.abs(t - n).max() < 1e-6
