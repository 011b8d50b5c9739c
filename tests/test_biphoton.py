"""Slit-plane correlations and the normalized entanglement parameter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twophoton as tp
from twophoton.biphoton import (
    ApertureCorrelations,
    PumpProfile,
    effective_psi,
    psi_sinc_closed_form,
    real_psi,
)
from twophoton.errors import (
    DegenerateSourceError,
    InvalidParameterError,
    NormalizationError,
)
from twophoton.optics import SlitPair, SpatialGrid, fourier_2f_kernel, slit_rows

LAMBDA = 812e-9
FOCAL = 50e-3
A = 0.7e-3


def two_f_correlations(b, n=4096, slit_width=0.0):
    """Correlations for a uniform pump of width b behind a 2f system."""
    config = tp.ExperimentConfig(
        pump_width=b, mode="fourier-2f", slit_width=slit_width, pump_grid_n=n
    )
    return config.correlations()


class TestPumpProfile:
    def test_uniform_unit_intensity(self):
        p = PumpProfile.uniform(2e-3, 512)
        assert np.allclose(p.intensity, 1.0)
        assert p.grid.extent + p.grid.spacing == pytest.approx(2e-3, rel=1e-12)

    def test_gaussian_width_is_1_over_e2_diameter(self):
        w = 1e-3
        p = PumpProfile.gaussian(w, 2048)
        i = np.interp(w / 2, p.grid.positions, p.intensity)
        assert i == pytest.approx(np.exp(-2), rel=1e-3)

    def test_zero_pump_rejected(self):
        grid = SpatialGrid(-1e-3, 1e-3, 16)
        with pytest.raises(DegenerateSourceError):
            PumpProfile("uniform", 2e-3, grid, np.zeros(16, dtype=complex))

    def test_negative_width_rejected(self):
        with pytest.raises(InvalidParameterError):
            PumpProfile.uniform(-1e-3, 64)


class TestClosedFormAgreement:
    # quadrature of the pump against 2f kernels must land on sinc(ba/(lambda f))
    @pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 1.5])
    def test_psi_matches_sinc(self, u):
        b = u * LAMBDA * FOCAL / A
        corr = two_f_correlations(b)
        closed = psi_sinc_closed_form(b, A, LAMBDA, FOCAL)
        assert abs(corr.psi_effective - closed) <= 1e-6 * max(1.0, abs(closed))

    def test_sinc_sign_preserved_past_first_zero(self):
        b = 1.5 * LAMBDA * FOCAL / A
        corr = two_f_correlations(b)
        assert corr.psi_effective < -0.2

    def test_raw_quotient_is_reciprocal_of_sinc(self):
        # the unnormalized quotient P12/P11 exceeds unity; the bounded
        # representative is its reciprocal
        b = 0.5 * LAMBDA * FOCAL / A
        corr = two_f_correlations(b)
        raw = corr.psi
        assert abs(raw) > 1
        assert np.real(1.0 / raw) == pytest.approx(corr.psi_effective, rel=1e-9)


class TestDuality:
    @pytest.mark.parametrize("scale", np.linspace(0.2, 2.4, 10))
    def test_g1_equals_psi_for_rectangular_pump(self, scale):
        b = scale * LAMBDA * FOCAL / A
        corr = two_f_correlations(b)
        g1 = real_psi(corr.g1)
        assert abs(g1 - corr.psi_effective) < 1e-9


class TestBoundedAndRealPsi:
    # effective_psi takes P12 / P11 or its reciprocal, whichever is bounded
    @given(st.floats(-0.999, 0.999))
    def test_bounded_identity_inside_disk(self, x):
        assert effective_psi(1.0, 1.0, x) == pytest.approx(x, rel=1e-15, abs=0)

    @given(st.floats(1.001, 1e6))
    def test_bounded_reciprocal_outside_disk(self, x):
        assert effective_psi(1.0, 1.0, x) == pytest.approx(1.0 / x)

    def test_real_psi_collapses_complex_to_magnitude(self):
        z = 0.3 + 0.4j
        assert real_psi(z) == pytest.approx(0.5)

    def test_real_psi_keeps_sign_of_nearly_real(self):
        assert real_psi(-0.7 + 1e-15j) == pytest.approx(-0.7)

    def test_effective_psi_stable_at_vanishing_self_term(self):
        # a sinc zero: P11 = P22 = 0 but P12 finite maps to psi = 0
        assert effective_psi(0.0, 0.0, 1.0) == 0.0
        with pytest.raises(NormalizationError):
            effective_psi(0.0, 0.0, 0.0)


class TestCorrelationStructure:
    def test_self_terms_real_positive(self):
        corr = two_f_correlations(1e-4, n=1024)
        assert corr.g11 > 0 and corr.g22 > 0
        assert corr.g11 == pytest.approx(corr.g22, rel=1e-9)

    def test_symmetric_geometry_gives_equal_biphoton_self_terms(self):
        corr = two_f_correlations(1e-4, n=1024, slit_width=0.2e-3)
        assert abs(corr.p11 - corr.p22) < 1e-9 * abs(corr.p11)

    def test_grid_mismatch_rejected(self):
        # rows sampled on a grid other than the pump's
        pump = PumpProfile.uniform(2e-3, 64)
        other = SpatialGrid(-1e-3, 1e-3, 63)
        slit_grid = SpatialGrid(-0.5e-3, 0.5e-3, 41)  # -+A/2 on nodes 6 and 34
        h1 = fourier_2f_kernel(other, slit_grid, LAMBDA, FOCAL)
        r1, r2 = slit_rows(h1, SlitPair(A))
        with pytest.raises(InvalidParameterError):
            ApertureCorrelations.from_pump(pump, r1, r2)
