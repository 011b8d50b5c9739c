"""Slit-plane coherence function and two-photon wavefunction.

Both are rectangle-rule quadratures over the pump grid of the pump profile
against the two illumination kernel rows h1(xi, .), each averaged over its
slit (``optics.slit_averaged_rows`` gives them in closed form):

    G(xi, xj) = sum_x I_p(x) conj(h1(xi, x)) h1(xj, x) dx
    Psi(xi, xj) = sum_x E_p(x) h1(xi, x) h1(xj, x) dx

The normalized cross values g1 = G12/sqrt(G11 G22) and psi = P12/P11 drive
every fringe-visibility formula downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSourceError, InvalidParameterError, NormalizationError
from .optics import SpatialGrid


@dataclass(frozen=True)
class PumpProfile:
    """Transverse pump field sampled on a grid.

    ``width`` is the full width for a uniform beam, or the 1/e^2 intensity
    diameter for a gaussian one.
    """

    shape: str
    width: float
    grid: SpatialGrid
    fields: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.fields)
        if e.shape != (self.grid.n,):
            raise InvalidParameterError("pump samples must match the grid")
        if not np.any(e):
            raise DegenerateSourceError("pump field is identically zero")

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.fields) ** 2

    @classmethod
    def uniform(cls, width: float, n: int) -> "PumpProfile":
        """Unit-amplitude beam of the given full width.

        Sampled on cell midpoints so the rectangle rule integrates the hard
        edges exactly.
        """
        if width <= 0:
            raise InvalidParameterError("pump width must be positive")
        grid = SpatialGrid.cell_centered(width, n)
        return cls("uniform", width, grid, np.ones(n, dtype=complex))

    @classmethod
    def gaussian(cls, width: float, n: int) -> "PumpProfile":
        """Gaussian beam of 1/e^2 intensity diameter ``width``, sampled over 4 widths."""
        if width <= 0:
            raise InvalidParameterError("pump width must be positive")
        grid = SpatialGrid.cell_centered(4.0 * width, n)
        x = grid.positions
        return cls("gaussian", width, grid, np.exp(-4 * (x / width) ** 2) + 0j)


def real_psi(psi: complex) -> float:
    """Collapse psi to the real number used by the visibility formulas.

    Symmetric 2f geometries give a real psi, up to quadrature noise under
    1e-9 max(1, |psi|), and the signed real part is returned, preserving
    negative sinc lobes.  Free-space illumination attaches a
    distance-dependent global propagation phase with no physical content
    for fringe visibilities; in that case the magnitude is returned.
    """
    if abs(psi.imag) <= 1e-9 * max(1.0, abs(psi)):
        return float(psi.real)
    return float(abs(psi))


def effective_psi(p11: complex, p22: complex, p12: complex) -> float:
    """Real, |.| <= 1 entanglement parameter from raw biphoton values.

    The quotient is taken in whichever direction keeps it inside the unit
    disk, so a vanishing self-term (a sinc zero under Fourier-transform
    illumination) maps smoothly to psi = 0 instead of dividing by zero.
    """
    denom = 0.5 * (p11 + p22)
    if abs(p12) >= abs(denom):
        if abs(p12) == 0:
            raise NormalizationError("all biphoton cross terms vanish")
        return real_psi(denom / p12)
    return real_psi(p12 / denom)


@dataclass(frozen=True)
class ApertureCorrelations:
    """The six slit-plane correlation values plus their normalized forms:
    the coherence values (G11, G22, G12) and the two-photon wavefunction
    values (P11, P22, P12) of the module docstring."""

    g11: float
    g22: float
    g12: complex
    p11: complex
    p22: complex
    p12: complex

    @classmethod
    def from_pump(
        cls, pump: PumpProfile, r1: np.ndarray, r2: np.ndarray
    ) -> "ApertureCorrelations":
        """Correlations of ``pump`` through the slit rows ``r1``, ``r2``: the
        illumination kernel rows at the two slits on the pump grid."""
        if np.shape(r1) != (pump.grid.n,) or np.shape(r2) != (pump.grid.n,):
            raise InvalidParameterError("slit rows must be sampled on the pump grid")
        ip, ep, dx = pump.intensity, pump.fields, pump.grid.spacing
        return cls(
            float(np.sum(ip * np.abs(r1) ** 2) * dx),
            float(np.sum(ip * np.abs(r2) ** 2) * dx),
            complex(np.sum(ip * np.conj(r1) * r2) * dx),
            complex(np.sum(ep * r1 * r1) * dx),
            complex(np.sum(ep * r2 * r2) * dx),
            complex(np.sum(ep * r1 * r2) * dx),
        )

    @property
    def g1(self) -> complex:
        """Degree of coherence G12 / sqrt(G11 G22)."""
        if self.g11 * self.g22 <= 0:
            raise NormalizationError(
                f"coherence self-terms vanish (G11={self.g11}, G22={self.g22})"
            )
        return self.g12 / math.sqrt(self.g11 * self.g22)

    @property
    def psi(self) -> complex:
        """Biphoton ratio P12 / P11."""
        if abs(self.p11) == 0:
            raise NormalizationError("biphoton self-term P11 vanishes")
        return self.p12 / self.p11

    @property
    def psi_effective(self) -> float:
        return effective_psi(self.p11, self.p22, self.p12)


def psi_sinc_closed_form(
    b: float, a: float, wavelength: float, focal_length: float
) -> float:
    """sinc(b a / (wavelength f)) for a uniform pump behind a 2f system.

    sinc(x) = sin(pi x) / (pi x), equal to 1 at x = 0.
    """
    for name, v in (("b", b), ("a", a), ("wavelength", wavelength), ("focal_length", focal_length)):
        if v <= 0:
            raise InvalidParameterError(f"{name} must be positive")
    u = b * a / (wavelength * focal_length)
    return float(np.sinc(u))
