"""Analytic detector-plane fringe patterns.

One-photon intensity, two-photon coincidence, its marginal, and the excess
coincidence pattern, each available along two routes: the general kernel
route (any illumination, complex correlation values) and the closed-form
route for a 2f detection system, parametrized by the fringe period and a
single normalized correlation value.  The two routes must agree pointwise
for 2f kernels; tests rely on that.

Closed forms used (S = pi (x'+x'')/L, D = pi (x'-x'')/L, L the period):

    G2(x', x'') ∝ |cos S + psi cos D|^2
               = 1 + cos 2S / (1+|psi|^2) + |psi|^2 cos 2D / (1+|psi|^2)
                   + V1m (cos 2pi x'/L + cos 2pi x''/L)

    dG2 = G2 - Im(x') Im(x'') + A
        = V(1+V)/2 cos 2S - V(1-V)/2 cos 2D + A
        = V^2 cos(2pi x'/L) cos(2pi x''/L) - V sin(2pi x'/L) sin(2pi x''/L) + A

with V1m = 2 Re(psi)/(1+|psi|^2) and V = (1-psi^2)/(1+psi^2) for real psi.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingWarning, CompositionError, InvalidParameterError
from .optics import LinearKernel, SlitPair, SpatialGrid, slit_columns


def _check_sampling(grid: SpatialGrid, period: float | None):
    if period is not None and grid.spacing > period / 8:
        warnings.warn(
            f"only {period / grid.spacing:.2f} samples per fringe period "
            "(< 8); pattern may be undersampled",
            AliasingWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class FringePattern1D:
    """Real-valued 1-D pattern on a detector grid."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)
    period: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n,):
            raise InvalidParameterError("pattern length must match the grid")

    def total(self) -> float:
        return float(np.sum(self.values) * self.grid.spacing)


@dataclass(frozen=True)
class JointPattern2D:
    """Real-valued pattern over pairs of detector positions (shared grid)."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)
    kind: str = "coincidence"
    period: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n, self.grid.n):
            raise InvalidParameterError("pattern shape must match the grid")
        if self.kind not in ("coincidence", "excess"):
            raise InvalidParameterError(f"unknown pattern kind {self.kind!r}")

    def cell_area(self) -> float:
        return self.grid.spacing ** 2

    def total(self) -> float:
        return float(np.sum(self.values) * self.cell_area())


def _normalized(values: np.ndarray, dx: float) -> np.ndarray:
    s = values.sum() * dx * dx
    if s <= 0:
        raise InvalidParameterError("pattern has non-positive total; cannot normalize")
    return values / s


def single_photon_pattern(
    g1: float, period: float, grid: SpatialGrid
) -> FringePattern1D:
    """1 + g1 cos(2 pi x / period), normalized to unit mean over the grid."""
    if abs(g1) > 1 + 1e-12:
        raise InvalidParameterError(f"|g1| must be <= 1, got {g1}")
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    _check_sampling(grid, period)
    v = 1.0 + g1 * np.cos(2 * np.pi * grid.positions / period)
    return FringePattern1D(grid, v / v.mean(), period)


def intensity_general(
    h2: LinearKernel,
    corr,
    slits: SlitPair,
    grid: SpatialGrid | None = None,
) -> FringePattern1D:
    """One-photon intensity from the detection kernel and slit coherence.

    I(x') = |h2(x',x1)|^2 G11 + |h2(x',x2)|^2 G22
            + 2 Re[ conj(h2(x',x1)) h2(x',x2) G12 ],
    normalized to unit mean.  ``corr`` provides g11, g22, g12.
    """
    if grid is not None and grid != h2.grid_out:
        raise CompositionError("requested grid differs from the h2 output grid")
    c1, c2 = slit_columns(h2, slits)
    v = (
        np.abs(c1) ** 2 * corr.g11
        + np.abs(c2) ** 2 * corr.g22
        + 2 * np.real(np.conj(c1) * c2 * corr.g12)
    )
    # interference terms may undershoot zero by rounding only
    if v.min() < -1e-9 * np.abs(v).max():
        raise InvalidParameterError("intensity came out negative; inconsistent correlations")
    v = np.clip(v, 0.0, None)
    return FringePattern1D(h2.grid_out, v / v.mean())


def coincidence_general(
    h2: LinearKernel,
    corr,
    slits: SlitPair,
    grid: SpatialGrid | None = None,
) -> JointPattern2D:
    """Coincidence pattern |Psi(x', x'')|^2 from the two-path amplitude.

    Psi = h2(x',x1) h2(x'',x1) P11 + h2(x',x2) h2(x'',x2) P22
          + [h2(x',x1) h2(x'',x2) + h2(x',x2) h2(x'',x1)] P12,
    unit-sum normalized.  ``corr`` provides p11, p22, p12.
    """
    if grid is not None and grid != h2.grid_out:
        raise CompositionError("requested grid differs from the h2 output grid")
    c1, c2 = slit_columns(h2, slits)
    psi2 = (
        np.outer(c1, c1) * corr.p11
        + np.outer(c2, c2) * corr.p22
        + (np.outer(c1, c2) + np.outer(c2, c1)) * corr.p12
    )
    g2 = np.abs(psi2) ** 2
    g2 = _normalized(g2, h2.grid_out.spacing)
    return JointPattern2D(h2.grid_out, g2, "coincidence")


def coincidence_pattern(
    psi: complex,
    period: float,
    grid: SpatialGrid,
    form: str = "modulus",
) -> JointPattern2D:
    """Closed-form coincidence pattern for a 2f detection system.

    ``form='modulus'`` evaluates |cos S + psi cos D|^2 directly;
    ``form='expanded'`` evaluates its four-term cosine expansion.  The two
    agree pointwise.  psi may be complex or exceed unit modulus (the
    reciprocal representative swaps sum- and difference-fringe roles).
    """
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    _check_sampling(grid, period)
    x = grid.positions
    sp = np.pi * (x[:, None] + x[None, :]) / period
    dp = np.pi * (x[:, None] - x[None, :]) / period
    if form == "modulus":
        v = np.abs(np.cos(sp) + psi * np.cos(dp)) ** 2
    elif form == "expanded":
        m2 = abs(psi) ** 2
        norm = (1.0 + m2) / 2.0
        v = norm * (
            1.0
            + np.cos(2 * sp) / (1 + m2)
            + m2 * np.cos(2 * dp) / (1 + m2)
            + (2 * np.real(psi) / (1 + m2))
            * (np.cos(2 * np.pi * x[:, None] / period) + np.cos(2 * np.pi * x[None, :] / period))
        )
    else:
        raise InvalidParameterError(f"unknown form {form!r}")
    v = _normalized(v, grid.spacing)
    return JointPattern2D(grid, v, "coincidence", period=period)


def marginal_pattern(g2: JointPattern2D) -> FringePattern1D:
    """Marginal single-photon density: row sums weighted by the cell width."""
    if g2.kind != "coincidence":
        raise InvalidParameterError("marginal is defined for coincidence patterns")
    m = g2.values.sum(axis=1) * g2.grid.spacing
    return FringePattern1D(g2.grid, m, g2.period)


def _roi_mask(grid: SpatialGrid, period: float | None) -> np.ndarray:
    """Symmetric region holding an integer number of fringe periods.

    Falls back to the full grid when no period is known or the grid spans
    less than one period.
    """
    if period is None:
        return np.ones(grid.n, dtype=bool)
    n_per = int(np.floor(grid.extent / period))
    if n_per < 1:
        return np.ones(grid.n, dtype=bool)
    half = n_per * period / 2
    center = (grid.x_min + grid.x_max) / 2
    x = grid.positions
    return np.abs(x - center) <= half + 1e-9 * grid.spacing


def excess_pattern(
    g2: JointPattern2D,
    marginal: FringePattern1D,
    period: float | None = None,
) -> JointPattern2D:
    """Excess coincidence pattern dG2 = G2 - Im(x')Im(x'') + A.

    A is chosen so the result unit-sums over the region of interest: the
    central region trimmed to an integer number of fringe periods (the full
    grid when no period is known).
    """
    if marginal.grid != g2.grid:
        raise CompositionError("marginal grid differs from the joint-pattern grid")
    period = period if period is not None else g2.period
    raw = g2.values - np.outer(marginal.values, marginal.values)
    roi = _roi_mask(g2.grid, period)
    mask2 = np.outer(roi, roi)
    cell = g2.cell_area()
    n_roi = int(mask2.sum())
    a = (1.0 - raw[mask2].sum() * cell) / (n_roi * cell)
    return JointPattern2D(g2.grid, raw + a, "excess", period=period)


def excess_closed_form(
    v12: float,
    period: float,
    grid: SpatialGrid,
    form: str = "sumdiff",
    offset: float | None = None,
) -> JointPattern2D:
    """Closed-form excess pattern for two-photon visibility ``v12``.

    ``form='sumdiff'``: V(1+V)/2 cos(2S) - V(1-V)/2 cos(2D) + A.
    ``form='product'``: V^2 cos cos - V sin sin + A.
    The two agree pointwise.  A defaults to the unit-sum choice over the
    integer-period region of interest.
    """
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    _check_sampling(grid, period)
    x = grid.positions
    t = 2 * np.pi * x / period
    if form == "sumdiff":
        s2 = t[:, None] + t[None, :]
        d2 = t[:, None] - t[None, :]
        v = 0.5 * v12 * (1 + v12) * np.cos(s2) - 0.5 * v12 * (1 - v12) * np.cos(d2)
    elif form == "product":
        v = v12 ** 2 * np.outer(np.cos(t), np.cos(t)) - v12 * np.outer(np.sin(t), np.sin(t))
    else:
        raise InvalidParameterError(f"unknown form {form!r}")
    if offset is None:
        roi = _roi_mask(grid, period)
        mask2 = np.outer(roi, roi)
        cell = grid.spacing ** 2
        offset = (1.0 - v[mask2].sum() * cell) / (int(mask2.sum()) * cell)
    return JointPattern2D(grid, v + offset, "excess", period=period)

