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


def _check_period(grid: SpatialGrid, period: float):
    """Reject a non-positive period; warn when the grid undersamples it."""
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    if grid.spacing > period / 8:
        warnings.warn(
            f"only {period / grid.spacing:.2f} samples per fringe period "
            "(< 8); pattern may be undersampled",
            AliasingWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class FringePattern1D:
    """Real-valued 1-D pattern on a detector grid; the fringe period is the
    caller's, passed to each function that needs it."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n,):
            raise InvalidParameterError("pattern length must match the grid")


@dataclass(frozen=True)
class JointPattern2D:
    """Real-valued pattern over pairs of detector positions (shared grid);
    like ``FringePattern1D`` it carries no fringe period."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)
    kind: str = "coincidence"

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n, self.grid.n):
            raise InvalidParameterError("pattern shape must match the grid")
        if self.kind not in ("coincidence", "excess"):
            raise InvalidParameterError(f"unknown pattern kind {self.kind!r}")

    def cell_area(self) -> float:
        return self.grid.spacing ** 2


def _normalized(values: np.ndarray, dx: float) -> np.ndarray:
    """``values`` scaled in place to unit sum over cells of area dx^2."""
    s = values.sum() * dx * dx
    if s <= 0:
        raise InvalidParameterError("pattern has non-positive total; cannot normalize")
    values /= s
    return values


def single_photon_pattern(
    g1: float, period: float, grid: SpatialGrid
) -> FringePattern1D:
    """1 + g1 cos(2 pi x / period), normalized to unit mean over the grid."""
    if abs(g1) > 1 + 1e-12:
        raise InvalidParameterError(f"|g1| must be <= 1, got {g1}")
    _check_period(grid, period)
    v = 1.0 + g1 * np.cos(2 * np.pi * grid.positions / period)
    return FringePattern1D(grid, v / v.mean())


def intensity_general(
    h2: LinearKernel,
    corr,
    slits: SlitPair,
) -> FringePattern1D:
    """One-photon intensity from the detection kernel and slit coherence.

    I(x') = |h2(x',x1)|^2 G11 + |h2(x',x2)|^2 G22
            + 2 Re[ conj(h2(x',x1)) h2(x',x2) G12 ],
    normalized to unit mean.  ``corr`` provides g11, g22, g12.
    """
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
) -> JointPattern2D:
    """Coincidence pattern |Psi(x', x'')|^2 from the two-path amplitude.

    Psi = h2(x',x1) h2(x'',x1) P11 + h2(x',x2) h2(x'',x2) P22
          + [h2(x',x1) h2(x'',x2) + h2(x',x2) h2(x'',x1)] P12,
    unit-sum normalized.  ``corr`` provides p11, p22, p12.
    """
    c1, c2 = slit_columns(h2, slits)
    psi2 = (
        np.outer(c1, c1) * corr.p11
        + np.outer(c2, c2) * corr.p22
        + (np.outer(c1, c2) + np.outer(c2, c1)) * corr.p12
    )
    g2 = np.abs(psi2) ** 2
    g2 = _normalized(g2, h2.grid_out.spacing)
    return JointPattern2D(h2.grid_out, g2, "coincidence")


def coincidence_pattern(psi: complex, period: float, grid: SpatialGrid) -> JointPattern2D:
    """Closed-form coincidence pattern |cos S + psi cos D|^2 for a 2f
    detection system, unit-sum normalized.

    psi may be complex or exceed unit modulus (the reciprocal representative
    swaps sum- and difference-fringe roles).  The tests hold the modulus
    against its four-term cosine expansion in the module docstring.
    """
    _check_period(grid, period)
    x = grid.positions
    # S and D are built in place: the same floats as pi * (x' +- x'') / period
    sp = np.add.outer(x, x)
    sp *= np.pi
    sp /= period
    dp = np.subtract.outer(x, x)
    dp *= np.pi
    dp /= period
    if np.iscomplexobj(psi):
        v = np.abs(np.cos(sp) + psi * np.cos(dp)) ** 2
    else:
        v = np.cos(sp, out=sp)
        np.cos(dp, out=dp)
        dp *= psi
        v += dp
        np.abs(v, out=v)
        np.square(v, out=v)
    v = _normalized(v, grid.spacing)
    return JointPattern2D(grid, v, "coincidence")


def marginal_pattern(g2: JointPattern2D) -> FringePattern1D:
    """Marginal single-photon density: row sums weighted by the cell width."""
    if g2.kind != "coincidence":
        raise InvalidParameterError("marginal is defined for coincidence patterns")
    m = g2.values.sum(axis=1) * g2.grid.spacing
    return FringePattern1D(g2.grid, m)


def _roi_slice(grid: SpatialGrid, period: float) -> slice:
    """Symmetric region holding an integer number of fringe periods.

    The grid's positions are sorted, so the region is a contiguous slice of
    them.  Falls back to the full grid when the grid spans less than one
    period or no grid point lies inside the region.
    """
    n_per = int(np.floor(grid.extent / period))
    if n_per < 1:
        return slice(None)
    half = n_per * period / 2
    center = (grid.x_min + grid.x_max) / 2
    inside = np.flatnonzero(np.abs(grid.positions - center) <= half + 1e-9 * grid.spacing)
    if inside.size == 0:
        return slice(None)
    return slice(inside[0], inside[-1] + 1)


def excess_pattern(
    g2: JointPattern2D,
    marginal: FringePattern1D,
    period: float,
) -> JointPattern2D:
    """Excess coincidence pattern dG2 = G2 - Im(x')Im(x'') + A.

    A is chosen so the result unit-sums over the region of interest: the
    central region trimmed to an integer number of fringe periods, with the
    ``period`` the caller passes.  The region is a square block of cells, so
    the marginal product's sum over it is the square of a 1-D sum.
    """
    if marginal.grid != g2.grid:
        raise CompositionError("marginal grid differs from the joint-pattern grid")
    m = marginal.values
    roi = _roi_slice(g2.grid, period)
    cell = g2.cell_area()
    n_roi = len(m[roi])
    a = (1.0 - (g2.values[roi, roi].sum() - m[roi].sum() ** 2) * cell) / (n_roi**2 * cell)
    v = -m[:, None] * m
    v += g2.values
    v += a
    return JointPattern2D(g2.grid, v, "excess")


def excess_closed_form(v12: float, period: float, grid: SpatialGrid) -> JointPattern2D:
    """Closed-form excess pattern V(1+V)/2 cos(2S) - V(1-V)/2 cos(2D) + A
    for two-photon visibility V = ``v12``.

    A is the unit-sum choice over the integer-period region of interest.
    The tests hold the sum/difference form against the product form of the
    module docstring.
    """
    _check_period(grid, period)
    t = 2 * np.pi * grid.positions / period
    s2 = t[:, None] + t[None, :]
    d2 = t[:, None] - t[None, :]
    v = 0.5 * v12 * (1 + v12) * np.cos(s2) - 0.5 * v12 * (1 - v12) * np.cos(d2)
    roi = _roi_slice(grid, period)
    cell = grid.spacing ** 2
    block = v[roi, roi]
    offset = (1.0 - block.sum() * cell) / (block.size * cell)
    return JointPattern2D(grid, v + offset, "excess")

