"""Fringe visibilities: closed forms and estimators.

For a real entanglement parameter psi the three visibilities are

    V1  = psi                     (pure one-photon, rectangular-pump duality)
    V1m = 2 psi / (1 + psi^2)     (marginal one-photon)
    V12 = (1 - psi^2) / (1 + psi^2)   (two-photon)

and V1m^2 + V12^2 = 1 identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnderDeterminedFitError
from .patterns import FringePattern1D, JointPattern2D


@dataclass(frozen=True)
class VisibilitySet:
    v1: float
    v1m: float
    v12: float


def visibilities_from_psi(psi: float) -> VisibilitySet:
    """All three visibilities for a real psi in [-1, 1]."""
    if abs(psi) > 1 + 1e-12:
        raise InvalidParameterError(f"|psi| must be <= 1, got {psi}")
    denom = 1.0 + psi * psi
    return VisibilitySet(
        v1=psi,
        v1m=2.0 * psi / denom,
        v12=(1.0 - psi * psi) / denom,
    )


@dataclass(frozen=True)
class FringeFit:
    """Result of a known-period sinusoid fit: offset * (1 + V cos(2 pi x / L + phase))."""

    visibility: float
    phase: float
    offset: float
    residual: float


def fit_fringe_visibility(pattern: FringePattern1D, period: float) -> FringeFit:
    """Linear least-squares fringe fit at a known period.

    Fits offset * (1 + V cos(2 pi x / period + phase)) on the basis
    {1, cos, sin}.  Returns V >= 0 with the sign absorbed into the phase.
    """
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    x = pattern.grid.positions
    y = np.asarray(pattern.values, dtype=float)
    if x.size < 3:
        raise UnderDeterminedFitError("need at least 3 samples for a fringe fit")
    if x.max() - x.min() < 2 * period:
        raise UnderDeterminedFitError(
            f"pattern spans {(x.max() - x.min()) / period:.2f} periods; need >= 2"
        )
    t = 2 * np.pi * x / period
    design = np.column_stack([np.ones_like(t), np.cos(t), np.sin(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    c0, c1, c2 = coef
    resid = float(np.linalg.norm(design @ coef - y) / max(np.linalg.norm(y), 1e-300))
    if c0 <= 0 or (c1 == 0 and c2 == 0):
        return FringeFit(0.0, 0.0, float(c0), resid)
    v = float(np.hypot(c1, c2) / c0)
    phase = float(np.arctan2(-c2, c1))
    return FringeFit(v, phase, float(c0), resid)


@dataclass(frozen=True)
class JointFit:
    """Two-dimensional excess-pattern fit A + B cos(2S) + C cos(2D).

    B and C are the signed sum- and difference-coordinate fringe amplitudes;
    v12 solves B = V(1+V)/2, C = -V(1-V)/2 through the scale-free ratio
    V = (B + C) / (B - C), clamped to [0, 1].
    """

    v12: float
    amp_sum: float
    amp_diff: float
    offset: float
    residual: float


def fit_joint_visibility(
    excess: JointPattern2D,
    period: float,
    mask: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> JointFit:
    """Least-squares fit of the excess pattern at a known fringe period.

    Basis: {1, cos 2S, sin 2S, cos 2D, sin 2D} with S, D the half sum and
    difference phases.  ``mask`` selects the cells used (e.g. to exclude a
    resolution-limited near-diagonal band); ``weights`` are least-squares
    weights on the same cells.
    """
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    grid = excess.grid
    if grid.extent < 2 * period:
        raise UnderDeterminedFitError("excess pattern must span >= 2 periods")
    t = 2 * np.pi * grid.positions / period
    s2 = t[:, None] + t[None, :]
    d2 = t[:, None] - t[None, :]
    y = np.asarray(excess.values, dtype=float)
    sel = np.ones(y.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if sel.sum() < 10:
        raise UnderDeterminedFitError("too few cells selected for a joint fit")
    cols = [np.ones(y.shape), np.cos(s2), np.sin(s2), np.cos(d2), np.sin(d2)]
    design = np.column_stack([c[sel] for c in cols])
    ysel = y[sel]
    if weights is not None:
        sw = np.sqrt(np.asarray(weights, dtype=float)[sel])
        coef, *_ = np.linalg.lstsq(design * sw[:, None], ysel * sw, rcond=None)
    else:
        coef, *_ = np.linalg.lstsq(design, ysel, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    c = float(coef[3])
    resid = float(
        np.linalg.norm(design @ coef - ysel) / max(np.linalg.norm(ysel), 1e-300)
    )
    denom = b - c
    if abs(denom) < 1e-12 * max(abs(a), 1e-300):
        v12 = 0.0
    else:
        v12 = (b + c) / denom
    v12 = float(min(max(v12, 0.0), 1.0))
    return JointFit(v12, b, c, a, resid)
