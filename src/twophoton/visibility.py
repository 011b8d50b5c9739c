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


# Column i of ``g`` is g_i = [1, cos t_i, sin t_i] at sample i's fringe phase.
# Every basis function of a joint fit is the bilinear form g_i^T A g_j of one
# 3x3 matrix A: in the half sum and difference phases S and D these are 1,
# cos 2S, sin 2S, cos 2D, sin 2D, cos t' + cos t'' and sin t' + sin t''.
_JOINT_BASIS = np.zeros((7, 3, 3))
_JOINT_BASIS[0, 0, 0] = 1.0
_JOINT_BASIS[1, 1, 1], _JOINT_BASIS[1, 2, 2] = 1.0, -1.0
_JOINT_BASIS[2, 2, 1], _JOINT_BASIS[2, 1, 2] = 1.0, 1.0
_JOINT_BASIS[3, 1, 1], _JOINT_BASIS[3, 2, 2] = 1.0, 1.0
_JOINT_BASIS[4, 2, 1], _JOINT_BASIS[4, 1, 2] = 1.0, -1.0
_JOINT_BASIS[5, 0, 1], _JOINT_BASIS[5, 1, 0] = 1.0, 1.0
_JOINT_BASIS[6, 0, 2], _JOINT_BASIS[6, 2, 0] = 1.0, 1.0

# Largest condition number of a normal matrix that is solved.  Every basis
# function has unit amplitude, so the plain condition number measures how
# well the samples separate them; the normal equations square the design's
# condition, and past this bound fewer than six digits would be left.
_MAX_CONDITION = 1e10


def _fringe_basis(positions: np.ndarray, period: float) -> np.ndarray:
    """``g``, shape (3, n): the samples run along contiguous rows, so every
    reduction over them below is a contiguous inner loop."""
    t = 2 * np.pi * positions / period
    return np.stack([np.ones_like(t), np.cos(t), np.sin(t)])


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients of the normal equations ``gram @ coef = rhs``.

    Raises ``UnderDeterminedFitError`` when the samples do not separate the
    basis functions: a condition number above ``_MAX_CONDITION``.
    """
    if not np.linalg.cond(gram) <= _MAX_CONDITION:
        raise UnderDeterminedFitError("the selected samples do not separate the fit's basis")
    return np.linalg.solve(gram, rhs)


def _norm(values: np.ndarray) -> float:
    flat = values.ravel()
    return float(np.sqrt(np.einsum("i,i->", flat, flat)))


def fit_fringe_visibility(pattern: FringePattern1D, period: float) -> FringeFit:
    """Linear least-squares fringe fit at a known period.

    Fits offset * (1 + V cos(2 pi x / period + phase)) on the basis
    {1, cos, sin} through its 3x3 normal equations.  Returns V >= 0 with the
    sign absorbed into the phase; ``residual`` is |model - y| / |y|.
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
    g = _fringe_basis(x, period)
    coef = _solve_normal(np.einsum("ki,li->kl", g, g), np.einsum("ki,i->k", g, y))
    c0, c1, c2 = coef
    resid = _norm(np.einsum("ki,k->i", g, coef) - y) / max(_norm(y), 1e-300)
    if c0 <= 0 or (c1 == 0 and c2 == 0):
        return FringeFit(0.0, 0.0, float(c0), resid)
    v = float(np.hypot(c1, c2) / c0)
    phase = float(np.arctan2(-c2, c1))
    return FringeFit(v, phase, float(c0), resid)


@dataclass(frozen=True)
class JointFit:
    """Two-dimensional fit c0 + c_S cos 2S + c_D cos 2D + c1 (cos t' + cos t''),
    plus the sine partners of the last three terms.

    ``offset`` is c0, ``amp_sum`` and ``amp_diff`` are the signed sum- and
    difference-coordinate fringe amplitudes c_S and c_D, and ``amp_single``
    is the one-photon fringe amplitude |c1| of cos and sin in quadrature.
    ``v12`` is the scale-free ratio (B + C) / (B - C), clamped to [0, 1],
    of B = c_S - |c1|^2 / (2 c0) and C = c_D - |c1|^2 / (2 c0).  On a G2
    that mixes a pair density with the product of its marginals, in any
    proportion, it is the pair density's V12; on an excess pattern c1 is
    about 0, and it solves B = V(1+V)/2, C = -V(1-V)/2.  ``residual`` is the
    unweighted |model - y| / |y| over the cells of positive weight, whatever
    the weights are.
    """

    v12: float
    amp_sum: float
    amp_diff: float
    amp_single: float
    offset: float
    residual: float


def fit_joint_visibility(
    pattern: JointPattern2D,
    period: float,
    weights: np.ndarray | None = None,
) -> JointFit:
    """Least-squares fit of a G2 or excess pattern at a known fringe period.

    Basis: {1, cos 2S, sin 2S, cos 2D, sin 2D, cos t' + cos t'',
    sin t' + sin t''} with S, D the half sum and difference phases.
    ``weights`` are least-squares weights per cell, by default all 1.  They
    must be finite and non-negative; a cell of weight 0 is left out of the
    fit and never read, so its value may be anything, NaN included (e.g. a
    resolution-limited near-diagonal band).

    Each basis function is separable, g_i^T A g_j with g = [1, cos t, sin t],
    so the 7x7 normal equations come from projections of the cell weights
    and weighted values onto products of g: no n^2-by-7 design is built.
    The reductions are two-operand ``einsum`` calls, which run no threaded
    BLAS routine.
    """
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    grid = pattern.grid
    if grid.extent < 2 * period:
        raise UnderDeterminedFitError("joint pattern must span >= 2 periods")
    y = np.asarray(pattern.values, dtype=float)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise InvalidParameterError("weights must have the pattern's shape")
    # NaN fails both comparisons
    if not (w.min() >= 0 and w.max() < np.inf):
        raise InvalidParameterError("weights must be finite and non-negative")
    sel = w > 0
    if np.count_nonzero(sel) < 10:
        raise UnderDeterminedFitError("too few cells selected for a joint fit")
    # zero-weight cells are never read, as in a fit of the selected rows
    y = np.where(sel, y, 0.0)
    g = _fringe_basis(grid.positions, period)
    n = grid.n
    # Gram[a, b] = sum_ij w_ij phi_a(i, j) phi_b(i, j)
    #            = sum A_a[k, l] A_b[m, n] H[km, ln],  H = h^T w h,  h_i = g_i (x) g_i
    h = np.einsum("ki,mi->kmi", g, g).reshape(9, n)
    hw = np.einsum("ij,qj->qi", w, h)
    big_h = np.einsum("pi,qi->pq", h, hw).reshape(3, 3, 3, 3)
    half = np.einsum("akl,kmln->amn", _JOINT_BASIS, big_h)
    gram = np.einsum("amn,bmn->ab", half, _JOINT_BASIS)
    # rhs[a] = A_a : (g^T (w y) g)
    wy_g = np.einsum("ij,lj->li", w * y, g)
    rhs = np.einsum("akl,kl->a", _JOINT_BASIS, np.einsum("ki,li->kl", g, wy_g))
    coef = _solve_normal(gram, rhs)
    a, b, c = float(coef[0]), float(coef[1]), float(coef[3])
    single = float(np.hypot(coef[5], coef[6]))
    model_a = np.einsum("a,akl->kl", coef, _JOINT_BASIS)
    model = np.einsum("li,lj->ij", np.einsum("kl,ki->li", model_a, g), g)
    model -= y
    model *= sel
    resid = _norm(model) / max(_norm(y), 1e-300)
    # B + C = c_S + c_D - |c1|^2 / c0; the one-photon shares of B and C
    # cancel in B - C = c_S - c_D
    shift = single**2 / a if a > 0 else 0.0
    denom = b - c
    if abs(denom) < 1e-12 * max(abs(a), 1e-300):
        v12 = 0.0
    else:
        v12 = (b + c - shift) / denom
    v12 = float(min(max(v12, 0.0), 1.0))
    return JointFit(v12, b, c, single, a, resid)
