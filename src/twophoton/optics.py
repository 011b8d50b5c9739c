"""Discretized linear-optical impulse-response kernels.

A kernel maps a complex field sampled on an input grid to a field on an
output grid.  The two physical kernels here are the paraxial free-space
propagator and the Fourier-transforming lens in 2f configuration; the
double-slit patterns read their rows and columns at the two slits.  All
kernels drop constant prefactors: every downstream quantity is
normalized, so only relative phase and amplitude matter.

The slit-plane correlations only read the illumination kernel averaged over
each slit; ``slit_averaged_rows`` gives those two rows in closed form.  The
sampled kernels and ``slit_rows`` remain as the grid route it is tested
against, and ``slit_columns`` serves the general detection routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import InvalidParameterError, OutOfRangeError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1-D grid of sample positions, in meters."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError(f"grid needs n >= 2, got {self.n}")
        if not self.x_max > self.x_min:
            raise InvalidParameterError(
                f"grid needs x_max > x_min, got [{self.x_min}, {self.x_max}]"
            )

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def positions(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def extent(self) -> float:
        return self.x_max - self.x_min

    @classmethod
    def cell_centered(cls, width: float, n: int) -> "SpatialGrid":
        """Grid whose nodes are the midpoints of ``n`` cells tiling
        ``[-width/2, width/2]``.

        With the rectangle quadrature weight ``spacing`` this sums to the
        exact interval length, which matters for closed-form comparisons.
        """
        h = width / n
        return cls(-width / 2 + h / 2, width / 2 - h / 2, n)

    def contains(self, x: float) -> bool:
        return self.x_min <= x <= self.x_max

    def nearest_index(self, x: float) -> int:
        if not self.contains(x):
            raise OutOfRangeError(
                f"position {x} outside grid [{self.x_min}, {self.x_max}]"
            )
        return int(round((x - self.x_min) / self.spacing))


@dataclass(frozen=True)
class SlitPair:
    """Double slit: separation between slit centers and individual width.

    Slits sit symmetrically about the axis at -separation/2, +separation/2.
    """

    separation: float
    width: float = 0.0

    def __post_init__(self):
        if self.separation <= 0:
            raise InvalidParameterError("slit separation must be positive")
        if not 0 <= self.width < self.separation:
            raise InvalidParameterError(
                "slit width must satisfy 0 <= width < separation"
            )

    @property
    def x1(self) -> float:
        return -self.separation / 2

    @property
    def x2(self) -> float:
        return self.separation / 2


@dataclass(frozen=True)
class LinearKernel:
    """Complex impulse response h(x_out, x_in) between two grids.

    ``values[j, i]`` is the amplitude transferred from ``grid_in`` node i to
    ``grid_out`` node j.  Immutable; safe to share across threads.
    """

    grid_in: SpatialGrid
    grid_out: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid_out.n, self.grid_in.n):
            raise InvalidParameterError(
                f"kernel shape {v.shape} does not match grids "
                f"({self.grid_out.n}, {self.grid_in.n})"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("kernel entries must be finite")

    def transposed(self) -> "LinearKernel":
        return LinearKernel(self.grid_out, self.grid_in, self.values.T)


def fourier_2f_kernel(
    grid_in: SpatialGrid,
    grid_out: SpatialGrid,
    wavelength: float,
    focal_length: float,
) -> LinearKernel:
    """Fourier-transforming lens, input and output one focal length away.

    h(x_out, x_in) = exp(-i 2 pi x_out x_in / (wavelength * focal_length)).
    """
    if wavelength <= 0:
        raise InvalidParameterError("wavelength must be positive")
    if focal_length <= 0:
        raise InvalidParameterError("focal length must be positive")
    xo = grid_out.positions[:, None]
    xi = grid_in.positions[None, :]
    phase = -2.0 * np.pi * xo * xi / (wavelength * focal_length)
    return LinearKernel(grid_in, grid_out, np.exp(1j * phase))


def fresnel_kernel(
    grid_in: SpatialGrid,
    grid_out: SpatialGrid,
    wavelength: float,
    distance: float,
) -> LinearKernel:
    """Paraxial free-space propagator over ``distance``.

    h(x_out, x_in) = exp(i pi (x_out - x_in)^2 / (wavelength * distance)).
    Constant prefactor dropped; contact imaging (distance <= 0) is not
    modeled.
    """
    if wavelength <= 0:
        raise InvalidParameterError("wavelength must be positive")
    if distance <= 0:
        raise InvalidParameterError("propagation distance must be positive")
    dx = grid_out.positions[:, None] - grid_in.positions[None, :]
    phase = np.pi * dx * dx / (wavelength * distance)
    return LinearKernel(grid_in, grid_out, np.exp(1j * phase))


def slit_averaged_rows(
    grid_in: SpatialGrid,
    slits: SlitPair,
    wavelength: float,
    *,
    distance: float | None = None,
    focal_length: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Illumination kernel rows averaged over each slit, in closed form.

    The exact values of (1/w) * integral of h(x_s + t, x) over |t| <= w/2
    at the slit centers x_s = -+a/2, on the nodes of ``grid_in``, for the
    kernels of ``fresnel_kernel`` (pass ``distance``) or
    ``fourier_2f_kernel`` (pass ``focal_length``), with u = sqrt(2/(wavelength d))
    (x_s +- w/2 - x) and C, S the Fresnel integrals:

        Fresnel  (1/w) sqrt(wavelength d / 2) [C(u2) - C(u1) + i (S(u2) - S(u1))]
        2f       exp(-2 pi i x_s x / (wavelength f)) sinc(w x / (wavelength f))

    Thin slits (w = 0) give the pointwise kernel at the centers.  Valid for
    wavelength > 0, distance or focal length > 0, and 0 <= w < a (which
    ``SlitPair`` enforces); outside that it raises InvalidParameterError.
    """
    if (distance is None) == (focal_length is None):
        raise InvalidParameterError("pass exactly one of distance and focal_length")
    if not wavelength > 0:
        raise InvalidParameterError("wavelength must be positive")
    length = distance if focal_length is None else focal_length
    if not length > 0:
        name = "propagation distance" if focal_length is None else "focal length"
        raise InvalidParameterError(f"{name} must be positive")
    x = grid_in.positions
    w = slits.width
    scale = wavelength * length
    rows = []
    for xs in (slits.x1, slits.x2):
        if focal_length is not None:
            rows.append(np.exp(-2j * np.pi * xs * x / scale) * np.sinc(w * x / scale))
        elif w == 0.0:
            rows.append(np.exp(1j * np.pi * (xs - x) ** 2 / scale))
        else:
            s1, c1 = special.fresnel(np.sqrt(2 / scale) * (xs - w / 2 - x))
            s2, c2 = special.fresnel(np.sqrt(2 / scale) * (xs + w / 2 - x))
            rows.append(np.sqrt(scale / 2) / w * ((c2 - c1) + 1j * (s2 - s1)))
    return rows[0], rows[1]


def _slit_indices(grid: SpatialGrid, center: float, width: float) -> np.ndarray:
    if width == 0.0:
        return np.array([grid.nearest_index(center)])
    lo, hi = center - width / 2, center + width / 2
    if not (grid.contains(lo) and grid.contains(hi)):
        raise OutOfRangeError(
            f"slit [{lo}, {hi}] extends outside grid "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    x = grid.positions
    eps = 1e-9 * grid.spacing
    idx = np.nonzero((x >= lo - eps) & (x <= hi + eps))[0]
    if idx.size == 0:
        idx = np.array([grid.nearest_index(center)])
    return idx


def slit_rows(kernel: LinearKernel, slits: SlitPair) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows h(x1, .), h(x2, .) at the two slit positions.

    With zero slit width the nearest grid node is used; a finite width
    averages the rows over the nodes spanned by each slit.
    """
    rows = []
    for c in (slits.x1, slits.x2):
        idx = _slit_indices(kernel.grid_out, c, slits.width)
        rows.append(kernel.values[idx].mean(axis=0))
    return rows[0], rows[1]


def slit_columns(kernel: LinearKernel, slits: SlitPair) -> tuple[np.ndarray, np.ndarray]:
    """Kernel columns h(., x1), h(., x2); the slits lie on ``grid_in``."""
    return slit_rows(kernel.transposed(), slits)
