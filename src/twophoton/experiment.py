"""Experiment-level orchestration: geometry to patterns, frames, and fits.

Ties the source/slit geometry to the slit-plane correlations, the analytic
detector-plane patterns, the Monte Carlo frame simulator, and the recovery
of visibilities from a reduced frame stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .biphoton import ApertureCorrelations, PumpProfile, real_psi
from .errors import AliasingWarning, EmptyEstimateError, InvalidParameterError
from .framepipe import (
    AnalysisResult,
    acceptance_profile,
    accidental_fraction,
    analyze_source,
    corrected_cells,
    estimate_pair_rate,
)
from .optics import (
    LinearKernel,
    SlitPair,
    SpatialGrid,
    fourier_2f_kernel,
    fresnel_kernel,
    slit_averaged_rows,
)
from .patterns import (
    JointPattern2D,
    coincidence_pattern,
    excess_pattern,
    marginal_pattern,
    single_photon_pattern,
)
from .sensor import CameraModel, FrameSimulator, require_finite
from .visibility import (
    JointFit,
    ToeplitzNormal,
    VisibilitySet,
    fit_joint_cells,
    # unused here; bound for the benchmark harness's trace hook until the hooks go
    fit_joint_visibility,
    toeplitz_normal,
    visibilities_from_psi,
)

MODES = ("fresnel", "fourier-2f")
# each names the PumpProfile constructor that samples it
PUMP_SHAPES = ("uniform", "gaussian")


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, slit, detection, and run parameters.

    Defaults reproduce the reference double-slit geometry: 0.70 mm slit
    separation, 0.35 mm slit width, 50 mm detection focal length, 812 nm,
    a 2 mm uniform source, and a 240,000-frame run.  ``pump_grid_n`` is the
    only quadrature size: the slit-plane correlations integrate the pump on
    that grid against illumination rows that are exact averages over each
    slit, so no slit-plane grid enters psi.
    """

    pump_width: float = 2e-3
    pump_shape: str = "uniform"
    distance: float = 0.54
    mode: str = "fresnel"
    slit_separation: float = 0.70e-3
    slit_width: float = 0.35e-3
    wavelength: float = 812e-9
    focal_length: float = 50e-3
    pump_grid_n: int = 4096
    camera: CameraModel = field(default_factory=CameraModel)
    n_frames: int = 240_000
    mean_pairs: float = 0.5
    seed: int = 20260823

    def __post_init__(self):
        require_finite(self)
        for name in ("pump_width", "distance", "slit_separation", "wavelength", "focal_length"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive")
        if self.slit_width < 0:
            raise InvalidParameterError("slit_width must be non-negative")
        if self.mode not in MODES:
            raise InvalidParameterError(f"mode must be one of {MODES}")
        if self.pump_shape not in PUMP_SHAPES:
            raise InvalidParameterError(f"pump_shape must be one of {PUMP_SHAPES}")
        if self.n_frames < 0 or self.mean_pairs < 0:
            raise InvalidParameterError("n_frames and mean_pairs must be >= 0")
        if self.pump_grid_n < 2:
            raise InvalidParameterError("pump_grid_n must be >= 2")

    @property
    def fringe_period(self) -> float:
        """Two-beam fringe period lambda f / a at the detection plane."""
        return self.wavelength * self.focal_length / self.slit_separation

    def pump(self) -> PumpProfile:
        return getattr(PumpProfile, self.pump_shape)(self.pump_width, self.pump_grid_n)

    def slits(self) -> SlitPair:
        return SlitPair(self.slit_separation, self.slit_width)

    def illumination_kernel(self, grid: SpatialGrid) -> LinearKernel:
        """Sampled source-to-slit kernel from the pump grid onto ``grid``.

        The grid route that ``correlations`` replaces with closed-form slit
        rows; kept as the oracle those rows are tested against.
        """
        pump_grid = self.pump().grid
        if self.mode == "fourier-2f":
            return fourier_2f_kernel(pump_grid, grid, self.wavelength, self.focal_length)
        return fresnel_kernel(pump_grid, grid, self.wavelength, self.distance)

    def correlations(self) -> ApertureCorrelations:
        """Slit-plane correlations, from the closed-form slit-averaged rows."""
        pump, slits = self.pump(), self.slits()
        if self.mode == "fourier-2f":
            rows = slit_averaged_rows(
                pump.grid, slits, self.wavelength, focal_length=self.focal_length
            )
        else:
            rows = slit_averaged_rows(pump.grid, slits, self.wavelength, distance=self.distance)
        return ApertureCorrelations.from_pump(pump, *rows)

    def analysis_config(self) -> CameraModel:
        """The camera; kept only for the benchmark harness until its trace hooks go."""
        return self.camera


@dataclass(frozen=True)
class AnalyticSummary:
    """Normalized slit-plane values and the visibilities they imply."""

    psi: float
    g1: float
    visibilities: VisibilitySet


def analytic_summary(config: ExperimentConfig) -> AnalyticSummary:
    """psi, g1 and the visibilities of ``config``'s geometry; vary the
    distance with ``dataclasses.replace(config, distance=...)``."""
    corr = config.correlations()
    psi = corr.psi_effective
    return AnalyticSummary(psi, real_psi(corr.g1), visibilities_from_psi(psi))


def joint_pdf(config: ExperimentConfig, psi: float | None = None) -> JointPattern2D:
    """Coincidence probability density sampled at camera pixel centers.

    The pixel grid samples a fringe period 2.42 times at the default
    geometry, a property of the camera rather than a choice of the caller.
    The Monte Carlo needs only point values at pixel centers, so the
    sampling warning is suppressed here.
    """
    if psi is None:
        psi = analytic_summary(config).psi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        return coincidence_pattern(psi, config.fringe_period, config.camera.pixel_grid())


def build_simulator(config: ExperimentConfig, psi: float | None = None) -> FrameSimulator:
    return FrameSimulator(
        joint_pdf(config, psi),
        config.camera,
        config.n_frames,
        config.mean_pairs,
        config.seed,
    )


@dataclass(frozen=True)
class RecoveredVisibilities:
    """Visibilities from one fit of the observed G2 cells of a frame stream.

    ``joint_fit`` is that fit, of the acceptance-corrected pair counts.
    ``v1m`` is its one-photon fringe amplitude over its offset, |c1| / c0.
    ``v12`` is the accidental-corrected difference-amplitude estimate
    (c_S - c_D) / (c0 (1 - eps)); ``v12_ratio`` is the fit's scale-free
    ratio estimate, which needs no accidental model but carries roughly
    twice the statistical noise.  All three are the fit's values, unclamped.
    ``accidentals`` is eps, the estimated fraction of accepted pairs that
    photons from different down-conversion events contributed.
    """

    v1m: float
    v12: float
    v12_ratio: float
    accidentals: float
    joint_fit: JointFit


@lru_cache(maxsize=64)
def _fit_geometry(cam: CameraModel, period: float) -> ToeplitzNormal:
    """The acceptance-weighted normal equations of ``cam``'s pixel grid at
    ``period``: everything of the fit that no count enters, built on the
    first fit of each camera and period and shared, read-only, after."""
    return toeplitz_normal(cam.pixel_grid(), period, acceptance_profile(cam)[0])


def recover_visibilities(result: AnalysisResult, period: float) -> RecoveredVisibilities:
    """Fit the visibilities to the acceptance-corrected pair counts.

    The fit is ``fit_joint_visibility`` of the corrected counts weighted by
    the per-cell acceptance, the inverse variance of a corrected count up to
    the slowly varying G2 itself; its zeros, the near-diagonal band the
    pipeline cannot resolve, are never read.  It is computed as
    ``fit_joint_cells`` of the observed cells (``corrected_cells``) against
    normal equations cached per camera and period, so a fit costs time in
    proportion to the observed cells, not the camera's width squared.  The
    cached matrix holds the acceptance weights only: a fit under other
    weights, such as a reweighted pass, needs normal equations of its own.

    Accidental cross pairs add the product of the marginals to the counts;
    it carries no difference fringe, so the difference amplitude holds the
    pairs' V12 diluted by 1 - eps, with eps estimated from the empty-frame
    fraction and the quantum efficiency of the result's camera.  A stream
    with no accepted pair on an observed cell, or with no empty frame and
    so no estimate of eps, raises ``EmptyEstimateError``.
    """
    acc, cam = result.accumulator, result.camera
    if acc.pairs_accepted == 0:
        raise EmptyEstimateError("no accepted coincidence pairs to fit")
    rows, cols, counts = corrected_cells(acc, cam)
    if rows.size == 0:
        raise EmptyEstimateError("no accepted pair on a cell of positive acceptance")
    jfit = fit_joint_cells(_fit_geometry(cam, period), rows, cols, counts)
    qe = cam.quantum_efficiency
    eps = accidental_fraction(estimate_pair_rate(acc, qe), qe)
    v12 = float((jfit.amp_sum - jfit.amp_diff) / (jfit.offset * (1.0 - eps)))
    return RecoveredVisibilities(jfit.amp_single / jfit.offset, v12, jfit.v12, eps, jfit)


@dataclass(frozen=True)
class ClosureResult:
    """Side-by-side analytic and Monte-Carlo-recovered visibilities."""

    psi: float
    analytic: VisibilitySet
    recovered: RecoveredVisibilities
    analysis: AnalysisResult


def run_closure(config: ExperimentConfig, psi: float | None = None) -> ClosureResult:
    """Simulate a full run in memory, reduce it, and fit the visibilities."""
    if psi is None:
        psi = analytic_summary(config).psi
    sim = build_simulator(config, psi)
    analysis = analyze_source(sim, config.camera)
    recovered = recover_visibilities(analysis, config.fringe_period)
    return ClosureResult(psi, visibilities_from_psi(psi), recovered, analysis)


@dataclass(frozen=True)
class SweepPoint:
    distance: float
    psi: float
    v1: float
    v1m: float
    v12: float
    mc_v1m: float | None = None
    mc_v12: float | None = None


def sweep(
    config: ExperimentConfig,
    distances: list[float],
    monte_carlo: bool = False,
) -> list[SweepPoint]:
    """Analytic (and optionally Monte Carlo) visibilities versus distance.
    Point i is ``config`` at ``distances[i]`` and seed ``config.seed + i``."""
    points = []
    for i, d in enumerate(distances):
        point = replace(config, distance=d, seed=config.seed + i)
        summary = analytic_summary(point)
        v = summary.visibilities
        mc_v1m = mc_v12 = None
        if monte_carlo:
            closure = run_closure(point, psi=summary.psi)
            mc_v1m, mc_v12 = closure.recovered.v1m, closure.recovered.v12
        points.append(SweepPoint(d, summary.psi, v.v1, v.v1m, v.v12, mc_v1m, mc_v12))
    return points


def analytic_patterns(
    config: ExperimentConfig,
    grid: SpatialGrid | None = None,
    *,
    psi: float,
    g1: float,
) -> dict[str, object]:
    """Analytic I(x'), G2, marginal, and excess patterns on a grid.

    The grid defaults to the camera pixel grid, whose undersampling of the
    fringe is the camera's and raises no warning; a grid the caller passes
    warns when it undersamples.  Analytic work usually passes a finer grid.
    """
    period = config.fringe_period
    with warnings.catch_warnings():
        if grid is None:
            warnings.simplefilter("ignore", AliasingWarning)
            grid = config.camera.pixel_grid()
        intensity = single_photon_pattern(g1, period, grid)
        g2 = coincidence_pattern(psi, period, grid)
        marginal = marginal_pattern(g2)
        excess = excess_pattern(g2, marginal, period)
    return {
        "intensity": intensity,
        "coincidence": g2,
        "marginal": marginal,
        "excess": excess,
    }
