"""Experiment-level orchestration: geometry to patterns, frames, and fits.

Ties the source/slit geometry to the slit-plane correlations, the analytic
detector-plane patterns, the Monte Carlo frame simulator, and the recovery
of visibilities from a reduced frame stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .biphoton import ApertureCorrelations, PumpProfile, real_psi
from .errors import AliasingWarning, InvalidParameterError, TwoPhotonError
from .framepipe import (
    AnalysisConfig,
    AnalysisResult,
    accidental_fraction,
    analyze_source,
    estimate_pair_rate,
    vertical_acceptance,
)
from .optics import LinearKernel, SlitPair, SpatialGrid, fourier_2f_kernel, fresnel_kernel
from .patterns import (
    FringePattern1D,
    JointPattern2D,
    coincidence_pattern,
    excess_pattern,
    marginal_pattern,
    single_photon_pattern,
)
from .sensor import CameraModel, FrameSimulator
from .visibility import (
    FringeFit,
    JointFit,
    VisibilitySet,
    fit_fringe_visibility,
    fit_joint_visibility,
    visibilities_from_psi,
)

MODES = ("fresnel", "fourier-2f")


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, slit, detection, and run parameters.

    Defaults reproduce the reference double-slit geometry: 0.70 mm slit
    separation, 0.35 mm slit width, 50 mm detection focal length, 812 nm,
    a 2 mm uniform source, and a 240,000-frame run.
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
    slit_grid_n: int = 1025
    camera: CameraModel = field(default_factory=CameraModel)
    n_frames: int = 240_000
    mean_pairs: float = 0.5
    seed: int = 20260823

    def __post_init__(self):
        for name in ("pump_width", "distance", "slit_separation", "wavelength", "focal_length"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive")
        if self.slit_width < 0:
            raise InvalidParameterError("slit_width must be non-negative")
        if self.mode not in MODES:
            raise InvalidParameterError(f"mode must be one of {MODES}")
        if self.n_frames < 0 or self.mean_pairs < 0:
            raise InvalidParameterError("n_frames and mean_pairs must be >= 0")

    @property
    def fringe_period(self) -> float:
        """Two-beam fringe period lambda f / a at the detection plane."""
        return self.wavelength * self.focal_length / self.slit_separation

    def pump(self) -> PumpProfile:
        if self.pump_shape == "uniform":
            return PumpProfile.uniform(self.pump_width, self.pump_grid_n)
        if self.pump_shape == "gaussian":
            return PumpProfile.gaussian(self.pump_width, self.pump_grid_n)
        raise InvalidParameterError(f"unknown pump shape {self.pump_shape!r}")

    def slits(self) -> SlitPair:
        return SlitPair(self.slit_separation, self.slit_width)

    def slit_grid(self) -> SpatialGrid:
        """Slit-plane grid covering both slits with a margin.

        The spacing is chosen so the slit centers +-a/2 fall exactly on grid
        nodes (the zero-width slit case samples the kernel at the nearest
        node, so off-node centers would shift the effective separation).
        """
        n = self.slit_grid_n | 1  # symmetric grid needs a center node
        pad = max(self.slit_width, self.slit_separation / 8)
        half_target = self.slit_separation / 2 + pad
        k = max(1, round((n - 1) / 2 * (self.slit_separation / 2) / half_target))
        spacing = (self.slit_separation / 2) / k
        half = spacing * (n - 1) / 2
        return SpatialGrid(-half, half, n)

    def illumination_kernel(self, d: float | None = None) -> LinearKernel:
        """Source-to-slit propagation kernel for the configured mode."""
        d = self.distance if d is None else d
        if d <= 0:
            raise InvalidParameterError("source-slit distance must be positive")
        pump_grid = self.pump().grid
        if self.mode == "fourier-2f":
            return fourier_2f_kernel(pump_grid, self.slit_grid(), self.wavelength, self.focal_length)
        return fresnel_kernel(pump_grid, self.slit_grid(), self.wavelength, d)

    def correlations(self, d: float | None = None) -> ApertureCorrelations:
        return ApertureCorrelations.from_pump(
            self.pump(), self.illumination_kernel(d), self.slits()
        )

    def detector_grid(self) -> SpatialGrid:
        return self.camera.pixel_grid()

    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig.from_camera(self.camera)


@dataclass(frozen=True)
class AnalyticSummary:
    """Normalized slit-plane values and the visibilities they imply."""

    psi: float
    g1: float
    visibilities: VisibilitySet


def analytic_summary(config: ExperimentConfig, d: float | None = None) -> AnalyticSummary:
    corr = config.correlations(d)
    psi = corr.psi_effective
    return AnalyticSummary(psi, real_psi(corr.g1), visibilities_from_psi(psi))


def joint_pdf(config: ExperimentConfig, psi: float | None = None) -> JointPattern2D:
    """Coincidence probability density sampled at camera pixel centers.

    The camera pitch undersamples the fringe for display purposes, but the
    Monte Carlo only needs point values at pixel centers, so the sampling
    warning is suppressed here.
    """
    if psi is None:
        psi = analytic_summary(config).psi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        return coincidence_pattern(psi, config.fringe_period, config.detector_grid())


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
    """Visibilities fitted to a reduced frame stream.

    ``v12`` is the accidental-corrected difference-amplitude estimate
    V = (B - C) / (1 - eps); ``v12_ratio`` is the scale-free ratio estimate
    (B + C) / (B - C), which needs no accidental model but carries roughly
    twice the statistical noise.  ``accidentals`` is the estimated fraction
    of accepted pairs that photons from different down-conversion events
    contributed.
    """

    v1m: float
    v12: float
    v12_ratio: float
    accidentals: float
    marginal_fit: FringeFit
    joint_fit: JointFit
    excess: JointPattern2D


def recover_visibilities(
    result: AnalysisResult,
    period: float,
    quantum_efficiency: float = 0.5,
) -> RecoveredVisibilities:
    """Fit the marginal and excess fringes of a finalized G2 estimate.

    The near-diagonal band the pipeline cannot resolve is excluded from the
    joint fit, and cells are weighted by the vertical-filter acceptance (the
    acceptance correction amplifies noise where the filter passed little).
    Accidental cross pairs dilute the excess fringe amplitudes by a factor
    estimated from the empty-frame fraction; the primary V12 divides that
    dilution out of the fitted difference amplitude, whose unit is fixed by
    the known normalization of the estimate.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        mfit = fit_fringe_visibility(result.marginal, period)
        excess = excess_pattern(result.estimate, result.marginal, period)
        cfg = result.config
        w = result.accumulator.width
        idx = np.arange(w)
        acc = vertical_acceptance(idx, cfg.strip_height, cfg.ratio)
        weights = acc[np.abs(idx[:, None] - idx[None, :])]
        jfit = fit_joint_visibility(excess, period, mask=~result.missing, weights=weights)
    try:
        rate = estimate_pair_rate(result.accumulator, quantum_efficiency)
        eps = accidental_fraction(rate, quantum_efficiency)
    except TwoPhotonError:
        eps = 0.0
    # amplitudes were fitted on the unit-sum density; rescale to the
    # unit-mean normalization the closed forms use
    grid = excess.grid
    unit = (grid.n * grid.spacing) ** 2
    v12 = (jfit.amp_sum - jfit.amp_diff) * unit / (1.0 - eps)
    v12 = float(min(max(v12, 0.0), 1.0))
    return RecoveredVisibilities(
        mfit.visibility, v12, jfit.v12, eps, mfit, jfit, excess
    )


@dataclass(frozen=True)
class ClosureResult:
    """Side-by-side analytic and Monte-Carlo-recovered visibilities."""

    psi: float
    analytic: VisibilitySet
    recovered: RecoveredVisibilities
    analysis: AnalysisResult


def run_closure(
    config: ExperimentConfig, psi: float | None = None, workers: int = 1
) -> ClosureResult:
    """Simulate a full run in memory, reduce it, and fit the visibilities."""
    if psi is None:
        psi = analytic_summary(config).psi
    sim = build_simulator(config, psi)
    analysis = analyze_source(sim, config.analysis_config(), workers=workers)
    recovered = recover_visibilities(
        analysis, config.fringe_period, config.camera.quantum_efficiency
    )
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
    workers: int = 1,
) -> list[SweepPoint]:
    """Analytic (and optionally Monte Carlo) visibilities versus distance."""
    points = []
    for i, d in enumerate(distances):
        if d <= 0:
            raise InvalidParameterError("distances must be positive")
        summary = analytic_summary(config, d)
        v = summary.visibilities
        mc_v1m = mc_v12 = None
        if monte_carlo:
            run_cfg = replace(config, distance=d, seed=config.seed + i)
            closure = run_closure(run_cfg, psi=summary.psi, workers=workers)
            mc_v1m, mc_v12 = closure.recovered.v1m, closure.recovered.v12
        points.append(SweepPoint(d, summary.psi, v.v1, v.v1m, v.v12, mc_v1m, mc_v12))
    return points


def analytic_patterns(
    config: ExperimentConfig,
    grid: SpatialGrid | None = None,
    psi: float | None = None,
    g1: float | None = None,
) -> dict[str, object]:
    """Analytic I(x'), G2, marginal, and excess patterns on a grid.

    Defaults to the camera pixel grid; analytic work usually passes a finer
    grid to avoid undersampling the fringe.
    """
    summary = None
    if psi is None or g1 is None:
        summary = analytic_summary(config)
    psi = summary.psi if psi is None else psi
    g1 = summary.g1 if g1 is None else g1
    grid = grid if grid is not None else config.detector_grid()
    period = config.fringe_period
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
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
