"""Experiment-level orchestration: geometry to patterns, frames, and fits.

Ties the source/slit geometry to the slit-plane correlations, the analytic
detector-plane patterns, the Monte Carlo frame simulator, and the recovery
of visibilities from a reduced frame stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

from .biphoton import ApertureCorrelations, PumpProfile, real_psi
from .errors import AliasingWarning, EmptyEstimateError, InvalidParameterError, TwoPhotonError
from .framepipe import (
    AnalysisResult,
    accidental_fraction,
    analyze_source,
    corrected_counts,
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
from .sensor import CameraModel, FrameSimulator
from .visibility import (
    JointFit,
    VisibilitySet,
    fit_joint_visibility,
    visibilities_from_psi,
)

MODES = ("fresnel", "fourier-2f")


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

    def illumination_kernel(self, grid: SpatialGrid, d: float | None = None) -> LinearKernel:
        """Sampled source-to-slit kernel from the pump grid onto ``grid``.

        The grid route that ``correlations`` replaces with closed-form slit
        rows; kept as the oracle those rows are tested against.
        """
        d = self._distance(d)
        pump_grid = self.pump().grid
        if self.mode == "fourier-2f":
            return fourier_2f_kernel(pump_grid, grid, self.wavelength, self.focal_length)
        return fresnel_kernel(pump_grid, grid, self.wavelength, d)

    def correlations(self, d: float | None = None) -> ApertureCorrelations:
        """Slit-plane correlations, from the closed-form slit-averaged rows."""
        d = self._distance(d)
        pump, slits = self.pump(), self.slits()
        if self.mode == "fourier-2f":
            rows = slit_averaged_rows(
                pump.grid, slits, self.wavelength, focal_length=self.focal_length
            )
        else:
            rows = slit_averaged_rows(pump.grid, slits, self.wavelength, distance=d)
        return ApertureCorrelations.from_pump(pump, *rows)

    def _distance(self, d: float | None) -> float:
        d = self.distance if d is None else d
        if d <= 0:
            raise InvalidParameterError("source-slit distance must be positive")
        return d

    def analysis_config(self) -> CameraModel:
        """The camera; kept only for the benchmark harness until its trace hooks go."""
        return self.camera


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
    twice the statistical noise.  ``accidentals`` is eps, the estimated
    fraction of accepted pairs that photons from different down-conversion
    events contributed.
    """

    v1m: float
    v12: float
    v12_ratio: float
    accidentals: float
    joint_fit: JointFit


def recover_visibilities(result: AnalysisResult, period: float) -> RecoveredVisibilities:
    """Fit the visibilities to the acceptance-corrected pair counts.

    The fit is weighted by the per-cell acceptance of ``corrected_counts``,
    the inverse variance of a corrected count up to the slowly varying G2
    itself; its zeros, the near-diagonal band the pipeline cannot resolve,
    are never read.  Accidental cross pairs add the product of the
    marginals to the counts; it carries no difference fringe, so the
    difference amplitude holds the pairs' V12 diluted by 1 - eps, with eps
    estimated from the empty-frame fraction and the quantum efficiency of
    the result's camera.
    """
    acc, cam = result.accumulator, result.camera
    if acc.pairs_accepted == 0:
        raise EmptyEstimateError("no accepted coincidence pairs to fit")
    counts, acceptance = corrected_counts(acc, cam)
    pattern = JointPattern2D(cam.pixel_grid(), counts, "coincidence")
    jfit = fit_joint_visibility(pattern, period, acceptance)
    qe = cam.quantum_efficiency
    try:
        eps = accidental_fraction(estimate_pair_rate(acc, qe), qe)
    except TwoPhotonError:
        eps = 0.0
    v12 = (jfit.amp_sum - jfit.amp_diff) / (jfit.offset * (1.0 - eps))
    v12 = float(min(max(v12, 0.0), 1.0))
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
            closure = run_closure(run_cfg, psi=summary.psi)
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

    Defaults to the camera pixel grid, whose undersampling of the fringe is
    the camera's and raises no warning; a grid the caller passes warns when
    it undersamples.  Analytic work usually passes a finer grid.
    """
    summary = None
    if psi is None or g1 is None:
        summary = analytic_summary(config)
    psi = summary.psi if psi is None else psi
    g1 = summary.g1 if g1 is None else g1
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
