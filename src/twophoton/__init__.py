"""Simulation and analysis of one- and two-photon double-slit interference."""

__version__ = "0.1.0"

from .biphoton import (
    ApertureCorrelations,
    PumpProfile,
    effective_psi,
    psi_sinc_closed_form,
)
from .errors import (
    AliasingWarning,
    CompositionError,
    DegenerateSourceError,
    EmptyEstimateError,
    FrameFormatError,
    InvalidParameterError,
    NormalizationError,
    StreamMismatchError,
    TwoPhotonError,
    UnderDeterminedFitError,
)
from .experiment import (
    AnalyticSummary,
    ClosureResult,
    ExperimentConfig,
    analytic_patterns,
    analytic_summary,
    build_simulator,
    joint_pdf,
    recover_visibilities,
    run_closure,
    sweep,
)
from .frameio import FrameFileReader, write_frames
from .framepipe import (
    AnalysisResult,
    CoincidenceAccumulator,
    analyze_source,
    finalize,
    superpixel_bin,
)
from .optics import LinearKernel, SlitPair, SpatialGrid, fourier_2f_kernel, fresnel_kernel
from .patterns import (
    FringePattern1D,
    JointPattern2D,
    coincidence_pattern,
    excess_closed_form,
    excess_pattern,
    marginal_pattern,
    single_photon_pattern,
)
from .sensor import CameraModel, FrameSimulator
from .visibility import (
    VisibilitySet,
    fit_fringe_visibility,
    fit_joint_visibility,
    visibilities_from_psi,
)
