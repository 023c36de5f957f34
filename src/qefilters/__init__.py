"""Learnable quantum-efficiency-style spectral filter banks.

A differentiable, physics-constrained multi-peak Gaussian filter layer for
hyperspectral dimensionality reduction, trained end to end with analytic
gradients, plus the classical sampling/normalization/projection baseline
pipeline and per-pixel segmentation metrics. The command-line interface is
the ``qefilters.cli`` module, which this package does not import.
"""

from .classical import (
    BandStats,
    LinearProjection,
    PixelSample,
    ReductionPipeline,
    fit_band_stats,
    fit_nmf,
    fit_pca,
    fit_reduction_pipeline,
    project,
    stratified_sample,
)
from .cubeio import CubeFormatError, LabelMap, parse_cube, read_cube, serialize_cube, write_cube
from .errors import ConfigurationError, DataError, QEFiltersError, TrainingDivergedError
from .filterbank import (
    EPSILON,
    FilterBankParams,
    FilterResponseMatrix,
    WavelengthRange,
    evaluate_filter_bank,
    init_filter_bank,
    normalize_wavelengths,
)
from .metrics import IGNORE_LABEL, ConfusionMatrix, MetricsReport, compute_metrics
from .projection import Hypercube, apply_filter_bank, backward
from .regularization import (
    RegConfig,
    RegLosses,
    bandwidth_loss,
    dominance_loss,
    separation_loss,
    total_reg,
)
from .synthetic import (
    SpectralBump,
    SynthSpec,
    gen_synthetic,
    mixture_spectrum,
)
from .training import (
    AdamW,
    LinearHead,
    MlpHead,
    TrainConfig,
    TrainReport,
    inverse_frequency_weights,
    make_head,
    predict,
    seg_loss,
    soft_dice,
    train,
    weighted_cross_entropy,
)

__version__ = "0.1.0"
