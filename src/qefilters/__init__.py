"""Learnable quantum-efficiency-style spectral filter banks.

A differentiable, physics-constrained multi-peak Gaussian filter layer for
hyperspectral dimensionality reduction, trained end to end with analytic
gradients, plus the classical sampling/normalization/projection baseline
pipeline and per-pixel segmentation metrics. The heads, loss terms,
optimizer and result types are imported from their modules. The
command-line interface is the ``qefilters.cli`` module, which this package
does not import.
"""

from .classical import fit_nmf, fit_pca, fit_reduction_pipeline, project
from .cubeio import CubeFormatError, LabelMap, read_cube, write_cube
from .errors import ConfigurationError, DataError, QEFiltersError, TrainingDivergedError
from .filterbank import (
    FilterBankParams,
    WavelengthRange,
    evaluate_filter_bank,
    init_filter_bank,
    normalize_wavelengths,
)
from .metrics import IGNORE_LABEL, ConfusionMatrix, compute_metrics
from .projection import Hypercube, apply_filter_bank, backward
from .regularization import RegConfig, bandwidth_loss, dominance_loss, separation_loss, total_reg
from .synthetic import SpectralBump, SynthSpec, gen_synthetic
from .training import TrainConfig, inverse_frequency_weights, predict, train

__version__ = "0.1.0"
