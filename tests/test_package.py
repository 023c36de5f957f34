"""The package's import surface: the names ``import qefilters`` exports, and what it loads."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import qefilters

PUBLIC_NAMES = {
    # classical
    "fit_nmf", "fit_pca", "fit_reduction_pipeline", "project",
    # cubeio
    "CubeFormatError", "LabelMap", "read_cube", "write_cube",
    # errors
    "ConfigurationError", "DataError", "QEFiltersError", "TrainingDivergedError",
    # filterbank
    "FilterBankParams", "WavelengthRange", "evaluate_filter_bank", "init_filter_bank", "normalize_wavelengths",
    # metrics
    "IGNORE_LABEL", "ConfusionMatrix", "compute_metrics",
    # projection
    "Hypercube", "apply_filter_bank", "backward",
    # regularization
    "RegConfig", "total_reg", "bandwidth_loss", "dominance_loss", "separation_loss",
    # synthetic
    "SpectralBump", "SynthSpec", "gen_synthetic",
    # training
    "TrainConfig", "inverse_frequency_weights", "predict", "train",
}


def test_package_exports_exactly_the_user_api():
    # The count CI's "Source size" step prints; submodules are attributes too, but no exports.
    exported = {n for n in dir(qefilters) if not n.startswith("_") and not inspect.ismodule(getattr(qefilters, n))}
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 35


def test_import_leaves_the_cli_unloaded():
    src_dir = Path(qefilters.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, qefilters; print(*sys.modules, sep='\\n')"],
        env=dict(os.environ, PYTHONPATH=str(src_dir)), capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = done.stdout.splitlines()
    assert "qefilters" in loaded
    assert "qefilters.cli" not in loaded
