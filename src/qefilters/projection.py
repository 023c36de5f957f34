"""Spectral projection of hypercubes and its analytic backward pass.

The forward operation is a per-pixel dot product between each filter's
normalized response and the pixel spectrum. The backward pass composes
closed-form derivatives through the normalization (with a subgradient max
convention), the Gaussian envelope, the skew transform, and the raw-parameter
mappings, instead of relying on tape-based autodiff; a finite-difference
oracle in the test suite guards the derivation.

All arithmetic is 64-bit. Two kinds of contraction run on the training
path, and each keeps results independent of the BLAS thread count:

- a contraction over the channel (or feature) axis is one BLAS GEMM per image
  (:func:`_contract_channels`). BLAS splits the output pixels across threads,
  and each output is one whole dot product over channels computed by one
  thread, so the thread count does not change it;
- a reduction over the pixel axis is a plain ``np.einsum`` (no ``optimize=``)
  or ``np.sum`` call, with no BLAS routine, whose summation order is fixed by
  the array shapes. A GEMM here would split the pixel sum across threads and
  change its bytes with the thread count.

``tests/test_training.py::TestTrainLoop::test_report_independent_of_blas_threads``
trains under one and two BLAS threads and compares the reports byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DimensionMismatchError
from .filterbank import (
    AMPLITUDE_LOGIT,
    CENTROID,
    EPSILON,
    LOG_BANDWIDTH,
    SKEWNESS_RAW,
    FilterBankParams,
    FilterResponseMatrix,
    _peak_geometry,
)


@dataclass
class Hypercube:
    """A batch of hyperspectral images: reflectance of shape (B, C, H, W).

    ``wavelengths_nm`` gives the center wavelength of each of the C channels
    and must be strictly increasing. Data is held in float64; files store
    float32 (see :mod:`qefilters.cubeio`).
    """

    data: np.ndarray
    wavelengths_nm: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.wavelengths_nm = np.asarray(self.wavelengths_nm, dtype=float)
        if self.data.ndim != 4:
            raise DataError(f"hypercube data must be 4-D (B, C, H, W), got shape {self.data.shape}")
        if self.wavelengths_nm.ndim != 1 or self.wavelengths_nm.size != self.data.shape[1]:
            raise DimensionMismatchError(
                f"wavelength vector length {self.wavelengths_nm.size} does not match "
                f"channel count {self.data.shape[1]}"
            )
        if not np.all(np.isfinite(self.wavelengths_nm)):
            raise DataError("wavelengths contain non-finite values")
        if not np.all(np.diff(self.wavelengths_nm) > 0):
            raise DataError("wavelengths must be strictly increasing")
        if not np.all(np.isfinite(self.data)):
            raise DataError("hypercube data contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape


@dataclass
class ReducedCube:
    """Output of a spectral reduction: shape (B, F, H, W)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 4:
            raise DataError(f"reduced cube must be 4-D (B, F, H, W), got shape {self.data.shape}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape


@dataclass
class ParamGradients:
    """Partial derivatives of a scalar loss, same (F, P, 4) layout as the bank."""

    table: np.ndarray

    @property
    def centroid(self) -> np.ndarray:
        return self.table[:, :, CENTROID]

    @property
    def log_bandwidth(self) -> np.ndarray:
        return self.table[:, :, LOG_BANDWIDTH]

    @property
    def amplitude_logit(self) -> np.ndarray:
        return self.table[:, :, AMPLITUDE_LOGIT]

    @property
    def skewness_raw(self) -> np.ndarray:
        return self.table[:, :, SKEWNESS_RAW]

    def __add__(self, other: "ParamGradients") -> "ParamGradients":
        return ParamGradients(self.table + other.table)


def _contract_channels(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[b,f,h,w] = sum_c matrix[f,c] * x[b,c,h,w], as one GEMM per image.

    ``matrix`` is (F, C) and may be a transposed view; ``x`` is (B, C, H, W)
    and may be any view (a non-contiguous one is copied by the reshape).
    """
    b, c, h, w = x.shape
    out = matrix @ x.reshape(b, c, h * w)
    return out.reshape(b, matrix.shape[0], h, w)


def apply_filter_bank(cube: Hypercube, response: FilterResponseMatrix) -> ReducedCube:
    """Contract the spectral axis: Y[b,f,h,w] = sum_c weights[f,c] * X[b,c,h,w]."""
    num_filters, num_channels = response.weights.shape
    if num_channels != cube.dims[1]:
        raise DimensionMismatchError(
            f"response has {num_channels} channels but cube has {cube.dims[1]}"
        )
    if num_filters >= num_channels:
        raise ConfigurationError(
            f"reduction requires fewer filters than channels (F={num_filters}, C={num_channels})"
        )
    return ReducedCube(_contract_channels(response.weights, cube.data))


def backward(
    cube: Hypercube,
    cached: FilterResponseMatrix,
    upstream_grad: np.ndarray,
    compute_input_grad: bool = False,
) -> tuple[ParamGradients, np.ndarray | None]:
    """Backpropagate a loss gradient on the reduced cube to the bank parameters.

    ``cached`` must come from :func:`evaluate_filter_bank` on the same
    wavelength grid the cube was projected with. The chain runs::

        dL/dQ[f,c]   = sum_{b,h,w} upstream[b,f,h,w] * X[b,c,h,w]
        Q -> raw sum  quotient rule; the max flows through the first channel
                      attaining it (subgradient convention, ties measure zero)
        raw -> peak   sum over peaks
        peak -> (amplitude, x_skew) -> (x, skew) -> (centroid, bandwidth)
        then amplitude -> logit via sigmoid', bandwidth -> log via exp,
        skew -> raw via 0.5 * tanh'.

    Returns the parameter gradients and, when requested, dL/dX of the cube's
    shape.
    """
    upstream = np.asarray(upstream_grad, dtype=float)
    params = cached.params
    num_filters, num_channels = cached.weights.shape
    expected = (cube.dims[0], num_filters, cube.dims[2], cube.dims[3])
    if upstream.shape != expected:
        raise DimensionMismatchError(
            f"upstream gradient shape {upstream.shape} does not match expected {expected}"
        )
    if num_channels != cube.dims[1]:
        raise DimensionMismatchError(
            f"cached response has {num_channels} channels but cube has {cube.dims[1]}"
        )

    grad_q = np.einsum("bfhw,bchw->fc", upstream, cube.data)

    # Quotient rule through Q = raw / (row_max + eps) with the subgradient max.
    denom = cached.row_max + EPSILON
    raw = cached.per_peak_responses.sum(axis=1)  # (F, C)
    d_raw = grad_q / denom[:, None]
    through_max = np.sum(grad_q * raw, axis=1) / np.square(denom)
    d_raw[np.arange(num_filters), cached.argmax_channel] -= through_max

    x, t, x_skew, envelope = _peak_geometry(params, cached.normalized_wavelengths)
    amplitude = params.amplitudes[:, :, None]
    skew = params.skews[:, :, None]
    beta = params.bandwidths

    # w = x_skew * envelope underflows to an exact zero wherever the envelope
    # does, so the masked product never turns inf * 0 into NaN. The errstate
    # also covers already-diverged (huge but finite) parameters, whose NaNs
    # the training loop classifies as divergence.
    with np.errstate(invalid="ignore", over="ignore"):
        w = np.where(envelope > 0.0, x_skew * envelope, 0.0)

        d_g = d_raw[:, None, :]  # dL/dg for every peak, (F, P, C)
        u = d_g * (-amplitude * w)  # dL/d(x_skew)
        chain_x = (1.0 + skew * t) + x * skew * (1.0 - np.square(t))
        v = u * chain_x  # dL/dx

        d_centroid = -np.sum(v, axis=2) / beta
        d_log_bandwidth = -np.sum(v * x, axis=2)
        d_amplitude_logit = np.sum(d_g * cached.per_peak_responses, axis=2) * (1.0 - params.amplitudes)
        d_skew = np.sum(u * x * t, axis=2)
        d_skewness_raw = d_skew * 0.5 * (1.0 - np.square(np.tanh(params.skewness_raw)))

    table = np.stack([d_centroid, d_log_bandwidth, d_amplitude_logit, d_skewness_raw], axis=2)
    grads = ParamGradients(table)

    input_grad = None
    if compute_input_grad:
        input_grad = _contract_channels(cached.weights.T, upstream)
    return grads, input_grad
