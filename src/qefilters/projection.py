"""Spectral projection of hypercubes and its analytic backward pass.

The forward operation is a per-pixel dot product between each filter's
normalized response and the pixel spectrum. The backward pass composes
closed-form derivatives through the normalization (with a subgradient max
convention), the Gaussian envelope, the skew transform, and the raw-parameter
mappings, instead of relying on tape-based autodiff; a finite-difference
oracle in the test suite guards the derivation.

All arithmetic is 64-bit. Two kinds of contraction run on the training
path, and at the shapes tested below neither depends on the BLAS threads:

- a contraction over the channel (or feature) axis is one BLAS GEMM per image
  (:func:`_contract_channels`). BLAS splits the output pixels across threads,
  and each output is one whole dot product over channels computed by one
  thread, so the thread count does not change it;
- a weighted reduction over the pixel axis (the gradient of the bank, or of
  the linear head's folded matrix W·Q, and the MLP's weight gradients) is one
  BLAS GEMM per fixed block of ``_PIXEL_BLOCK`` pixels, image by image, with
  the blocks' products added in block order (:func:`_reduce_pixels`). The
  block size is fixed, so the summation order depends on the array shapes
  alone. One GEMM over a whole image's pixels, or over blocks four times
  longer, gave different bytes under one and two BLAS threads; this block
  size keeps them at the tested shapes only. Under OpenBLAS 0.3.31
  (SkylakeX), 100 x 100 pixel images reduced at 5 x 128, 8 x 128, 19 x 33 or
  24 x 25 differ, and ``train`` on a (4, 128, 100, 100) cube does too.

Per-image work runs on threads through :func:`_each_image_block`, and every
sum across images is taken on the calling thread in image order, so the
bytes do not depend on the number of CPUs either. Each caller states its
work, the values one image's pass reads and writes (:func:`_image_values`),
and a batch goes to the pool only when that work reaches ``_POOL_WORK``:
the kernels that read the cube at 64 x 64 pixels split, the MLP's layers
and the loss there run inline, and every kernel at 256 x 256 splits.

``tests/test_training.py::TestTrainLoop::test_report_independent_of_blas_threads``
trains under one and two BLAS threads and compares the reports byte for byte,
and ``tests/test_projection.py::TestReducePixels`` compares the bytes of
:func:`_reduce_pixels` under one and two threads at the shapes training uses.
``TestEachImageBlock`` there compares them under one, two and three workers.

A :class:`Hypercube` checks its data when it is built, and nothing here
checks it again. :func:`apply_filter_bank` and :func:`backward` read a
contiguous cube in place and return plain arrays: the (B, F, H, W) reduced
cube and the (F, P, 4) parameter gradient. The large arrays they allocate
are their results. ``train`` does not call them: its heads read each batch
in place through the two helpers' image index, and it chains their dL/dQ
with :func:`_chain`, the second half of :func:`backward`. The file reader,
which has checked the stored values, skips it through ``Hypercube._checked``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .filterbank import EPSILON, FilterResponseMatrix, _peak_geometry


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
            raise DataError(
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

    @classmethod
    def _checked(cls, data: np.ndarray, wavelengths_nm: np.ndarray) -> "Hypercube":
        """A cube over arrays that already pass every check of the constructor.

        For the file reader, which has checked the stored values: ``data`` is
        a finite float64 (B, C, H, W) array and ``wavelengths_nm`` a finite,
        strictly increasing float64 vector of length C. Nothing is checked
        again.
        """
        cube = cls.__new__(cls)
        cube.data, cube.wavelengths_nm = data, wavelengths_nm
        return cube


# Pixels per GEMM in _reduce_pixels. A constant, not an option: it fixes the
# summation order. Blocks four times longer gave different bytes under one and
# two BLAS threads; this size keeps them at the tested shapes only.
_PIXEL_BLOCK = 4096

# The work per image (see _image_values) below which a batch runs on the
# calling thread. A constant, not an option. Timed on 1 and 2 workers with
# 4 images and one BLAS thread, the head and loss kernels at 64 x 64 pixels
# (work 2**14 to 2**16) lost time on the pool and contractions near 2**17
# broke even; the cube contraction at 64 x 64 (2**19), the contractions at
# 2**18 and up and the loss at 256 x 256 (2**18.3) gained.
_POOL_WORK = 1 << 18


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The package's one thread pool, made on first use and again in a forked
# child, which has none of its threads. It may hold a thread per CPU of the
# machine and starts them as blocks need them. ``_local.inside`` is set while
# a thread runs a block, so a call from inside a block runs inline and never
# waits on the pool it is running in.
_pool: ThreadPoolExecutor | None = None
_pool_pid: int | None = None
_local = threading.local()


def _worker_pool() -> ThreadPoolExecutor:
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        _pool, _pool_pid = ThreadPoolExecutor(os.cpu_count() or 1, thread_name_prefix="qefilters"), os.getpid()
    return _pool


def _run_block(fn, lo: int, hi: int):
    _local.inside = True
    try:
        return fn(lo, hi)
    finally:
        _local.inside = False


def _image_values(*arrays: np.ndarray) -> int:
    """Values one image of each (B, ...) array holds, added: the work of a per-image pass over them."""
    return sum(math.prod(a.shape[1:]) for a in arrays)


def _each_image_block(fn, count: int, work: int) -> list:
    """``[fn(lo, hi) for each block]``, in block order, over contiguous blocks of ``count`` images.

    One block per usable CPU and at most one per image; the calling thread
    runs the first. ``work`` is what one image's pass reads and writes: its
    pixels times the (H, W) planes ``fn`` touches (:func:`_image_values`).
    Work below ``_POOL_WORK``, a single image, a single CPU and a call from
    inside a block run ``fn(0, count)`` on the calling thread. A failure is
    raised once every block has finished.

    ``fn`` writes its images' results in place and returns what must be added
    across images, for the caller to add in image order. It calls only
    private helpers and numpy: a profiler that wraps the public functions
    (``bench/spans.py``) keeps one span stack per process, so a public
    function called from a worker would nest its span under whatever the
    calling thread has open.
    """
    inline = work < _POOL_WORK or getattr(_local, "inside", False)
    workers = 1 if inline else min(count, _usable_cpus())
    if workers < 2:
        return [fn(0, count)]
    bounds = [count * w // workers for w in range(workers + 1)]
    pool = _worker_pool()
    jobs = [pool.submit(_run_block, fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = _run_block(fn, bounds[0], bounds[1])
    finally:
        wait(jobs)
    return [first] + [job.result() for job in jobs]


def _contract_channels(matrix: np.ndarray, x: np.ndarray, images=None) -> np.ndarray:
    """out[i,f,h,w] = sum_c matrix[f,c] * x[images[i],c,h,w], as one GEMM per image.

    ``matrix`` is (F, C) and may be a transposed view; ``x`` is (B, C, H, W)
    and may be any view (a non-contiguous image is copied by the reshape).
    ``images`` indexes ``x``'s images, each read in place; by default every
    image, in order.
    """
    images = range(len(x)) if images is None else images
    c, h, w = x.shape[1:]
    out = np.empty((len(images), matrix.shape[0], h * w))

    def contract(lo, hi):
        for i in range(lo, hi):
            np.matmul(matrix, x[images[i]].reshape(c, h * w), out=out[i])

    _each_image_block(contract, len(images), _image_values(x, out))
    return out.reshape(len(images), matrix.shape[0], h, w)


def _reduce_pixels(a: np.ndarray, x: np.ndarray, images=None) -> np.ndarray:
    """out[f,c] = sum_{i,h,w} a[i,f,h,w] * x[images[i],c,h,w], in fixed pixel blocks.

    ``a`` is (N, F, H, W) and ``x`` is (B, C, H, W); either may be any view
    (a non-contiguous image is copied by the reshape). ``images`` indexes
    ``x``'s images, each read in place; by default every image, in order.
    Adds ``a_blk @ x_blk.T`` over blocks of ``_PIXEL_BLOCK`` pixels, image by
    image and block by block in order, starting from zeros; the products are
    computed image by image on the workers and added on the calling thread.
    """
    images = range(len(x)) if images is None else images
    pixels = a.shape[2] * a.shape[3]

    def products(lo, hi):
        out = []
        for i in range(lo, hi):
            a_img = a[i].reshape(-1, pixels)
            x_img = x[images[i]].reshape(-1, pixels)
            for start in range(0, pixels, _PIXEL_BLOCK):
                stop = start + _PIXEL_BLOCK
                out.append(a_img[:, start:stop] @ x_img[:, start:stop].T)
        return out

    out = np.zeros((a.shape[1], x.shape[1]))
    for block in _each_image_block(products, len(a), _image_values(a, x)):
        for product in block:
            out += product
    return out


def _check_response(response: FilterResponseMatrix, cube: Hypercube) -> None:
    """Raise unless ``response`` can reduce ``cube``: the same channels, and fewer filters than channels."""
    num_filters, num_channels = response.weights.shape
    if num_channels != cube.dims[1]:
        raise DataError(
            f"response has {num_channels} channels but cube has {cube.dims[1]}"
        )
    if num_filters >= num_channels:
        raise ConfigurationError(
            f"reduction requires fewer filters than channels (F={num_filters}, C={num_channels})"
        )


def apply_filter_bank(cube: Hypercube, response: FilterResponseMatrix) -> np.ndarray:
    """Contract the spectral axis: Y[b,f,h,w] = sum_c weights[f,c] * X[b,c,h,w]."""
    _check_response(response, cube)
    return _contract_channels(response.weights, cube.data)


def backward(
    cube: Hypercube,
    cached: FilterResponseMatrix,
    upstream_grad: np.ndarray,
) -> np.ndarray:
    """Backpropagate a loss gradient on the reduced cube to the bank parameters.

    ``cached`` must come from :func:`evaluate_filter_bank` on the same
    wavelength grid the cube was projected with, and pass the checks of
    :func:`apply_filter_bank`. The chain runs::

        dL/dQ[f,c]   = sum_{b,h,w} upstream[b,f,h,w] * X[b,c,h,w], one GEMM
                      per fixed block of pixels, added in block order
                      (:func:`_reduce_pixels`)
        Q -> raw sum  quotient rule; the max flows through the first channel
                      attaining it (subgradient convention, ties measure zero)
        raw -> peak   sum over peaks
        peak -> (amplitude, x_skew) -> (x, skew) -> (centroid, bandwidth)
        then amplitude -> logit via sigmoid', bandwidth -> log via exp,
        skew -> raw via 0.5 * tanh'.

    Returns the parameter gradients as an (F, P, 4) array in the slot order
    of ``FilterBankParams.table``.
    """
    _check_response(cached, cube)
    upstream = np.asarray(upstream_grad, dtype=float)
    expected = (cube.dims[0], cached.weights.shape[0], cube.dims[2], cube.dims[3])
    if upstream.shape != expected:
        raise DataError(
            f"upstream gradient shape {upstream.shape} does not match expected {expected}"
        )

    return _chain(cached, _reduce_pixels(upstream, cube.data))


def _chain(cached: FilterResponseMatrix, grad_q: np.ndarray) -> np.ndarray:
    """``backward`` after dL/dQ: the chain from ``grad_q`` (F, C) to the (F, P, 4) parameters."""
    params = cached.params

    # Quotient rule through Q = raw / (row_max + eps) with the subgradient max.
    denom = cached.row_max + EPSILON
    raw = cached.per_peak_responses.sum(axis=1)  # (F, C)
    d_raw = grad_q / denom[:, None]
    through_max = np.sum(grad_q * raw, axis=1) / np.square(denom)
    d_raw[np.arange(len(d_raw)), cached.argmax_channel] -= through_max

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

    return np.stack([d_centroid, d_log_bandwidth, d_amplitude_logit, d_skewness_raw], axis=2)
