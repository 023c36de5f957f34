"""Classical dimensionality-reduction baseline pipeline.

Three phases: class-balanced pixel sampling, per-band normalization
statistics saved for consistent reuse, and a linear projection (PCA or NMF)
fitted on the normalized sample and applied to whole cubes. PCA uses a full
symmetric eigendecomposition of the band covariance, which is the simplest
correct route at desk-scale channel counts; NMF uses multiplicative updates
on the Frobenius residual. NMF needs nonnegative input, so a per-band
min-shift recorded in the projection is applied after standardization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .metrics import _check_labels
from .projection import Hypercube, _each_image_block, _image_values
from .rng import make_generator

_STD_FLOOR = 1e-8  # constant bands standardize to zero instead of blowing up


@dataclass
class PixelSample:
    matrix: np.ndarray  # (N, C) pixel spectra
    labels: np.ndarray  # (N,)


@dataclass
class BandStats:
    mean: np.ndarray  # (C,)
    std: np.ndarray  # (C,), floored at 1e-8


@dataclass
class LinearProjection:
    """A fitted linear spectral transform.

    ``components`` is (F, C). PCA rows are orthonormal eigenvectors sorted by
    descending explained variance with the largest-magnitude entry positive.
    NMF rows are the nonnegative factor H; ``shift`` is the per-band offset
    that made the standardized training sample nonnegative.
    """

    kind: str  # "pca" | "nmf"
    components: np.ndarray
    explained_variance: np.ndarray | None = None
    residual_history: list[float] | None = None  # NMF: the initial residual, then one per update taken
    shift: np.ndarray | None = None

    @property
    def iterations_run(self) -> int | None:
        return None if self.residual_history is None else len(self.residual_history) - 1

    @property
    def final_residual(self) -> float | None:
        return None if self.residual_history is None else self.residual_history[-1]


def _largest_remainder(quota: int, weights: np.ndarray) -> np.ndarray:
    """Integer allocation of ``quota`` proportional to ``weights`` (exact sum)."""
    total = weights.sum()
    if total <= 0 or quota <= 0:
        return np.zeros_like(weights, dtype=np.int64)
    exact = quota * weights / total
    base = np.floor(exact).astype(np.int64)
    remainder = exact - base
    missing = quota - int(base.sum())
    if missing > 0:
        # Stable tie-break: biggest remainders first, lowest index on ties.
        order = np.lexsort((np.arange(weights.size), -remainder))
        base[order[:missing]] += 1
    return np.minimum(base, weights.astype(np.int64))


def stratified_sample(
    cubes: Sequence[tuple[Hypercube, np.ndarray]],
    target_total: int,
    seed: int,
) -> PixelSample:
    """Collect a class-balanced pixel sample across a labeled cube set.

    K is one more than the largest label other than ``IGNORE_LABEL``, and
    the per-class target is floor(target_total / K). Rare classes contribute
    every pixel they have; common classes are randomly subsampled, with each
    image's draw proportional to its share of that class. Deterministic under
    the seed: classes and images are visited in ascending order against a
    single Philox stream. Every cube must have cube 0's ``wavelengths_nm``.
    """
    if not cubes:
        raise DataError("no cubes to sample from")
    labeled = []
    for i, (cube, labels) in enumerate(cubes):
        if not np.array_equal(cube.wavelengths_nm, cubes[0][0].wavelengths_nm):
            raise DataError(f"cube {i}'s wavelengths_nm differ from cube 0's; the cubes must share one channel grid")
        target, mask = _check_labels(labels, None, (cube.dims[0],) + cube.dims[2:])
        labeled.append(target[mask])
    if not any(lab.size for lab in labeled):
        raise DataError("no labeled pixels in any cube")
    num_classes = int(max(lab.max() for lab in labeled if lab.size)) + 1
    if target_total < num_classes:
        raise ConfigurationError(
            f"target_total={target_total} is below the class count {num_classes}"
        )
    quota = target_total // num_classes
    gen = make_generator(seed)

    rows, row_labels = [], []
    counts = np.array([np.bincount(lab, minlength=num_classes) for lab in labeled])

    for k in range(num_classes):
        available = counts[:, k]
        total_k = int(available.sum())
        if total_k == 0:
            continue
        if total_k <= quota:
            draws = available.copy()
        else:
            draws = _largest_remainder(quota, available)
        for i, (cube, labels) in enumerate(cubes):
            take = int(draws[i])
            if take == 0:
                continue
            b, h, w = np.nonzero(np.asarray(labels) == k)
            if take < b.size:
                pick = gen.choice(b.size, size=take, replace=False)
                pick.sort()
                b, h, w = b[pick], h[pick], w[pick]
            rows.append(cube.data[b, :, h, w])
            row_labels.append(np.full(b.size, k, dtype=np.int64))

    return PixelSample(matrix=np.concatenate(rows, axis=0), labels=np.concatenate(row_labels))


def fit_band_stats(sample: PixelSample) -> BandStats:
    """Per-band mean and (floored) population std over the sample."""
    if sample.matrix.shape[0] < 2:
        raise DataError("need at least two sampled pixels to fit band statistics")
    mean = sample.matrix.mean(axis=0)
    std = np.maximum(sample.matrix.std(axis=0), _STD_FLOOR)
    return BandStats(mean=mean, std=std)


def _standardize(x: np.ndarray, stats: BandStats) -> np.ndarray:
    """``(x - mean) / std`` band by band, in one new array, for an ``x`` with its bands on axis 1."""
    per_band = (-1,) + (1,) * (x.ndim - 2)
    out = x - stats.mean.reshape(per_band)
    out /= stats.std.reshape(per_band)
    return out


def fit_pca(matrix: np.ndarray, num_components: int) -> LinearProjection:
    """Top components of the sample covariance via symmetric eigendecomposition.

    Components are sorted by descending eigenvalue; each row's
    largest-magnitude entry is made positive so results are reproducible up
    to nothing.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, c = matrix.shape
    if num_components < 1:
        raise ConfigurationError(f"num_components must be >= 1, got {num_components}")
    if num_components > min(n - 1, c):
        raise ConfigurationError(
            f"num_components={num_components} exceeds min(N-1, C)={min(n - 1, c)}"
        )
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / n
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:num_components]
    components = eigenvectors[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return LinearProjection(
        kind="pca",
        components=components,
        explained_variance=eigenvalues[order].copy(),
    )


def fit_nmf(
    matrix: np.ndarray,
    num_components: int,
    max_iter: int = 500,
    tol: float = 1e-8,
    seed: int = 0,
) -> tuple[LinearProjection, np.ndarray]:
    """Multiplicative-update NMF minimizing the Frobenius residual.

    Returns the projection (components = H) and the final W factor. The
    recorded residual sequence is non-increasing: when roundoff at the
    convergence plateau would produce an uptick, iteration halts without
    taking that step.
    """
    v = np.asarray(matrix, dtype=float)
    if np.any(v < 0):
        raise DataError("NMF input must be elementwise nonnegative")
    n, c = v.shape
    if num_components < 1:
        raise ConfigurationError(f"num_components must be >= 1, got {num_components}")
    if num_components > c:
        raise ConfigurationError(f"num_components={num_components} exceeds band count {c}")
    gen = make_generator(seed)
    scale = np.sqrt(max(v.mean(), np.finfo(float).tiny) / num_components)
    w = gen.random((n, num_components)) * scale + 1e-4
    h = gen.random((num_components, c)) * scale + 1e-4
    delta = 1e-12

    def residual(w, h):
        return float(np.linalg.norm(v - w @ h))

    history = [residual(w, h)]
    for _ in range(max_iter):
        h_new = h * (w.T @ v) / (w.T @ w @ h + delta)
        w_new = w * (v @ h_new.T) / (w @ (h_new @ h_new.T) + delta)
        r = residual(w_new, h_new)
        if r > history[-1]:
            break  # numerical plateau; keep the monotone prefix
        w, h = w_new, h_new
        improvement = (history[-1] - r) / max(history[-1], np.finfo(float).tiny)
        history.append(r)
        if improvement < tol:
            break
    return LinearProjection(kind="nmf", components=h, residual_history=history), w


def project(cube: Hypercube, stats: BandStats, projection: LinearProjection) -> np.ndarray:
    """Check both band counts; then, image by image, standardize, add any NMF shift and matrix-multiply per pixel."""
    bands = cube.dims[1]
    if stats.mean.size != bands:
        raise DataError(f"stats cover {stats.mean.size} bands but cube has {bands}")
    if projection.components.shape[1] != bands:
        raise DataError(f"projection covers {projection.components.shape[1]} bands but cube has {bands}")
    out = np.empty((cube.dims[0], len(projection.components)) + cube.dims[2:])

    def block(lo, hi):
        for i in range(lo, hi):
            data = _standardize(cube.data[i : i + 1], stats)
            if projection.shift is not None:
                data += projection.shift[None, :, None, None]
            np.einsum("fc,bchw->bfhw", projection.components, data, out=out[i : i + 1])
            del data  # before the next image's copy, so one is alive per thread

    _each_image_block(block, len(out), _image_values(cube.data, out))
    return out


@dataclass
class ReductionPipeline:
    """Fitted stats plus projection, serializable as one JSON artifact."""

    stats: BandStats
    projection: LinearProjection

    def to_json(self) -> str:
        proj = {
            "kind": self.projection.kind,
            "components": self.projection.components.tolist(),
        }
        if self.projection.explained_variance is not None:
            proj["explained_variance"] = self.projection.explained_variance.tolist()
        if self.projection.residual_history is not None:
            proj["iterations_run"] = self.projection.iterations_run
            proj["final_residual"] = self.projection.final_residual
        if self.projection.shift is not None:
            proj["shift"] = self.projection.shift.tolist()
        stats = {"mean": self.stats.mean.tolist(), "std": self.stats.std.tolist()}
        return json.dumps({"stats": stats, "projection": proj}, indent=2)


def fit_reduction_pipeline(
    cubes: Sequence[tuple[Hypercube, np.ndarray]],
    method: str,
    num_components: int,
    target_total: int = 50_000,
    seed: int = 0,
) -> ReductionPipeline:
    """Run all three phases and return the reusable pipeline.

    NMF runs with ``fit_nmf``'s own iteration limit and tolerance.
    """
    sample = stratified_sample(cubes, target_total, seed)
    stats = fit_band_stats(sample)
    standardized = _standardize(sample.matrix, stats)
    if method == "pca":
        projection = fit_pca(standardized, num_components)
    elif method == "nmf":
        shift = np.maximum(-standardized.min(axis=0), 0.0)
        projection, _ = fit_nmf(standardized + shift[None, :], num_components, seed=seed)
        projection.shift = shift
    else:
        raise ConfigurationError(f"unknown reduction method {method!r} (expected 'pca' or 'nmf')")
    return ReductionPipeline(stats=stats, projection=projection)
