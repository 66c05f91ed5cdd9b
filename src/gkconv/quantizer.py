"""Mini-batch k-means used to discretize node features between layers.

The codebook is seeded with k-means++ on the first batch and Lloyd
iterations run to convergence; later batches warm-start Lloyd from the
carried-over centroids, so cluster ids stay consistent across batches of
the same run. Assignments break distance ties toward the smallest
centroid index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Lloyd stops once no centroid moves by more than TOL times the largest
# centroid norm (at least 1), or after MAX_ITER passes
TOL = 1e-6
MAX_ITER = 100


class QuantizerError(ValueError):
    pass


class CodebookStateError(RuntimeError):
    """Assignment was requested before the codebook was ever fitted."""


@dataclass
class Codebook:
    k: int
    centroids: np.ndarray = None  # (k, dim) once initialized
    initialized: bool = False
    degenerate: bool = False
    last_displacement: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise QuantizerError(f"need k >= 1, got {self.k}")


def default_k(dict_size: int) -> int:
    """Default codebook size: the label alphabet size clamped to [4, 16]."""
    return min(16, max(4, dict_size))


def _pairwise_sq(X, C):
    # (n, k) squared euclidean distances
    return ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)


def kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; duplicates only arise when X has < k distinct
    rows, so a batch with fewer than k rows seeds duplicate centroids."""
    n = X.shape[0]
    if n < 1:
        raise QuantizerError("need at least one point to seed centroids")
    first = int(rng.integers(n))
    centroids = [X[first]]
    d2 = ((X - X[first]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids.append(X[idx])
        d2 = np.minimum(d2, ((X - X[idx]) ** 2).sum(axis=1))
    return np.array(centroids, dtype=np.float64)


def _reseed_empty(X, C, assign_idx):
    """Move each empty centroid onto the point farthest from its centroid;
    with fewer points than empty centroids, the last ones stay put."""
    counts = np.bincount(assign_idx, minlength=C.shape[0])
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return False
    dist = ((X - C[assign_idx]) ** 2).sum(axis=1)
    used = set()
    for c in empty[:X.shape[0]]:
        order = np.argsort(-dist, kind="stable")
        pick = next(int(i) for i in order if int(i) not in used)
        used.add(pick)
        C[c] = X[pick]
        dist[pick] = -1.0
    return True


def _lloyd(X, C):
    """Lloyd iterations on the centroids C, in place."""
    for _ in range(MAX_ITER):
        idx = _pairwise_sq(X, C).argmin(axis=1)
        if _reseed_empty(X, C, idx):
            idx = _pairwise_sq(X, C).argmin(axis=1)
        new = C.copy()
        for c in range(C.shape[0]):
            mask = idx == c
            if mask.any():
                new[c] = X[mask].mean(axis=0)
        shift = float(np.sqrt(((new - C) ** 2).sum(axis=1)).max())
        C[:] = new
        scale = float(np.sqrt((C * C).sum(axis=1)).max())
        if shift <= TOL * max(scale, 1.0):
            break


def fit_update(cb: Codebook, X: np.ndarray,
               rng: np.random.Generator = None) -> Codebook:
    """Fit (first call) or warm-start update (later calls) on one batch.

    Records the mean centroid movement of the whole call relative to the
    mean pairwise centroid distance in ``last_displacement``; near
    convergence of the surrounding training loop this ratio gets small.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise QuantizerError("expected a 2d batch of feature rows")
    if not cb.initialized:
        if rng is None:
            raise QuantizerError("first fit needs an rng for k-means++ seeding")
        cb.centroids = kmeans_pp_init(X, cb.k, rng)
        entry = cb.centroids.copy()
        _lloyd(X, cb.centroids)
        cb.initialized = True
    else:
        if X.shape[1] != cb.centroids.shape[1]:
            raise QuantizerError(
                f"batch dim {X.shape[1]} != codebook dim {cb.centroids.shape[1]}")
        if X.shape[0] == 0:
            cb.last_displacement = 0.0
            return cb
        entry = cb.centroids.copy()
        _lloyd(X, cb.centroids)
    moved = float(np.sqrt(((cb.centroids - entry) ** 2).sum(axis=1)).mean())
    k = cb.k
    if k >= 2:
        d2 = _pairwise_sq(cb.centroids, cb.centroids)
        gaps = np.sqrt(d2[np.triu_indices(k, 1)])
        mean_gap = float(gaps.mean())
        cb.degenerate = bool((gaps == 0.0).any())
    else:
        mean_gap = 0.0
        cb.degenerate = False
    if mean_gap > 0.0:
        cb.last_displacement = moved / mean_gap
    else:
        cb.last_displacement = 0.0 if moved == 0.0 else float("inf")
    return cb


def assign(cb: Codebook, X: np.ndarray) -> np.ndarray:
    """Nearest-centroid ids for each row; ties go to the smaller id."""
    if not cb.initialized:
        raise CodebookStateError("codebook has not been fitted yet")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cb.centroids.shape[1]:
        raise QuantizerError("batch shape does not match the codebook")
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return _pairwise_sq(X, cb.centroids).argmin(axis=1).astype(np.int64)
