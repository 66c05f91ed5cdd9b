"""Mini-batch k-means codebook behavior."""

import numpy as np
import pytest

from gkconv.quantizer import (Codebook, CodebookStateError, QuantizerError,
                              default_k, fit_update, assign, kmeans_pp_init)


def blobs(rng, centers, per=20, noise=0.05):
    pts = [c + noise * rng.standard_normal((per, len(c)))
           for c in np.asarray(centers, dtype=float)]
    return np.vstack(pts)


def test_default_k_bounds():
    assert default_k(1) == 4
    assert default_k(7) == 7
    assert default_k(100) == 16


def test_kmeans_pp_init_picks_data_rows():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    cents = kmeans_pp_init(X, 5, rng)
    assert cents.shape == (5, 3)
    rows = {tuple(r) for r in X}
    assert all(tuple(c) in rows for c in cents)
    with pytest.raises(QuantizerError):
        kmeans_pp_init(X[:0], 5, rng)


def test_kmeans_pp_init_draws_are_pinned_when_rows_suffice():
    X = np.random.default_rng(0).standard_normal((30, 3))
    picked = {1: [14], 5: [20, 23, 14, 8, 1],
              30: [3, 14, 4, 20, 25, 27, 13, 1, 15, 21, 8, 23, 26, 11, 16,
                   19, 17, 18, 7, 24, 2, 9, 0, 29, 6, 5, 28, 22, 10, 12]}
    for k, rows in picked.items():
        cents = kmeans_pp_init(X, k, np.random.default_rng(k))
        assert np.array_equal(cents, X[rows])


def test_first_fit_with_fewer_rows_than_k_seeds_duplicates():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3, 2))
    cents = kmeans_pp_init(X, 5, np.random.default_rng(0))
    assert cents.shape == (5, 2)
    # every row is seeded; duplicates fill the other centroids
    assert {tuple(c) for c in cents} == {tuple(r) for r in X}
    for rows in (X, X[:1]):
        cb = fit_update(Codebook(16), rows, rng=np.random.default_rng(1))
        assert cb.initialized and cb.degenerate
        assert len(set(assign(cb, rows).tolist())) == len(rows)
        # warm starts keep working on small and larger batches
        fit_update(cb, rows)
        fit_update(cb, rng.standard_normal((40, 2)))
        assert len(set(assign(cb, rng.standard_normal((40, 2))))) > 3


def test_fit_recovers_separated_blobs():
    rng = np.random.default_rng(1)
    centers = [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)]
    X = blobs(rng, centers)
    cb = Codebook(3)
    fit_update(cb, X, rng=rng)
    assert cb.initialized and not cb.degenerate
    found = cb.centroids[np.argsort(cb.centroids[:, 0])]
    want = np.asarray(sorted(centers))
    assert np.abs(found - want).max() < 0.2
    codes = assign(cb, X)
    # one code per blob
    assert all(len(set(codes[i * 20:(i + 1) * 20])) == 1 for i in range(3))
    assert len(set(codes)) == 3


def test_first_fit_requires_rng():
    cb = Codebook(2)
    with pytest.raises(QuantizerError):
        fit_update(cb, np.zeros((5, 2)))


def test_assign_before_fit_raises():
    with pytest.raises(CodebookStateError):
        assign(Codebook(2), np.zeros((3, 2)))


def test_assign_tie_breaks_toward_smaller_index():
    cb = Codebook(2, centroids=np.array([[0.0], [2.0]]), initialized=True)
    codes = assign(cb, np.array([[1.0], [0.9], [1.1]]))
    assert codes.tolist() == [0, 0, 1]


def test_warm_start_converged_batch_has_zero_displacement():
    rng = np.random.default_rng(2)
    X = blobs(rng, [(0.0,), (10.0,)], per=25)
    cb = Codebook(2)
    fit_update(cb, X, rng=rng)
    first = cb.last_displacement
    assert first > 0.0
    fit_update(cb, X)
    assert cb.last_displacement == 0.0
    assert first != cb.last_displacement


def test_empty_batch_after_init_is_noop():
    rng = np.random.default_rng(3)
    cb = Codebook(2)
    fit_update(cb, np.array([[0.0], [1.0], [5.0], [6.0]]), rng=rng)
    cents = cb.centroids.copy()
    fit_update(cb, np.zeros((0, 1)))
    assert np.array_equal(cb.centroids, cents)
    assert cb.last_displacement == 0.0


def test_duplicate_data_reseeds_and_flags_degenerate():
    rng = np.random.default_rng(4)
    X = np.vstack([np.zeros((10, 2)), np.ones((10, 2))])
    cb = Codebook(3)
    fit_update(cb, X, rng=rng)
    assert cb.initialized
    # only two distinct points exist, so two centroids must collide
    assert cb.degenerate
    codes = assign(cb, X)
    assert codes.shape == (20,)


def test_dimension_mismatch_on_warm_start():
    rng = np.random.default_rng(5)
    cb = Codebook(2)
    fit_update(cb, np.zeros((4, 2)) + rng.standard_normal((4, 2)), rng=rng)
    with pytest.raises(QuantizerError):
        fit_update(cb, np.zeros((4, 3)))


def test_input_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(QuantizerError):
        Codebook(0)
    with pytest.raises(QuantizerError):
        fit_update(Codebook(2), np.zeros(5), rng=rng)  # not 2-d
