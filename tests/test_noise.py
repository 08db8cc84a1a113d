"""Q-Wiener increments: spectrum, traces, streams, and sampled statistics."""

import numpy as np
import pytest

from fhn_control import noise
from fhn_control.errors import ConfigurationError
from fhn_control.forward import TimeGrid
from fhn_control.grid import Grid, StateX, eigenmode_matrix
from fhn_control.noise import (
    STREAM_BLOCK,
    SpectralCovariance,
    increment_stream,
    path_normals,
    sample_increment,
    sample_path,
    synthesize,
    trace_q,
)


def _mode_coefficients(g, K, fields):
    """Trapezoid projections <u, e_k>_2, k = 1..K, of each field u along
    the leading axis: one row per field."""
    return (g.weights() * fields).reshape(len(fields), -1) @ eigenmode_matrix(g, K)


def test_power_spectrum_decay_and_trace():
    cov = SpectralCovariance.power_spectrum(32, 0.1, 0.2)
    lam1 = np.asarray(cov.lam1)
    assert lam1[0] == pytest.approx(0.01)
    assert np.all(np.diff(lam1) < 0)
    # partial sums of sigma^2/k^2 stay below sigma^2 * pi^2/6
    assert trace_q(cov, 1) < 0.01 * np.pi**2 / 6
    assert trace_q(cov, 2) == pytest.approx(4 * trace_q(cov, 1))


def test_trace_monotone_in_truncation():
    traces = [trace_q(SpectralCovariance.power_spectrum(K, 0.1, 0.1), 1) for K in (4, 16, 64)]
    assert traces[0] < traces[1] < traces[2]


def test_covariance_validation():
    with pytest.raises(ConfigurationError):
        SpectralCovariance((), ())
    with pytest.raises(ConfigurationError):
        SpectralCovariance((1.0,), (1.0, 1.0))
    with pytest.raises(ConfigurationError):
        SpectralCovariance((-1.0,), (0.0,))
    with pytest.raises(ConfigurationError):
        trace_q(SpectralCovariance.zero(2), 3)


def test_zero_covariance():
    cov = SpectralCovariance.zero(4)
    assert cov.is_zero()
    assert not SpectralCovariance.power_spectrum(4).is_zero()


def test_stream_is_counter_based():
    a = increment_stream(3, 1, 7).standard_normal(4)
    b = increment_stream(3, 1, 7).standard_normal(4)
    c = increment_stream(3, 1, 8).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# (seed, path, step) keys: zeros, words of 2**32 and more, and steps at and
# on either side of block boundaries
STREAM_KEYS = [
    (0, 0, 0), (0, 0, 1), (3, 1, 7), (7, 49, 499), (1, 0, STREAM_BLOCK - 1),
    (1, 0, STREAM_BLOCK), (1, 0, STREAM_BLOCK + 1), (5, 2, 2 * STREAM_BLOCK - 1),
    (5, 2, 2 * STREAM_BLOCK), (2**32, 0, 3), (2**32 - 1, 2**32 - 1, 2**32 - 1),
    (9, 2**32 + 5, STREAM_BLOCK), (2**64 + 1, 2**40, 0), (1, 1, 2**32 - 1),
    (1, 1, 2**32), (2**32, 2**33, 2**32 + 1), (4, 4, 2**64 + 7),
]


@pytest.mark.parametrize("block", [STREAM_BLOCK, 1, 7])
def test_stream_is_default_rng_of_its_key(monkeypatch, block):
    # each stream is numpy's default_rng([seed, path, step]) bit for bit,
    # whatever the number of steps whose seeds are hashed together
    monkeypatch.setattr(noise, "STREAM_BLOCK", block)
    for seed, path, step in STREAM_KEYS + [(2, 3, n) for n in range(0, 600, 37)]:
        np.testing.assert_array_equal(
            increment_stream(seed, path, step).standard_normal(64),
            np.random.default_rng([seed, path, step]).standard_normal(64),
            err_msg=str((seed, path, step)),
        )


@pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)], ids=["seed", "path", "step"])
def test_stream_rejects_negative_key(key):
    with pytest.raises(ValueError):
        np.random.default_rng(list(key))
    with pytest.raises(ValueError, match="nonnegative"):
        increment_stream(*key)


def test_sample_increment_reproducible_and_shape():
    g = Grid(1, 16)
    cov = SpectralCovariance.power_spectrum(8)
    dW1 = sample_increment(cov, g, 1e-3, increment_stream(0, 0, 0))
    dW2 = sample_increment(cov, g, 1e-3, increment_stream(0, 0, 0))
    assert isinstance(dW1, StateX)
    np.testing.assert_array_equal(dW1.v, dW2.v)
    np.testing.assert_array_equal(dW1.w, dW2.w)
    assert dW1.v.shape == g.shape
    # reference synthesis straight from the eigenvalue tuples: the cached
    # square roots leave every sampled value unchanged
    xi = increment_stream(0, 0, 0).standard_normal((2, cov.K))
    E = eigenmode_matrix(g, cov.K)
    c1 = np.sqrt(np.asarray(cov.lam1)) * xi[0] * np.sqrt(1e-3)
    c2 = np.sqrt(np.asarray(cov.lam2)) * xi[1] * np.sqrt(1e-3)
    np.testing.assert_array_equal(dW1.v, (E @ c1).reshape(g.shape))
    np.testing.assert_array_equal(dW1.w, (E @ c2).reshape(g.shape))
    for root in cov.sqrt_lam:
        with pytest.raises(ValueError):
            root[0] = 1.0


def test_sample_increment_dt_zero_consumes_stream():
    g = Grid(1, 8)
    cov = SpectralCovariance.power_spectrum(4)
    stream = increment_stream(1, 0, 0)
    dW = sample_increment(cov, g, 0.0, stream)
    np.testing.assert_array_equal(dW.v, g.zeros())
    # the stream advanced exactly as it would for dt > 0
    after = stream.standard_normal()
    ref = increment_stream(1, 0, 0)
    ref.standard_normal((2, cov.K))
    assert after == ref.standard_normal()


def test_sample_increment_rejects_negative_dt():
    g = Grid(1, 8)
    with pytest.raises(ConfigurationError):
        sample_increment(SpectralCovariance.zero(1), g, -1.0, increment_stream(0, 0, 0))


def test_increment_mode_variance_matches_spectrum():
    # Monte Carlo check: the coefficient of mode k has variance lam_k * dt.
    # The samples are the steps of one path: each step draws from its own
    # stream (seed, path, step), so they are independent
    g = Grid(1, 32)
    K, n_samples = 4, 4000
    tg = TimeGrid(0.01 * n_samples, n_samples)
    cov = SpectralCovariance.power_spectrum(K, 0.3, 0.2)
    dW = sample_path(cov, g, tg, 42, 0)
    coeffs = _mode_coefficients(g, K, dW.v)
    sample_var = np.var(coeffs, axis=0)
    expected = np.asarray(cov.lam1) * tg.dt
    np.testing.assert_allclose(sample_var, expected, rtol=0.15)
    # cross-mode covariance vanishes
    corr = np.corrcoef(coeffs.T)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.08


def test_increment_components_independent():
    # the steps of one path, as above
    g = Grid(1, 16)
    cov = SpectralCovariance.power_spectrum(1, 0.5, 0.5)
    n_samples = 3000
    dW = sample_path(cov, g, TimeGrid(0.1 * n_samples, n_samples), 5, 0)
    c1 = _mode_coefficients(g, 1, dW.v)[:, 0]
    c2 = _mode_coefficients(g, 1, dW.w)[:, 0]
    assert abs(np.corrcoef(c1, c2)[0, 1]) < 0.06


@pytest.mark.parametrize("grid", [Grid(1, 16), Grid(2, 7)], ids=["d1", "d2"])
def test_sample_path_equals_per_step_increments(grid):
    # one stacked synthesis over all steps gives the one-step draws bit for
    # bit, and it is the synthesis of the path's normals
    cov = SpectralCovariance.power_spectrum(12, 0.3, 0.2)
    tg = TimeGrid(0.2, 40)
    path = sample_path(cov, grid, tg, seed=11, path=3)
    assert path.v.shape == path.w.shape == (tg.N,) + grid.shape
    assert path.v.flags.c_contiguous and path.w.flags.c_contiguous
    xi = path_normals(cov, tg, 11, 3)
    assert xi.shape == (tg.N, 2, cov.K)
    out = StateX(np.empty(path.v.shape), np.empty(path.w.shape))
    again = synthesize(cov, grid, tg.dt, xi, out)
    assert again is out
    assert again.v.tobytes() == path.v.tobytes()
    assert again.w.tobytes() == path.w.tobytes()
    for n in range(tg.N):
        dW = sample_increment(cov, grid, tg.dt, increment_stream(11, 3, n))
        np.testing.assert_array_equal(path.v[n], dW.v)
        np.testing.assert_array_equal(path.w[n], dW.w)


@pytest.mark.parametrize("M", [1, 3])
@pytest.mark.parametrize("grid", [Grid(1, 16), Grid(2, 7)], ids=["d1", "d2"])
def test_synthesis_into_staging_columns_equals_sample_path(grid, M):
    # each path synthesized into its column of an (N, M) + grid.shape
    # staging array, a strided view, is its sample_path bit for bit
    cov = SpectralCovariance.power_spectrum(12, 0.3, 0.2)
    tg = TimeGrid(0.2, 40)
    shape = (tg.N, M) + grid.shape
    staged = StateX(np.full(shape, np.nan), np.full(shape, np.nan))
    for j in range(M):
        column = staged[:, j]
        assert synthesize(cov, grid, tg.dt, path_normals(cov, tg, 11, j), column) is column
    for j in range(M):
        path = sample_path(cov, grid, tg, 11, j)
        assert staged.v[:, j].tobytes() == path.v.tobytes()
        assert staged.w[:, j].tobytes() == path.w.tobytes()


def test_synthesis_refuses_a_field_it_cannot_flatten_before_writing():
    # a transposed 2-D field has no flat view: writing into a flattened copy
    # would lose the increments, so synthesize raises, and the other field,
    # which it could have written, is left as it was
    grid = Grid(2, 6)
    cov = SpectralCovariance.power_spectrum(4)
    xi = np.ones((2, cov.K))
    out = StateX(np.zeros(grid.shape), np.zeros(grid.shape).T)
    with pytest.raises(AttributeError):
        synthesize(cov, grid, 0.1, xi, out)
    assert not out.v.any() and not out.w.any()
