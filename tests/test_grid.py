"""Grid, inner products, Laplacian, eigenbasis, and Helmholtz solves."""

import itertools

import numpy as np
import pytest
from scipy.fft import dctn, idctn

from fhn_control import grid as grid_module
from fhn_control.control import CostSpec, Problem
from fhn_control.dynamics import FhnParams
from fhn_control.errors import ConfigurationError, ContractViolation
from fhn_control.forward import ActuatorSpec, TimeGrid
from fhn_control.grid import (
    DENSE_MAX_N,
    Grid,
    StateX,
    _dct1_matrix,
    _dct_symbol,
    _dense_solve_1d,
    _inverse_symbol,
    eigenmode_matrix,
    grad_norm_sq,
    helmholtz_solve,
    inner_h,
    inner_l2,
    mode_eigenvalue,
    mode_frequencies,
    neumann_eigenmode,
    neumann_laplacian,
    norm_h_sq,
    norm_l2_sq,
    norm_v_sq,
)
from fhn_control.noise import STREAM_BLOCK, SpectralCovariance, _block_states
from fhn_control.scenario import Scenario


def test_grid_basic_properties():
    g = Grid(1, 65, 2.0)
    assert g.h == pytest.approx(2.0 / 64)
    assert g.shape == (65,)
    assert g.num_nodes == 65
    g2 = Grid(2, 17)
    assert g2.shape == (17, 17)
    assert g2.num_nodes == 17 * 17


def test_grid_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        Grid(3, 8)
    with pytest.raises(ConfigurationError):
        Grid(1, 2)
    with pytest.raises(ConfigurationError):
        Grid(1, 8, -1.0)


def test_weights_sum_to_volume():
    for d, n, ell in [(1, 17, 1.0), (1, 64, 2.5), (2, 9, 1.0), (2, 21, 0.5)]:
        g = Grid(d, n, ell)
        assert np.sum(g.weights()) == pytest.approx(ell**d, rel=1e-13)


def test_cached_arrays_are_read_only():
    # the caches hand one array to every caller; a write through one
    # caller would otherwise reach every later weight, noise and solve
    fresh = Grid(1, 8).weights().copy()
    with pytest.raises(ValueError):
        Grid(1, 8).weights()[0] = 99.0
    np.testing.assert_array_equal(Grid(1, 8).weights(), fresh)
    g = Grid(2, 6)
    g1 = Grid(1, 6)
    # a scenario's built problem is shared by every command of a run
    problem = Scenario(
        d=2, n=6, modes=4, mask="left_half", x_ref="constant:0.2|modes:2:0.1",
        x_target="modes:3:0.1",
    ).problem
    x_ref, x_T = problem.cost.x_ref, problem.cost.x_T
    # so is a problem built in code: its arrays are frozen in place
    mask, x0 = np.ones(g.shape), StateX(g.constant(0.3), g.zeros())
    ref, target = StateX(g.constant(0.2), g.zeros()), StateX(g.zeros(), g.constant(0.1))
    Problem(
        FhnParams(), g, SpectralCovariance.zero(1), ActuatorSpec(mask), TimeGrid(0.1, 10),
        CostSpec(alpha=2.0, c0=0.1, x_ref=ref, x_T=target), x0,
    )
    for cached in (
        g.weights(), eigenmode_matrix(g, 3), _dct_symbol(g), _dct1_matrix(g),
        _inverse_symbol(g, 1.3, 1e-3), _dense_solve_1d(g1, 1.3, 1e-3),
        problem.x0.v, problem.x0.w, problem.spec.mask, x_ref.v, x_ref.w, x_T.v, x_T.w,
        mask, x0.v, x0.w, ref.v, ref.w, target.v, target.w,
        # the seed words of a block of noise streams, which every step's
        # stream of that block reads
        _block_states(0, 3, 0, STREAM_BLOCK),
    ):
        with pytest.raises(ValueError):
            cached[0, 0] = 99.0


def test_inner_l2_constant_fields():
    g = Grid(1, 33, 3.0)
    # <1, 1> over [0, 3] is the length of the interval
    assert inner_l2(g, g.constant(1.0), g.constant(1.0)) == pytest.approx(3.0)
    assert inner_l2(g, g.constant(2.0), g.constant(0.5)) == pytest.approx(3.0)


def test_inner_l2_shape_mismatch():
    g = Grid(1, 16)
    with pytest.raises(ContractViolation):
        inner_l2(g, np.zeros(17), np.zeros(16))


def test_inner_l2_is_the_weighted_product_sum_bit_for_bit():
    # (weights * a) * b, summed over the grid axes, whichever operand
    # carries the leading axes the other lacks
    rng = np.random.default_rng(5)
    g = Grid(2, 6)
    field, batch = rng.standard_normal(g.shape), rng.standard_normal((3, 4) + g.shape)
    column = rng.standard_normal((3, 1) + g.shape)
    for a, b in ((batch, batch[::-1]), (batch, field), (field, batch), (column, batch)):
        want = (g.weights() * a * b).sum(axis=(-2, -1))
        assert np.asarray(inner_l2(g, a, b)).tobytes() == want.tobytes()


def test_trapezoid_quadrature_exact_for_linear():
    # trapezoid quadrature integrates piecewise-linear functions exactly
    g = Grid(1, 11, 1.0)
    xi = g.axis_coords()
    assert inner_l2(g, xi, np.ones_like(xi)) == pytest.approx(0.5, rel=1e-13)


def test_weighted_inner_product_splits():
    rng = np.random.default_rng(7)
    g = Grid(1, 32)
    gamma = 0.5
    X = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    Y = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    expected = gamma * inner_l2(g, X.v, Y.v) + inner_l2(g, X.w, Y.w)
    assert inner_h(g, gamma, X, Y) == pytest.approx(expected, rel=1e-14)
    assert norm_h_sq(g, gamma, X) >= 0.0


def test_inner_h_rejects_nonpositive_gamma():
    g = Grid(1, 8)
    X = StateX.zero(g)
    with pytest.raises(ConfigurationError):
        inner_h(g, 0.0, X, X)


def test_state_arithmetic():
    g = Grid(1, 8)
    rng = np.random.default_rng(0)
    X = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    Y = 2.0 * X - X
    np.testing.assert_allclose(Y.v, X.v)
    np.testing.assert_allclose(Y.w, X.w)
    with pytest.raises(ContractViolation):
        StateX(np.zeros(8), np.zeros(9))
    # the zero pair is also the noise-free increment the integrator adds
    Z = StateX.zero(Grid(2, 8))
    assert Z.v.shape == Z.w.shape == (8, 8)
    assert not Z.v.any() and not Z.w.any()


def test_state_indexing_views_both_fields():
    # a path is a StateX with a leading time axis: X[n] is node n and
    # X[a:b] a stretch of the path, both views of the same fields
    g = Grid(2, 5)
    rng = np.random.default_rng(1)
    X = StateX(rng.standard_normal((7,) + g.shape), rng.standard_normal((7,) + g.shape))
    node = X[3]
    assert isinstance(node, StateX) and node.v.shape == g.shape
    np.testing.assert_array_equal(node.v, X.v[3])
    np.testing.assert_array_equal(node.w, X.w[3])
    part = X[2:5]
    assert part.v.shape == part.w.shape == (3,) + g.shape
    assert np.shares_memory(part.v, X.v) and np.shares_memory(part.w, X.w)
    assert np.shares_memory(node.v, X.v) and np.shares_memory(node.w, X.w)
    np.testing.assert_array_equal(part[1].w, X.w[3])


def test_laplacian_self_adjoint_under_trapezoid_weights():
    rng = np.random.default_rng(11)
    for g in [Grid(1, 40), Grid(2, 12)]:
        u = rng.standard_normal(g.shape)
        w = rng.standard_normal(g.shape)
        lhs = inner_l2(g, neumann_laplacian(g, u), w)
        rhs = inner_l2(g, u, neumann_laplacian(g, w))
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))


def test_laplacian_annihilates_constants():
    for g in [Grid(1, 16), Grid(2, 8)]:
        np.testing.assert_array_equal(neumann_laplacian(g, g.constant(3.2)), g.zeros())


def test_laplacian_negative_semidefinite():
    rng = np.random.default_rng(3)
    g = Grid(1, 50)
    for _ in range(20):
        u = rng.standard_normal(g.shape)
        assert inner_l2(g, neumann_laplacian(g, u), u) <= 1e-12


def test_laplacian_matches_second_derivative_of_cosine():
    # interior truncation error is O(h^2) for smooth fields
    g = Grid(1, 201, 1.0)
    xi = g.axis_coords()
    u = np.cos(2 * np.pi * xi)
    exact = -(2 * np.pi) ** 2 * u
    err = np.max(np.abs(neumann_laplacian(g, u) - exact))
    assert err < 1e-2 * (2 * np.pi) ** 2


def test_mode_frequencies_ordering():
    g = Grid(2, 10)
    freqs = mode_frequencies(g, 6)
    assert freqs[0] == (0, 0)
    totals = [sum(f) for f in freqs]
    assert totals == sorted(totals)
    with pytest.raises(ContractViolation):
        mode_frequencies(g, 10**6)
    # reference: sort every combination by total frequency, then lexicographically
    for g in [Grid(1, 9), Grid(2, 4), Grid(2, 7)]:
        kmax = g.max_mode_freq()
        ref = sorted(
            itertools.product(range(kmax + 1), repeat=g.d), key=lambda t: (sum(t), t)
        )
        for K in range(1, len(ref) + 1):
            assert mode_frequencies(g, K) == ref[:K]
        # every combination is a mode the grid holds exactly, and no more
        assert len(ref) == g.exact_truncation == (g.n - 1) ** g.d
        with pytest.raises(ContractViolation):
            mode_frequencies(g, g.exact_truncation + 1)


def test_eigenmodes_orthonormal_and_eigen_identity():
    for g in [Grid(1, 24), Grid(2, 10)]:
        K = 8
        E = eigenmode_matrix(g, K)
        gram = E.T @ (g.weights().ravel()[:, None] * E)
        np.testing.assert_allclose(gram, np.eye(K), atol=1e-12)
        for k in range(1, K + 1):
            ek = neumann_eigenmode(g, k)
            resid = neumann_laplacian(g, ek) - mode_eigenvalue(g, k) * ek
            assert np.max(np.abs(resid)) <= 1e-10 * (1 + abs(mode_eigenvalue(g, k)))
            # the identity holds for the symbol helmholtz_solve divides by
            assert mode_eigenvalue(g, k) == _dct_symbol(g)[mode_frequencies(g, k)[k - 1]]


def test_first_mode_is_constant():
    g = Grid(1, 16, 4.0)
    e1 = neumann_eigenmode(g, 1)
    np.testing.assert_allclose(e1, np.full(g.shape, 1 / np.sqrt(4.0)))
    assert mode_eigenvalue(g, 1) == 0.0


def test_project_synthesize_roundtrip():
    rng = np.random.default_rng(5)
    g = Grid(1, 32)
    K = 10
    coeffs = rng.standard_normal(K)
    E = eigenmode_matrix(g, K)
    u = E @ coeffs
    # the trapezoid projections <u, e_k>_2 recover the coefficients
    np.testing.assert_allclose(E.T @ (g.weights() * u), coeffs, atol=1e-12)


def test_helmholtz_solve_inverts_operator():
    rng = np.random.default_rng(9)
    for g in [Grid(1, 32), Grid(2, 12)]:
        x = rng.standard_normal(g.shape)
        c, dt = 1.3, 2e-3
        rhs = c * x - dt * neumann_laplacian(g, x)
        np.testing.assert_allclose(helmholtz_solve(g, c, dt, rhs), x, atol=1e-11)


# one grid per dimension on each side of the dense/transform crossover
CROSSOVER_GRIDS = [(1, 16), (1, DENSE_MAX_N + 1), (2, 12), (2, DENSE_MAX_N + 1)]
CROSSOVER_IDS = ["d1-dense", "d1-transform", "d2-dense", "d2-transform"]


def test_helmholtz_solve_batched_axes():
    # each entry of a batch of any size equals the one-field solve bit for
    # bit, so an ensemble path does not depend on the ensemble size
    for d, n in CROSSOVER_GRIDS:
        rng = np.random.default_rng([13, d, n])
        g = Grid(d, n)
        fields = rng.standard_normal((50,) + g.shape)
        single = [helmholtz_solve(g, 1.0, 1e-3, f) for f in fields]
        for M in (1, 3, 7, 50):
            out = helmholtz_solve(g, 1.0, 1e-3, fields[:M])
            assert out.shape == (M,) + g.shape
            for m in range(M):
                np.testing.assert_array_equal(out[m], single[m], err_msg=f"d={d} n={n} M={M}")


@pytest.mark.parametrize("d, n", CROSSOVER_GRIDS, ids=CROSSOVER_IDS)
def test_helmholtz_solve_keeps_constants_exact(d, n):
    # a constant is the zero mode: its solution is exactly rhs / c
    g = Grid(d, n)
    c, dt = 1.3, 2e-3
    values = np.array([0.37, -2.5, 0.0])
    out = helmholtz_solve(g, c, dt, values.reshape((3,) + (1,) * d) * np.ones(g.shape))
    for m, value in enumerate(values):
        assert np.ptp(out[m]) == 0.0
        assert out[m].flat[0] == value / c


@pytest.mark.parametrize("d, n", [(1, 3), (1, 64), (1, DENSE_MAX_N), (2, 12), (2, 48), (2, DENSE_MAX_N)])
def test_helmholtz_dense_solve_matches_transform(d, n, monkeypatch):
    rng = np.random.default_rng([17, d, n])
    g = Grid(d, n)
    rhs = rng.standard_normal((4,) + g.shape)
    c, dt = 1.3, 2e-3
    dense = helmholtz_solve(g, c, dt, rhs)
    monkeypatch.setattr(grid_module, "DENSE_MAX_N", 0)
    transform = helmholtz_solve(g, c, dt, rhs)
    assert np.max(np.abs(dense - transform)) <= 1e-13 * np.max(np.abs(transform))


@pytest.mark.parametrize("d, n, M", [(1, DENSE_MAX_N + 1, 20), (1, 1024, 20), (2, DENSE_MAX_N + 1, 4), (2, 200, 2)])
def test_helmholtz_fft_solve_matches_scipy(d, n, M):
    # above the crossover the solve runs numpy's FFT; scipy's DCT-I is the
    # oracle, held to roundoff so that a different pocketfft build shows up
    rng = np.random.default_rng([19, d, n])
    g = Grid(d, n)
    rhs = rng.standard_normal((M,) + g.shape)
    c, dt = 1.3, 2e-3
    axes = tuple(range(1, 1 + d))
    reference = idctn(dctn(rhs, type=1, axes=axes) / (c - dt * _dct_symbol(g)), type=1, axes=axes)
    out = helmholtz_solve(g, c, dt, rhs)
    assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_helmholtz_rejects_nonpositive_coefficient():
    g = Grid(1, 8)
    with pytest.raises(ConfigurationError):
        helmholtz_solve(g, 0.0, 1e-3, g.zeros())


@pytest.mark.parametrize("d, n", [(1, 64), (2, 12)], ids=["d1", "d2"])
def test_batched_norms_equal_per_field_norms(d, n):
    # leading axes are a batch; each entry equals the one-field value bit for bit
    rng = np.random.default_rng([d, n])
    g = Grid(d, n)
    gamma = 0.7
    X = StateX(*rng.standard_normal((2, 7, 11) + g.shape))
    Y = StateX(*rng.standard_normal((2, 7, 11) + g.shape))
    batched = {
        "inner_h": inner_h(g, gamma, X, Y),
        "norm_h_sq": norm_h_sq(g, gamma, X),
        "norm_v_sq": norm_v_sq(g, gamma, X),
        "grad_norm_sq": grad_norm_sq(g, X.v),
    }
    for i in range(7):
        for j in range(11):
            Xij = StateX(X.v[i, j], X.w[i, j])
            Yij = StateX(Y.v[i, j], Y.w[i, j])
            single = {
                "inner_h": inner_h(g, gamma, Xij, Yij),
                "norm_h_sq": norm_h_sq(g, gamma, Xij),
                "norm_v_sq": norm_v_sq(g, gamma, Xij),
                "grad_norm_sq": grad_norm_sq(g, Xij.v),
            }
            for name, value in single.items():
                assert isinstance(value, float)
                assert batched[name][i, j] == value, name
    for value in batched.values():
        assert value.shape == (7, 11)
    # a field off the grid is still rejected, batched or not
    with pytest.raises(ContractViolation):
        norm_h_sq(g, gamma, StateX(X.v[..., :-1], X.w[..., :-1]))


def test_grad_norm_of_linear_field():
    # |d/dx (s*x)|^2 integrated over [0, 1] is s^2
    g = Grid(1, 41)
    u = 2.0 * g.axis_coords()
    assert grad_norm_sq(g, u) == pytest.approx(4.0, rel=1e-12)


def test_energy_norm_dominates_l2():
    rng = np.random.default_rng(17)
    g = Grid(1, 20)
    gamma = 0.5
    X = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    assert norm_v_sq(g, gamma, X) >= norm_h_sq(g, gamma, X) - 1e-12
    assert norm_l2_sq(g, X.v) >= 0.0
