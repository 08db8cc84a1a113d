"""Reaction terms, the coupled operator, and one-sided Lipschitz structure."""

import numpy as np
import pytest

from fhn_control.dynamics import (
    FhnParams,
    a_apply,
    df_apply,
    f_apply,
    i_ion,
    i_ion_prime,
    one_sided_defect,
)
from fhn_control.errors import ConfigurationError, ContractViolation
from fhn_control.grid import (
    Grid,
    StateX,
    inner_h,
    inner_l2,
    neumann_laplacian,
    norm_l2_sq,
)


def test_cubic_roots():
    p = FhnParams(a=0.25, b=1.0)
    for r in (0.0, 0.25, 1.0):
        assert i_ion(p, r) == pytest.approx(0.0)
    assert i_ion(p, 2.0) == pytest.approx(2.0 * 1.75 * 1.0)


def test_cubic_derivative_matches_finite_difference():
    p = FhnParams(a=0.3, b=0.9)
    v = np.linspace(-2, 2, 17)
    h = 1e-6
    fd = (i_ion(p, v + h) - i_ion(p, v - h)) / (2 * h)
    np.testing.assert_allclose(i_ion_prime(p, v), fd, atol=1e-7)


def test_linear_mode_disables_cubic():
    p = FhnParams(linear=True)
    v = np.linspace(-3, 3, 9)
    np.testing.assert_array_equal(i_ion(p, v), np.zeros_like(v))
    np.testing.assert_array_equal(i_ion_prime(p, v), np.zeros_like(v))
    assert p.eta == 0.0


def test_eta_formula():
    # minimum of 3v^2 - 2(a+b)v + ab over v is ab - (a+b)^2/3 at v = (a+b)/3
    p = FhnParams(a=0.25, b=1.0)
    v_star = (p.a + p.b) / 3.0
    assert i_ion_prime(p, v_star) == pytest.approx(-p.eta)
    v = np.linspace(-5, 5, 2001)
    assert np.min(i_ion_prime(p, v)) >= -p.eta - 1e-9
    # a = b = 0 gives a pure cubic, monotone, so eta = 0
    assert FhnParams(a=0.0, b=0.0).eta == 0.0


def test_params_validation():
    with pytest.raises(ConfigurationError):
        FhnParams(gamma=0.0)
    with pytest.raises(ConfigurationError):
        FhnParams(delta=-1.0)


def test_forcing_scalar_and_field():
    g = Grid(1, 8)
    p = FhnParams(f=1.5)
    np.testing.assert_array_equal(p.forcing(g), g.constant(1.5))
    field = np.arange(8.0)
    p2 = FhnParams(f=field)
    np.testing.assert_array_equal(p2.forcing(g), field)
    # a uniform forcing stays a float, so f_apply builds no field per step
    assert type(p.forcing(g)) is float
    with pytest.raises(ContractViolation):
        FhnParams(f=np.arange(9.0)).forcing(g)


def test_f_apply_reaction_only_in_voltage():
    g = Grid(1, 16)
    p = FhnParams(f=0.2)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(g.shape)
    # F has no recovery part: it maps the voltage to a voltage field
    out = f_apply(p, g, v)
    assert out.shape == g.shape
    np.testing.assert_allclose(out, -i_ion(p, v) + 0.2)


def test_df_apply_is_derivative_of_f_apply():
    g = Grid(1, 16)
    p = FhnParams()
    rng = np.random.default_rng(2)
    v = rng.standard_normal(g.shape)
    z = rng.standard_normal(g.shape)
    h = 1e-6
    fd = (f_apply(p, g, v + h * z) - f_apply(p, g, v - h * z)) / (2 * h)
    np.testing.assert_allclose(df_apply(p, g, v, z), fd, atol=1e-6)


def test_skew_cancellation_identity():
    # <AX, X>_H collapses to gamma<Lap v, v> - delta|w|^2: the coupling
    # terms cancel exactly thanks to the gamma-weighted inner product
    rng = np.random.default_rng(6)
    g = Grid(1, 32)
    p = FhnParams()
    for _ in range(50):
        X = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        got = inner_h(g, p.gamma, a_apply(p, g, X), X)
        expected = p.gamma * inner_l2(g, neumann_laplacian(g, X.v), X.v) - p.delta * norm_l2_sq(g, X.w)
        assert abs(got - expected) <= 1e-12 * (1 + abs(expected))


@pytest.mark.parametrize("d, n", [(1, 64), (2, 48)], ids=["d1", "d2"])
@pytest.mark.parametrize(
    "a, b, linear",
    [(0.25, 1.0, False), (0.0, 0.0, False), (0.8, 0.3, False), (50.0, 80.0, False), (0.25, 1.0, True)],
    ids=["a0.25-b1", "a0-b0", "a0.8-b0.3", "a50-b80", "linear"],
)
def test_one_sided_defect_is_roundoff(a, b, linear, d, n):
    # eta is attained at the pair c +- s (0 in linear mode), and f_apply's
    # divided difference is the quadratic that peaks at eta: both defects
    # are roundoff, which grows with the cubic (4e-10 at a = 50, b = 80)
    p = FhnParams(a=a, b=b, linear=linear)
    out = one_sided_defect(p, Grid(d, n))
    assert out["eta"] == (0.0 if linear else pytest.approx((a + b) ** 2 / 3.0 - a * b))
    assert out["pair"] <= out["pair_bound"]
    assert out["lattice"] <= out["lattice_bound"]
    assert out["passed"]
