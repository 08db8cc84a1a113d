"""Reaction terms, the coupled linear operator, and their derivatives.

The drift splits as A + F: A carries the Laplacian and the linear
voltage/recovery coupling, F carries the cubic ionic current plus the
external forcing.  F and DF act on the voltage only, so `f_apply` and
`df_apply` take and return voltage fields.  The one-sided Lipschitz
constant of F is computed analytically from the cubic's roots;
`one_sided_defect` checks it exactly, where it is attained, not by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .grid import Field, Grid, StateX, inner_l2, neumann_laplacian, norm_h_sq


@dataclass
class FhnParams:
    """Model coefficients.

    `linear` disables the cubic entirely (test mode for the closed-form
    linear oracles); `f` is the external forcing applied to the voltage
    equation.  `eta` is derived, never user-supplied: the minimum of the
    cubic's derivative over the real line is ab - (a+b)^2/3, attained at
    v = (a+b)/3, so the one-sided constant of -I_ion is its negative part.
    `one_sided_defect` checks it exactly, where it is attained.
    """

    a: float = 0.25
    b: float = 1.0
    gamma: float = 0.5
    delta: float = 0.8
    f: Field | float = 0.0
    linear: bool = False

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.gamma < np.inf:
            raise ConfigurationError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.delta < np.inf:
            raise ConfigurationError(f"delta must be positive and finite, got {self.delta}")
        if not (np.isfinite(self.a) and np.isfinite(self.b) and np.all(np.isfinite(self.f))):
            raise ConfigurationError("a, b and the forcing f must be finite")

    @property
    def eta(self) -> float:
        if self.linear:
            return 0.0
        return max(0.0, (self.a + self.b) ** 2 / 3.0 - self.a * self.b)

    def forcing(self, grid: Grid) -> Field | float:
        """The forcing as `f_apply` adds it: a float for a uniform f, which
        broadcasts without building a field each step; else the field."""
        if np.isscalar(self.f):
            return float(self.f)
        f = np.asarray(self.f)
        if f.shape != grid.shape:
            raise ContractViolation(f"forcing shape {f.shape} does not match grid {grid.shape}")
        return f


def i_ion(params: FhnParams, v):
    """Cubic ionic current v(v-a)(v-b); zero in linear test mode."""
    if params.linear:
        return np.zeros_like(np.asarray(v, dtype=float))
    return v * (v - params.a) * (v - params.b)


def i_ion_prime(params: FhnParams, v):
    if params.linear:
        return np.zeros_like(np.asarray(v, dtype=float))
    return 3.0 * v**2 - 2.0 * (params.a + params.b) * v + params.a * params.b


def f_apply(params: FhnParams, grid: Grid, v: Field) -> Field:
    """Voltage part of the reaction operator: -I_ion(v) + f, computed as
    f - I_ion(v), which is the same IEEE result (signed zeros included)
    with one ufunc fewer."""
    return params.forcing(grid) - i_ion(params, v)


def df_apply(params: FhnParams, grid: Grid, v: Field, z: Field) -> Field:
    """Voltage part of the Frechet derivative of the reaction at v applied
    to z: -I_ion'(v) z.  Leading axes broadcast, as in an ensemble."""
    return -i_ion_prime(params, v) * z


def a_apply(params: FhnParams, grid: Grid, X: StateX) -> StateX:
    """Coupled linear operator: (Lap v - w, gamma*v - delta*w)."""
    return StateX(
        neumann_laplacian(grid, X.v) - X.w,
        params.gamma * X.v - params.delta * X.w,
    )


def one_sided_defect(params: FhnParams, grid: Grid) -> dict:
    """Exact check of `eta`, the one-sided Lipschitz constant of F.

    F's divided difference (F(x)-F(y))/(x-y) at node values x != y is
    -(x^2 + xy + y^2 - (a+b)(x+y) + ab) (zero in linear mode): its Hessian
    -[[2, 1], [1, 2]] is negative definite, so it peaks at x = y = c =
    (a+b)/3, at eta.  <F(X)-F(Y), X-Y>_H / |X-Y|_H^2 is a weighted mean of
    it, so it never exceeds eta.  `pair` is that ratio's defect from
    eta - s^2 (eta in linear mode) at the constant fields c +- s, s = 1e-3;
    `lattice` is the divided difference's largest defect from the quadratic
    over the pairs of 9 values around c.  Each is held to 64 eps |F| over
    the pair's spacing, and a NaN defect fails `passed`.
    """
    eps, a, b, s = np.finfo(float).eps, params.a, params.b, 1.0e-3
    c = (a + b) / 3.0
    x, y = grid.constant(c + s), grid.constant(c - s)
    fx, fy, dv = f_apply(params, grid, x), f_apply(params, grid, y), x - y
    ratio = params.gamma * inner_l2(grid, fx - fy, dv) / norm_h_sq(grid, params.gamma, StateX(dv, grid.zeros()))
    pair = abs(ratio - (params.eta if params.linear else params.eta - s * s))
    pair_bound = 64.0 * eps * (1.0 + np.max(np.abs([fx, fy]))) / s
    # the pairs run along a leading axis, so a forcing field broadcasts
    values = c + (1.0 + abs(a) + abs(b)) * np.linspace(-1.0, 1.0, 9)
    x, y = (values[k].reshape((-1,) + (1,) * grid.d) for k in np.triu_indices(values.size, 1))
    fx, fy = f_apply(params, grid, x), f_apply(params, grid, y)
    quadratic = 0.0 if params.linear else x * x + x * y + y * y - (a + b) * (x + y) + a * b
    lattice = float(np.max(np.abs((fx - fy) / (x - y) + quadratic)))
    lattice_bound = 64.0 * eps * (1.0 + np.max(np.abs([fx, fy]))) / (values[1] - values[0])
    passed = bool(pair <= pair_bound and lattice <= lattice_bound)
    return {"eta": params.eta, "pair": pair, "pair_bound": pair_bound,
            "lattice": lattice, "lattice_bound": lattice_bound, "passed": passed}
