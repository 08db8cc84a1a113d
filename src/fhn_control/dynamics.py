"""Reaction terms, the coupled linear operator, and their derivatives.

The drift splits as A + F: A carries the Laplacian and the linear
voltage/recovery coupling, F carries the cubic ionic current plus the
external forcing.  F and DF act on the voltage only, so `f_apply` and
`df_apply` take and return voltage fields.  The one-sided Lipschitz
constant of F is computed analytically from the cubic's roots;
`one_sided_margin` checks it by sampling.
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


#: Standard deviation of the random states `one_sided_margin` samples.
MARGIN_SAMPLE_AMPLITUDE = 2.0

#: Batch bounds of `one_sided_margin`: at most 5,000 fields and 320,000
#: node values, so each batch array holds at most ~2.6 MB whatever the grid.
MARGIN_BATCH_FIELDS = 5000
MARGIN_BATCH_VALUES = 320_000


def one_sided_margin(
    params: FhnParams, grid: Grid, samples: int, stream: np.random.Generator
) -> dict:
    """Sampled supremum of <F(x)-F(y), x-y>_H / |x-y|_H^2.

    Returns the sampled margin together with the analytic constant; the
    margin never exceeds eta up to roundoff.
    """
    if samples < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {samples}")
    worst = -np.inf
    batch = max(1, min(samples, MARGIN_BATCH_FIELDS, MARGIN_BATCH_VALUES // grid.num_nodes))
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        shape = (m,) + grid.shape
        vx = MARGIN_SAMPLE_AMPLITUDE * stream.standard_normal(shape)
        wx = MARGIN_SAMPLE_AMPLITUDE * stream.standard_normal(shape)
        vy = MARGIN_SAMPLE_AMPLITUDE * stream.standard_normal(shape)
        wy = MARGIN_SAMPLE_AMPLITUDE * stream.standard_normal(shape)
        dv = vx - vy
        dw = wx - wy
        # F acts on the voltage only, so the recovery difference drops out
        dfv = f_apply(params, grid, vx) - f_apply(params, grid, vy)
        num = params.gamma * inner_l2(grid, dfv, dv)
        denom = norm_h_sq(grid, params.gamma, StateX(dv, dw))
        valid = denom > 0
        if np.any(valid):
            # np.maximum keeps a NaN ratio, which max would drop
            worst = float(np.maximum(worst, np.max(num[valid] / denom[valid])))
        done += m
    return {"sampled_margin": worst, "eta": params.eta}
