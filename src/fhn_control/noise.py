"""Sampling of the two independent trace-class Wiener processes.

Both covariance operators diagonalize on the shared cosine basis, so an
increment over one time step is a truncated Karhunen-Loeve sum: draw one
standard Gaussian per retained mode, scale by sqrt(eigenvalue * dt), and
synthesize on the grid.

Streams are counter-based: the generator for a given (seed, path, step)
is derived from that triple alone, so Monte Carlo fan-out order never
changes the sampled increments, and `(seed, path)` is all a trajectory
needs to keep to re-derive its noise with `sample_path`.  This module is
the only one that opens streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError
from .grid import Field, Grid, StateX, eigenmode_matrix, mode_coefficients, synthesize

if TYPE_CHECKING:
    from .forward import TimeGrid


@dataclass(frozen=True)
class SpectralCovariance:
    """Truncated eigenvalue sequences of (Q1, Q2) on the cosine basis."""

    K: int
    lam1: tuple
    lam2: tuple

    def __post_init__(self):
        if self.K < 1:
            raise ConfigurationError(f"truncation K must be >= 1, got {self.K}")
        if len(self.lam1) != self.K or len(self.lam2) != self.K:
            raise ConfigurationError("eigenvalue sequences must have length K")
        if any(l < 0 for l in self.lam1) or any(l < 0 for l in self.lam2):
            raise ConfigurationError("covariance eigenvalues must be nonnegative")

    @staticmethod
    def power_spectrum(K: int = 32, sigma1: float = 0.1, sigma2: float = 0.1) -> "SpectralCovariance":
        """Default summable spectrum lam_k = sigma^2 * k^-2."""
        k = np.arange(1, K + 1, dtype=float)
        return SpectralCovariance(
            K=K,
            lam1=tuple(sigma1**2 / k**2),
            lam2=tuple(sigma2**2 / k**2),
        )

    @staticmethod
    def zero(K: int = 1) -> "SpectralCovariance":
        return SpectralCovariance(K=K, lam1=(0.0,) * K, lam2=(0.0,) * K)

    def is_zero(self) -> bool:
        return all(l == 0.0 for l in self.lam1) and all(l == 0.0 for l in self.lam2)

    @cached_property
    def sqrt_lam(self) -> tuple:
        """(sqrt(lam1), sqrt(lam2)) as read-only arrays, built once per
        covariance rather than once per sampled step."""
        roots = (np.sqrt(np.asarray(self.lam1)), np.sqrt(np.asarray(self.lam2)))
        for r in roots:
            r.flags.writeable = False
        return roots


@dataclass
class WienerIncrement:
    """Increments of the two driving noises over one time step."""

    dbeta1: Field
    dbeta2: Field

    @staticmethod
    def zero(grid: Grid) -> "WienerIncrement":
        return WienerIncrement(grid.zeros(), grid.zeros())


def trace_q(cov: SpectralCovariance, which: int) -> float:
    """Partial trace of Q_which over the retained modes."""
    if which not in (1, 2):
        raise ConfigurationError(f"which must be 1 or 2, got {which}")
    lam = cov.lam1 if which == 1 else cov.lam2
    return float(sum(lam))


def increment_stream(seed: int, path: int, step: int) -> np.random.Generator:
    """Deterministic per-(path, step) random stream."""
    return np.random.default_rng([seed, path, step])


def sample_increment(
    cov: SpectralCovariance,
    grid: Grid,
    dt: float,
    stream: np.random.Generator,
) -> WienerIncrement:
    """Draw one Karhunen-Loeve increment pair with variance dt per mode.

    dt = 0 is accepted as a boundary case and returns zero fields (the
    stream is still consumed, keeping draw counts aligned).
    """
    if dt < 0:
        raise ConfigurationError(f"dt must be nonnegative, got {dt}")
    xi = stream.standard_normal((2, cov.K))
    if dt == 0.0:
        return WienerIncrement.zero(grid)
    scale = np.sqrt(dt)
    sqrt1, sqrt2 = cov.sqrt_lam
    c1 = sqrt1 * xi[0] * scale
    c2 = sqrt2 * xi[1] * scale
    E = eigenmode_matrix(grid, cov.K)
    return WienerIncrement(
        dbeta1=(E @ c1).reshape(grid.shape),
        dbeta2=(E @ c2).reshape(grid.shape),
    )


def sample_path(
    cov: SpectralCovariance, grid: Grid, timegrid: TimeGrid, seed: int, path: int
) -> WienerIncrement:
    """Increments of one path over every step, as (N,) + grid.shape arrays.

    Step n draws from `increment_stream(seed, path, n)`, so the result
    depends on (seed, path) alone and equals the step-by-step draws.
    """
    steps = [
        sample_increment(cov, grid, timegrid.dt, increment_stream(seed, path, n))
        for n in range(timegrid.N)
    ]
    return WienerIncrement(
        np.stack([dW.dbeta1 for dW in steps]), np.stack([dW.dbeta2 for dW in steps])
    )


def sqrt_q_apply(cov: SpectralCovariance, grid: Grid, X: StateX) -> StateX:
    """Component-wise spectral multiplier by sqrt(lambda_k).

    Content beyond the truncation is discarded, consistent with the
    truncated covariance.
    """
    sqrt1, sqrt2 = cov.sqrt_lam
    c_v = mode_coefficients(grid, cov.K, X.v) * sqrt1
    c_w = mode_coefficients(grid, cov.K, X.w) * sqrt2
    return StateX(synthesize(grid, cov.K, c_v), synthesize(grid, cov.K, c_w))
