"""Sampling of the two independent trace-class Wiener processes.

Both covariance operators diagonalize on the shared cosine basis, so an
increment over one time step is a truncated Karhunen-Loeve sum: draw one
standard Gaussian per retained mode, scale by sqrt(eigenvalue * dt), and
synthesize on the grid.  An increment (dbeta1, dbeta2) lives on the same
product space as the state, so it is a `StateX`: one field pair for a
step, or fields with a leading step axis for a whole path.

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
from .grid import Grid, StateX, eigenmode_matrix

if TYPE_CHECKING:
    from .forward import TimeGrid


@dataclass(frozen=True)
class SpectralCovariance:
    """Truncated eigenvalue sequences of (Q1, Q2) on the cosine basis."""

    lam1: tuple
    lam2: tuple

    def __post_init__(self):
        if len(self.lam1) == 0 or len(self.lam1) != len(self.lam2):
            raise ConfigurationError("eigenvalue sequences must be nonempty, of one length")
        if any(l < 0 for l in self.lam1) or any(l < 0 for l in self.lam2):
            raise ConfigurationError("covariance eigenvalues must be nonnegative")

    @staticmethod
    def power_spectrum(K: int = 32, sigma1: float = 0.1, sigma2: float = 0.1) -> "SpectralCovariance":
        """Default summable spectrum lam_k = sigma^2 * k^-2."""
        k = np.arange(1, K + 1, dtype=float)
        return SpectralCovariance(tuple(sigma1**2 / k**2), tuple(sigma2**2 / k**2))

    @staticmethod
    def zero(K: int = 1) -> "SpectralCovariance":
        return SpectralCovariance(lam1=(0.0,) * K, lam2=(0.0,) * K)

    @property
    def K(self) -> int:
        """The truncation: the number of retained modes."""
        return len(self.lam1)

    def is_zero(self) -> bool:
        return all(l == 0.0 for l in self.lam1) and all(l == 0.0 for l in self.lam2)

    @cached_property
    def sqrt_lam(self) -> np.ndarray:
        """Rows sqrt(lam1), sqrt(lam2): one read-only (2, K) array, built
        once per covariance rather than once per sampled step."""
        roots = np.sqrt(np.array([self.lam1, self.lam2], dtype=float))
        roots.flags.writeable = False
        return roots


def trace_q(cov: SpectralCovariance, which: int) -> float:
    """Partial trace of Q_which over the retained modes."""
    if which not in (1, 2):
        raise ConfigurationError(f"which must be 1 or 2, got {which}")
    lam = cov.lam1 if which == 1 else cov.lam2
    return float(sum(lam))


def increment_stream(seed: int, path: int, step: int) -> np.random.Generator:
    """Deterministic per-(path, step) random stream."""
    return np.random.default_rng([seed, path, step])


def _synthesize(cov: SpectralCovariance, grid: Grid, dt: float, xi: np.ndarray) -> StateX:
    """Increments from standard normals xi of shape (..., 2, K).

    Each component is one stacked product of the eigenmode matrix with a
    coefficient column per leading index, so every step is synthesized
    by the same arithmetic as a single step (one GEMM over all steps
    would not be: its rows differ from the one-step product in the last
    bit).  Each component lands in its own contiguous array."""
    E = eigenmode_matrix(grid, cov.K)
    c = cov.sqrt_lam * xi * np.sqrt(dt)
    shape = xi.shape[:-2] + grid.shape
    return StateX(
        np.matmul(E, c[..., 0, :, None]).reshape(shape),
        np.matmul(E, c[..., 1, :, None]).reshape(shape),
    )


def sample_increment(
    cov: SpectralCovariance,
    grid: Grid,
    dt: float,
    stream: np.random.Generator,
) -> StateX:
    """Draw one Karhunen-Loeve increment pair with variance dt per mode.

    dt = 0 is accepted as a boundary case and returns zero fields (the
    stream is still consumed, keeping draw counts aligned).
    """
    if dt < 0:
        raise ConfigurationError(f"dt must be nonnegative, got {dt}")
    xi = stream.standard_normal((2, cov.K))
    if dt == 0.0:
        return StateX.zero(grid)
    return _synthesize(cov, grid, dt, xi)


def sample_path(
    cov: SpectralCovariance, grid: Grid, timegrid: TimeGrid, seed: int, path: int
) -> StateX:
    """Increments of one path over every step, as (N,) + grid.shape fields.

    Step n draws from `increment_stream(seed, path, n)`, so the result
    depends on (seed, path) alone and equals the step-by-step
    `sample_increment` draws bit for bit.
    """
    xi = np.empty((timegrid.N, 2, cov.K))
    for n in range(timegrid.N):
        increment_stream(seed, path, n).standard_normal(out=xi[n])
    return _synthesize(cov, grid, timegrid.dt, xi)
