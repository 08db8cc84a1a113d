"""Spatial discretization: uniform Neumann grids, weighted inner products,
and the shared cosine eigenbasis.

Conventions
-----------
A field is a plain ``numpy`` array of shape ``grid.shape`` (one value per
node).  The product state ``X = (v, w)`` pairs two such fields; with a
leading axis on both it is a path or an ensemble, and ``X[n]`` is its
node n.  Noise increments and tangent paths are such pairs too.  The norms
and the Helmholtz solve act on the trailing grid axes and treat leading
axes as a batch (time nodes, ensemble paths).  All L2
pairings use trapezoid quadrature, whose end-node half-weights make the
reflected-ghost Laplacian stencil exactly self-adjoint; the duality and
gradient machinery downstream relies on that exactness.

The grid covers ``[0, ell]^d`` with ``n`` nodes per axis, so the cosine
modes ``cos(k pi xi / ell)`` sampled at the nodes are exact eigenvectors
of the discrete Laplacian and are exactly orthogonal under the trapezoid
weights for per-axis frequencies up to ``n - 2``.

The same reflected Laplacian is diagonal on the full DCT-I basis, so
`helmholtz_solve` inverts ``c*I - dt*Lap_h`` exactly by transforming,
dividing by the symbol and transforming back.  Up to `DENSE_MAX_N` nodes
per axis the transforms are cached read-only matrices built from numpy
cosines; above it they are real FFTs of the even extension, from
``numpy.fft``, which numpy loads only on that branch.  numpy is the only
runtime dependency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ContractViolation

Field = np.ndarray


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on ``[0, ell]^d`` with Neumann boundaries."""

    d: int
    n: int
    ell: float = 1.0

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 3:
            raise ConfigurationError(f"need at least 3 nodes per axis, got {self.n}")
        if not 0 < self.ell < np.inf:  # written so that NaN fails too
            raise ConfigurationError(f"edge length must be positive and finite, got {self.ell}")

    @property
    def h(self) -> float:
        return self.ell / (self.n - 1)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def num_nodes(self) -> int:
        return self.n**self.d

    def axis_coords(self) -> np.ndarray:
        return np.linspace(0.0, self.ell, self.n)

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, one per node; sums to ``ell**d``."""
        return _weights(self)

    def zeros(self) -> Field:
        return np.zeros(self.shape)

    def constant(self, c: float) -> Field:
        return np.full(self.shape, float(c))

    def max_mode_freq(self) -> int:
        # per-axis cosine frequencies above n - 2 lose exact trapezoid
        # orthogonality (Nyquist), so the usable truncation stops there
        return self.n - 2

    @property
    def exact_truncation(self) -> int:
        """Global modes the grid holds exactly, (n - 1)**d: every product of
        per-axis frequencies 0..max_mode_freq()."""
        return (self.max_mode_freq() + 1) ** self.d


@dataclass
class StateX:
    """Product state (v, w): voltage and recovery fields on one grid."""

    v: Field
    w: Field

    def __post_init__(self):
        if self.v.shape != self.w.shape:
            raise ContractViolation(
                f"v and w live on different grids: {self.v.shape} vs {self.w.shape}"
            )

    def __add__(self, other: "StateX") -> "StateX":
        return StateX(self.v + other.v, self.w + other.w)

    def __sub__(self, other: "StateX") -> "StateX":
        return StateX(self.v - other.v, self.w - other.w)

    def __mul__(self, c: float) -> "StateX":
        return StateX(c * self.v, c * self.w)

    __rmul__ = __mul__

    def __getitem__(self, index) -> "StateX":
        """Index both fields alike: a node of a path, or a slice of it."""
        return StateX(self.v[index], self.w[index])

    @staticmethod
    def zero(grid: Grid) -> "StateX":
        return StateX(grid.zeros(), grid.zeros())


@lru_cache(maxsize=None)
def _weights(grid: Grid) -> np.ndarray:
    w1 = np.full(grid.n, grid.h)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    w = w1
    for _ in range(grid.d - 1):
        w = np.multiply.outer(w, w1)
    w.flags.writeable = False  # cached: every caller shares this array
    return w


def _check_field(grid: Grid, u: Field) -> None:
    if u.shape != grid.shape:
        raise ContractViolation(f"field shape {u.shape} does not match grid {grid.shape}")


def _check_batch(grid: Grid, u: np.ndarray) -> None:
    """Fields on the trailing grid axes; leading axes are a batch."""
    if u.shape[-grid.d :] != grid.shape:
        raise ContractViolation(f"field shape {u.shape} does not match grid {grid.shape}")


def _sum_fields(grid: Grid, x: np.ndarray):
    """Sum over the trailing grid axes: a float for one field, else an
    array over the leading axes, equal bit for bit to per-field sums.
    `np.add.reduce` is the reduction `np.sum` dispatches to, without its
    Python wrapper."""
    s = np.add.reduce(x, axis=tuple(range(x.ndim - grid.d, x.ndim)))
    return float(s) if s.ndim == 0 else s


def inner_l2(grid: Grid, a: Field, b: Field):
    """Trapezoid L2 pairing of two fields; leading axes broadcast."""
    _check_batch(grid, a)
    _check_batch(grid, b)
    # (weights * a) * b, in one temporary where b broadcasts into it
    t = _weights(grid) * a
    try:
        np.multiply(t, b, out=t)
    except ValueError:  # b has leading axes that a lacks
        t = t * b
    return _sum_fields(grid, t)


def norm_l2_sq(grid: Grid, a: Field):
    return inner_l2(grid, a, a)


def inner_h(grid: Grid, gamma: float, X: StateX, Y: StateX):
    """Weighted product-space pairing: gamma*<v,v'>_2 + <w,w'>_2."""
    if gamma <= 0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    return gamma * inner_l2(grid, X.v, Y.v) + inner_l2(grid, X.w, Y.w)


def norm_h_sq(grid: Grid, gamma: float, X: StateX):
    return inner_h(grid, gamma, X, X)


def grad_norm_sq(grid: Grid, u: Field):
    """Squared L2 norm of the one-sided discrete gradient (link-based);
    leading axes of u are a batch."""
    _check_batch(grid, u)
    h = grid.h
    total = 0.0
    # each link carries measure h * (transverse trapezoid weights)
    w1 = _weights(Grid(1, grid.n, grid.ell))
    for axis in range(grid.d):
        diff = np.diff(u, axis=u.ndim - grid.d + axis) / h
        if grid.d == 1:
            total += _sum_fields(grid, diff**2) * h
        else:
            trans = w1[np.newaxis, :] if axis == 0 else w1[:, np.newaxis]
            total += _sum_fields(grid, diff**2 * trans) * h
    return total


def norm_v_sq(grid: Grid, gamma: float, X: StateX):
    """Energy norm: gamma*(|v|_2^2 + |grad v|_2^2) + |w|_2^2."""
    if gamma <= 0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    return gamma * (norm_l2_sq(grid, X.v) + grad_norm_sq(grid, X.v)) + norm_l2_sq(grid, X.w)


def neumann_laplacian(grid: Grid, u: Field) -> Field:
    """Second-difference Laplacian with ghost-node reflection.

    The reflection u[-1] = u[1] enforces a zero normal derivative and
    keeps the stencil symmetric under the trapezoid weights.
    """
    _check_field(grid, u)
    h2 = grid.h**2
    padded = np.pad(u, 1, mode="reflect")
    if grid.d == 1:
        out = (padded[2:] - 2.0 * u + padded[:-2]) / h2
    else:
        out = (padded[2:, 1:-1] - 2.0 * u + padded[:-2, 1:-1]) / h2
        out += (padded[1:-1, 2:] - 2.0 * u + padded[1:-1, :-2]) / h2
    return out


def mode_frequencies(grid: Grid, K: int) -> list:
    """Per-axis cosine frequencies of the first K global modes.

    Modes are ordered by total frequency, then lexicographically, so the
    first mode is the constant.  Raises if K exceeds the exactly
    orthogonal truncation of the grid.
    """
    if K < 1 or K > grid.exact_truncation:
        raise ContractViolation(
            f"truncation K={K} outside valid range [1, {grid.exact_truncation}] "
            f"for n={grid.n}, d={grid.d}"
        )

    if grid.d == 1:
        return [(k,) for k in range(K)]
    kmax = grid.max_mode_freq()
    # generate totals s in increasing order and stop after K modes, instead
    # of sorting all (kmax + 1)**2 pairs for every mode looked up
    pairs = (
        (k, s - k) for s in range(2 * kmax + 1) for k in range(max(0, s - kmax), min(s, kmax) + 1)
    )
    return list(itertools.islice(pairs, K))


def _axis_mode(grid: Grid, k: int) -> np.ndarray:
    xi = grid.axis_coords()
    if k == 0:
        return np.full(grid.n, 1.0 / np.sqrt(grid.ell))
    return np.sqrt(2.0 / grid.ell) * np.cos(k * np.pi * xi / grid.ell)


def neumann_eigenmode(grid: Grid, k: int) -> Field:
    """k-th L2-normalized cosine eigenmode (1-based; k=1 is constant)."""
    freqs = mode_frequencies(grid, k)
    combo = freqs[k - 1]
    mode = _axis_mode(grid, combo[0])
    for kk in combo[1:]:
        mode = np.multiply.outer(mode, _axis_mode(grid, kk))
    return mode


def mode_eigenvalue(grid: Grid, k: int) -> float:
    """Discrete Laplacian eigenvalue of global mode k (1-based): the entry
    of the DCT-I symbol that `helmholtz_solve` divides by."""
    return float(_dct_symbol(grid)[mode_frequencies(grid, k)[k - 1]])


@lru_cache(maxsize=None)
def eigenmode_matrix(grid: Grid, K: int) -> np.ndarray:
    """Columns are the first K eigenmodes, flattened; shape (num_nodes, K)."""
    E = np.column_stack([neumann_eigenmode(grid, k).ravel() for k in range(1, K + 1)])
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def _dct_symbol(grid: Grid) -> np.ndarray:
    """Laplacian eigenvalues over the full DCT-I spectrum of the grid."""
    h = grid.h
    mu1 = -(2.0 / h**2) * (1.0 - np.cos(np.arange(grid.n) * np.pi * h / grid.ell))
    mu = mu1
    for _ in range(grid.d - 1):
        mu = np.add.outer(mu, mu1)
    mu.flags.writeable = False
    return mu


#: Nodes per axis up to which `helmholtz_solve` applies cached dense DCT-I
#: matrices; above it, the FFT transform `_dct1_fft`.  Measured with one
#: BLAS thread (best of 3 x 5 runs; dense / FFT): at n = 64 the dense solve
#: takes 12 / 34 us for one 1-D field, 41 / 134 us for 50 of them and
#: 63 / 205 us for one 2-D field.  At n = 129 it still wins for one field
#: (12 / 29 us in 1-D), is about even for one 2-D field (521 / 480 us),
#: and loses for a 50-field 1-D batch (167 / 128 us); at n = 257 a 50-field
#: 1-D batch takes 552 / 237 us.  The FFT also slows down where 2(n-1) has
#: a large prime factor: at n = 128 (2(n-1) = 2 * 127) a 50-field 1-D batch
#: takes 198 / 1053 us.  The choice depends on n alone, never on the batch
#: size, so an ensemble path is solved by the same arithmetic whatever the
#: ensemble it belongs to.
DENSE_MAX_N = 128

#: Manifest tag of the solve arithmetic; bump it when artifact bytes move.
HELMHOLTZ_SOLVER = "dense-rfft-dct1-v2"


@lru_cache(maxsize=None)
def _dct1_matrix(grid: Grid) -> np.ndarray:
    """Unnormalized DCT-I along one axis (the type-1 DCT of FFTPACK):
    entry (k, j) is cos(pi k j / (n - 1)), doubled on interior columns.
    Applied twice it gives 2 (n - 1) times the identity."""
    n = grid.n
    k = np.arange(n)
    # reduce k*j modulo the period 2(n-1) so every cosine argument is in
    # [0, 2 pi) and loses no digits to a large argument
    D = np.cos(np.pi * (np.outer(k, k) % (2 * (n - 1))) / (n - 1))
    D[:, 1:-1] *= 2.0
    D.flags.writeable = False
    return D


@lru_cache(maxsize=32)
def _inverse_symbol(grid: Grid, c: float, dt: float) -> np.ndarray:
    """Scaled inverse symbol s = 1 / ((c - dt*mu) * (2(n-1))^d) of
    (c*I - dt*Lap_h): the spectral divide of the solve with the DCT-I
    normalization folded in, shared by the dense and FFT transforms."""
    s = 1.0 / ((c - dt * _dct_symbol(grid)) * (2.0 * (grid.n - 1)) ** grid.d)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=32)
def _dense_solve_1d(grid: Grid, c: float, dt: float) -> np.ndarray:
    """Folded n x n solve matrix D diag(s) D of the 1-D dense solve."""
    D = _dct1_matrix(grid)
    A = (D * _inverse_symbol(grid, c, dt)) @ D
    A.flags.writeable = False
    return A


def _dct1_fft(x: np.ndarray, d: int) -> np.ndarray:
    """Unnormalized DCT-I over the trailing d axes, as `_dct1_matrix`
    applied along each: the real FFT of the even extension, one axis at a
    time.  Leading axes are a batch."""
    for axis in range(x.ndim - d, x.ndim):
        interior = (slice(None),) * axis + (slice(-2, 0, -1),)
        x = np.fft.rfft(np.concatenate([x, x[interior]], axis=axis), axis=axis).real
    return x


def helmholtz_solve(grid: Grid, c: float, dt: float, rhs: Field) -> Field:
    """Solve (c*I - dt*Lap_h) x = rhs exactly on the DCT-I eigenbasis.

    The reflected stencil diagonalizes on the DCT-I basis, so this is the
    exact inverse of the symmetric positive definite operator (c > 0,
    dt >= 0), up to roundoff.  Leading axes of ``rhs`` are treated as a
    batch; the solve acts on the trailing grid axes, and each batch entry
    equals the one-field solve bit for bit.

    Up to `DENSE_MAX_N` nodes per axis the transforms are cached dense
    matrices applied with stacked ``np.matmul``; above it they are real
    FFTs of the even extension (`_dct1_fft`).  Both scale by the same
    cached inverse symbol, and ``numpy.fft`` is loaded only above it.
    """
    _check_batch(grid, rhs)
    if c <= 0:
        raise ConfigurationError(f"Helmholtz coefficient must be positive, got {c}")
    # constants are the zero mode, solved by x0 / c exactly; only the rest
    # goes through the transforms, so a constant rhs gives an exactly
    # constant solution (a dense product alone leaves ~1e-13 ripples)
    x0 = rhs[(...,) + (slice(0, 1),) * grid.d]
    r = rhs - x0
    if grid.n > DENSE_MAX_N:
        y = _dct1_fft(r, grid.d)
        y *= _inverse_symbol(grid, c, dt)
        y = _dct1_fft(y, grid.d)
    elif grid.d == 1:
        y = np.matmul(_dense_solve_1d(grid, c, dt), r[..., None])[..., 0]
    else:
        D = _dct1_matrix(grid)
        y = D @ r @ D.T
        y *= _inverse_symbol(grid, c, dt)
        y = D @ y @ D.T
    y += x0 / c
    if not np.isfinite(y).all():
        raise FloatingPointError("Helmholtz solve produced non-finite values")
    return y
