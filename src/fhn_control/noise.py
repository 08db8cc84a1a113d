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
the only one that opens the noise-increment streams.  A path's draw is two
stages, `path_normals` (the standard normals of its per-step streams) and
`synthesize` (the increments they scale to, written into given arrays), so
a caller that integrates the same paths again can hold the normals and
synthesize them anew.

Each stream is still `np.random.default_rng([seed, path, step])`, bit for
bit.  Only its seeding is computed differently: numpy's `SeedSequence`
hash, run in uint32 array arithmetic for a block of `STREAM_BLOCK` steps
at a time, hands each step's PCG64 its seed words directly.  The block
size changes no sampled value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
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
        # written so that NaN fails too
        if not all(0 <= l < np.inf for lam in (self.lam1, self.lam2) for l in lam):
            raise ConfigurationError("covariance eigenvalues must be nonnegative and finite")

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


#: Steps whose stream seeds are hashed together.  Any size gives the same
#: bits; a power of two never splits a block at a word boundary 2**32k.
STREAM_BLOCK = 256

_MASK32 = 0xFFFFFFFF
# O'Neill's seed_seq_fe hash constants, as numpy's SeedSequence uses them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)


def _words(n: int) -> list:
    """The uint32 words SeedSequence reads from a nonnegative int, low first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_state(entropy: list) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for many rows at once.

    `entropy` holds one (rows,) uint32 array per entropy word.  This is
    numpy's loop, word by word: mix the words into a 4-word pool, then
    draw 8 words from it.  The hash constant evolves independently of the
    data, so it stays a Python int and every step is one array operation."""
    hash_const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # drawing a word is a hashmix of the next pool word under the B constants
    hash_const, mult = _INIT_B, _MULT_B
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    # little-endian pairs of uint32 words make the four uint64 words
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=1)
def _block_states(seed: int, path: int, start: int, stop: int) -> np.ndarray:
    """Read-only (stop - start, 4) PCG64 seed words of steps start..stop-1.

    Steps with the same number of words are hashed together; their words
    are those of the first such step plus the offset, carried."""
    head = _words(seed) + _words(path)
    states = np.empty((stop - start, 4), np.uint64)
    first = start
    while first < stop:
        first_words = _words(first)
        last = min(stop, 1 << 32 * len(first_words))
        entropy = [np.full(last - first, word, np.uint32) for word in head]
        carry = np.arange(last - first, dtype=np.uint64)
        for word in first_words:
            total = carry + np.uint64(word)
            entropy.append((total & np.uint64(_MASK32)).astype(np.uint32))
            carry = total >> np.uint64(32)
        states[first - start : last - start] = _seed_state(entropy)
        first = last
    states.flags.writeable = False
    return states


@cache
def _stream_from_state():
    """`state -> Generator(PCG64)` over precomputed seed words.  Built on
    first use, so that importing this module loads no `numpy.random`."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords holds PCG64's four uint64 seed words only")
            return self.state

    return lambda state: Generator(PCG64(SeedWords(state)))


def increment_stream(seed: int, path: int, step: int) -> np.random.Generator:
    """Deterministic per-(path, step) random stream.

    Exactly `np.random.default_rng([seed, path, step])`: the same hash
    seeds the same PCG64, with the seeds of `STREAM_BLOCK` steps hashed
    together and the current block cached.  Each argument is a
    nonnegative integer (`ValueError` otherwise, as from `default_rng`)."""
    seed, path, step = operator.index(seed), operator.index(path), operator.index(step)
    if min(seed, path, step) < 0:
        raise ValueError(f"stream key must be nonnegative, got {(seed, path, step)}")
    start = step - step % STREAM_BLOCK
    state = _block_states(seed, path, start, start + STREAM_BLOCK)[step - start]
    return _stream_from_state()(state)


def synthesize(cov: SpectralCovariance, grid: Grid, dt: float, xi: np.ndarray, out: StateX) -> StateX:
    """Increments from standard normals xi of shape (..., 2, K), written
    into `out`, fields of shape xi.shape[:-2] + grid.shape such as the
    column of a staging array, and returned.

    Each component is one stacked product of the eigenmode matrix with a
    coefficient column per leading index, so every step is synthesized
    by the same arithmetic as a single step (one GEMM over all steps
    would not be: its rows differ from the one-step product in the last
    bit).  Both fields are flattened as views first, so a field that
    cannot be (a transposed one, say) raises before anything is written."""
    E = eigenmode_matrix(grid, cov.K)
    views = [out.v.view(), out.w.view()]
    for view in views:
        view.shape = xi.shape[:-2] + (E.shape[0], 1)
    # one coefficient temporary for both components: one each read 1,400
    # more minor page faults on a 50-path simulate (n = 64, N = 500)
    c = np.empty_like(xi[..., 0, :])
    for k, view in enumerate(views):
        np.multiply(cov.sqrt_lam[k], xi[..., k, :], out=c)
        c *= np.sqrt(dt)
        np.matmul(E, c[..., None], out=view)
    return out


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
    out = StateX.zero(grid)
    return out if dt == 0.0 else synthesize(cov, grid, dt, xi, out)


def path_normals(cov: SpectralCovariance, timegrid: TimeGrid, seed: int, path: int) -> np.ndarray:
    """The (N, 2, K) standard normals of one path: step n draws its row
    from `increment_stream(seed, path, n)`."""
    xi = np.empty((timegrid.N, 2, cov.K))
    for n in range(timegrid.N):
        increment_stream(seed, path, n).standard_normal(out=xi[n])
    return xi


def sample_path(
    cov: SpectralCovariance, grid: Grid, timegrid: TimeGrid, seed: int, path: int
) -> StateX:
    """Increments of one path over every step, as (N,) + grid.shape fields:
    `synthesize` of its `path_normals`.

    The result depends on (seed, path) alone and equals the step-by-step
    `sample_increment` draws bit for bit.
    """
    shape = (timegrid.N,) + grid.shape
    out = StateX(np.empty(shape), np.empty(shape))
    return synthesize(cov, grid, timegrid.dt, path_normals(cov, timegrid, seed, path), out)
