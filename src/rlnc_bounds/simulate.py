"""Seeded Monte Carlo estimation of the decoding-failure probability, plus
an exact exhaustive oracle for tiny instances.

Reproducibility scheme: every trial owns a fixed, disjoint window of a
Philox4x64-10 stream keyed by the master seed.  Trial t reads its
uniforms from blocks [t*S, (t+1)*S), where S depends only on the network
dimensions, so the estimate is identical no matter how trials are batched
or distributed across workers; numpy increments the counter before each
block, so block k is the Philox output at counter k + 1.  Within a trial
the draw order is: M*N coefficient uniforms (row-major), then M delivery
uniforms.  The key is ``[seed, 0]`` as uint64 and S = ceil((M*N + M) / 4),
since a block yields four words x, each the double (x >> 11) * 2^-53.
``tests/support.py`` replays this contract one trial at a time, as the
reference the batched estimator must match.

Since a trial's window depends only on (N, M) and the seed, the points of a
sweep that share (N, M) read the same uniforms.  A :class:`TrialDraws` holds
one such group: each batch is drawn once, and every point of the group maps
its own coefficients and delivery mask from it.
The contract above is unchanged, so sharing cannot move a failure count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bounds import NetworkParams
from .fields import entry_dtype, make_field
from .linalg import rank_batch

_MASK64 = (1 << 64) - 1

STATE_SPACE_LIMIT = 10**8

# Matrices per rank_batch call in the oracle; bigger chunks buy speed with peak
# memory.  On the benchmark's four exact instances 1024 took 41-71 ms, 2048
# 31-47 ms and 4096 27-40 ms, but 4096 raised a bounds-and-oracle run's peak
# RSS by 0.1 MB, and 16384 by 1 MB.
_ORACLE_CHUNK = 2048

# Default trials per simulator batch.  Larger batches measured 10-45% slower
# on the figure presets; concurrent callers split it, so that the trials in
# flight, and with them peak memory, stay at this many.
BATCH_TRIALS = 4096

# Most uniforms one simulator batch draws (64 MiB of float64): wide trial
# windows get fewer trials a batch, so that a batch's memory stays bounded.
# The figure presets draw at most 1,088 uniforms a trial, so they never reach it.
# It also bounds what a TrialDraws group keeps for its later points.
_BATCH_UNIFORMS = 2**23


class StateSpaceExceeded(ValueError):
    """The exact oracle refuses instances whose configuration space is huge."""


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo failure-rate estimate with a 99.99% (+/-4 sigma) interval."""

    params: NetworkParams
    trials: int
    failures: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int


@dataclass(frozen=True)
class ExactResult:
    """Exact failure probability from total enumeration of the model."""

    params: NetworkParams
    p_fail: float
    state_count: int


def _coefficients_from_uniform(u: np.ndarray, eps_sr: float, q: int) -> np.ndarray:
    """Map uniforms to coding coefficients: zero below eps_sr, otherwise
    min(q - 1, 1 + trunc((u - eps_sr) * ((q - 1) / (1 - eps_sr)))), in that
    operation order, so that it matches the scalar reference in
    ``tests/support.py`` bit for bit.

    ``u`` is only read: it is shared by every point of a :class:`TrialDraws`
    group, which map it with their own eps_sr and q."""
    if eps_sr >= 1.0:
        return np.zeros(u.shape, dtype=entry_dtype(q))
    if q == 2:
        return (u >= eps_sr).view(np.uint8)
    x = u - eps_sr
    x *= (q - 1) / (1.0 - eps_sr)
    # min(1 + trunc(x), q - 1) == 1 + trunc(min(x, q - 2)) for x >= 0; the
    # clip at 0 only touches entries the mask zeroes
    np.clip(x, 0, q - 2, out=x)
    out = x.astype(entry_dtype(q))
    out += 1
    out *= u >= eps_sr
    return out


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a valid master seed, an int in [0, 2^64)."""
    if type(seed) is not int or not 0 <= seed <= _MASK64:  # bool is an int subclass
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")


class TrialDraws:
    """The Philox uniforms of one (N, M, trials, seed) group of points, drawn
    ``batch_size`` trials at a time and shared by the group's ``readers``
    points.

    A batch is drawn on its first read, from a Philox advanced to the batch's
    first counter block, and dropped from the group once all ``readers``
    points have read it.  Only the batches that lie within the first
    BATCH_TRIALS trials and within _BATCH_UNIFORMS uniforms are shared; each
    read of a later batch draws it afresh.  Reads may come from several
    threads at once: the first reader of a shared batch draws it under the
    group's lock.
    """

    def __init__(self, n_sources: int, n_relays: int, trials: int, seed: int = 0,
                 batch_size: int = BATCH_TRIALS, readers: int = 1):
        if type(trials) is not int or trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
        for name, value in (("batch_size", batch_size), ("readers", readers)):
            if type(value) is not int or value < 1:  # bool is an int subclass
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        check_seed(seed)
        self.key = (n_sources, n_relays, trials, seed)
        self._stride = -(-(n_relays * n_sources + n_relays) // 4)
        # applied here, not per point, so that every reader sees the same batches
        self.batch = min(batch_size, max(1, _BATCH_UNIFORMS // (4 * self._stride)))
        self._shared_trials = min(BATCH_TRIALS, _BATCH_UNIFORMS // (4 * self._stride))
        self._readers = readers
        self._lock = threading.Lock()
        self._open: dict[int, list] = {}  # start -> [reads still awaited, uniforms]

    def read(self, start: int) -> np.ndarray:
        """Return the uniforms of the batch whose first trial is ``start``,
        as (trials, 4 * stride)."""
        b = min(self.batch, self.key[2] - start)
        if start + b > self._shared_trials:
            return self._draw(start, b)
        with self._lock:
            if start not in self._open:
                self._open[start] = [self._readers, self._draw(start, b)]
            entry = self._open[start]
            entry[0] -= 1
            if not entry[0]:
                del self._open[start]
        return entry[1]

    def _draw(self, start: int, b: int) -> np.ndarray:
        # as a list, seeds above 2^63 would be rounded through float64
        philox = np.random.Philox(key=np.array([self.key[3], 0], dtype=np.uint64))
        philox.advance(start * self._stride)
        # whole trial windows: 4 doubles a counter block
        return np.random.Generator(philox).random(b * self._stride * 4).reshape(
            b, self._stride * 4)


def estimate_pfail(params: NetworkParams, trials: int, seed: int = 0,
                   draws: TrialDraws | None = None) -> SimEstimate:
    """Estimate the failure probability from ``trials`` independent draws.

    Deterministic for fixed (params, trials, seed) regardless of the batch
    size: each trial consumes exactly the uniforms of its own substream.
    All M relays draw their N coefficients (a relay that heard nothing
    still sends an all-zero row), then each row survives the
    relay-to-destination link with probability 1 - eps_rd.  ``draws``, a
    group built for this (N, M, trials, seed), lets the points of a sweep
    share their uniforms; without it the point draws its own.
    """
    m, n = params.n_relays, params.n_sources
    if draws is None:
        draws = TrialDraws(n, m, trials, seed)
    elif draws.key != (n, m, trials, seed):
        raise ValueError(f"draws made for (N, M, trials, seed) = {draws.key}, "
                         f"not {(n, m, trials, seed)}")
    f = make_field(params.q)
    failures = 0
    for start in range(0, trials, draws.batch):
        u = draws.read(start)
        b = len(u)
        coeffs = _coefficients_from_uniform(u[:, :m * n], params.eps_sr, params.q)
        keep = u[:, m * n:m * n + m] < (1.0 - params.eps_rd)
        del u  # so that the group's last reader frees the batch before ranking it
        coeffs = coeffs.reshape(b, m, n)
        coeffs *= keep[:, :, None].astype(coeffs.dtype)
        viable = keep.sum(axis=1) >= n
        failures += int(b - viable.sum())
        if viable.any():
            ranks = rank_batch(f, coeffs[viable])
            failures += int((ranks < n).sum())
    est = failures / trials
    sigma = math.sqrt(est * (1.0 - est) / trials)
    return SimEstimate(params=params, trials=trials, failures=failures, estimate=est,
                       ci_low=max(0.0, est - 4.0 * sigma),
                       ci_high=min(1.0, est + 4.0 * sigma), seed=seed)


@lru_cache(maxsize=None)
def _singular_zero_counts(q: int, cols: int, rows: int) -> tuple[int, ...]:
    """Histogram over zero-entry counts of the rank-deficient rows x cols
    matrices over F_q, by full enumeration."""
    f = make_field(q)
    size = rows * cols
    hist = np.zeros(size + 1, dtype=np.int64)
    total = q**size
    for start in range(0, total, _ORACLE_CHUNK):
        index = np.arange(start, min(start + _ORACLE_CHUNK, total), dtype=np.int64)
        ents = np.empty((index.size, size), dtype=entry_dtype(q))
        for k in range(size):  # base-q digits of the matrix index
            index, ents[:, k] = np.divmod(index, q)
        # the chunk length, not -1, so that rows = 0 still reshapes
        ranks = rank_batch(f, ents.reshape(len(ents), rows, cols))
        zeros = (ents[ranks < cols] == 0).sum(axis=1)
        hist += np.bincount(zeros, minlength=size + 1)
    return tuple(int(c) for c in hist)


def exact_pfail(params: NetworkParams) -> ExactResult:
    """Exact failure probability by enumerating the whole model.

    Sums the exact rational mass of every (coefficient matrix, erasure
    pattern) configuration whose delivered rows have deficient rank.
    Patterns with the same number of delivered rows share one matrix
    enumeration; the erasure probabilities enter as exact fractions of the
    given floats, so the result is exact for the parameters as stored.
    """
    n, m, q = params.n_sources, params.n_relays, params.q
    # judged by its logarithm first, so that a refused instance never builds
    # the integer, which has m*n*log2(q) bits; near the limit, exactly
    log2_count = m * n * math.log2(q) + m
    if (log2_count > math.log2(STATE_SPACE_LIMIT) + 1
            or q ** (m * n) * 2**m > STATE_SPACE_LIMIT):
        raise StateSpaceExceeded(
            f"state space 2^{log2_count:.2f} exceeds the oracle guard {STATE_SPACE_LIMIT} "
            f"(2^{math.log2(STATE_SPACE_LIMIT):.2f})")
    state_count = q ** (m * n) * 2**m
    esr = Fraction(params.eps_sr)
    erd = Fraction(params.eps_rd)
    nonzero_mass = (1 - esr) / (q - 1)
    total = Fraction(0)
    for r in range(m + 1):
        hist = _singular_zero_counts(q, n, r)
        fail_r = sum(cnt * esr**z * nonzero_mass ** (r * n - z)
                     for z, cnt in enumerate(hist) if cnt)
        total += math.comb(m, r) * (1 - erd) ** r * erd ** (m - r) * fail_r
    return ExactResult(params=params, p_fail=float(total), state_count=state_count)
