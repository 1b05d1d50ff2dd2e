"""Seeded Monte Carlo estimation of the decoding-failure probability, plus
an exact exhaustive oracle for tiny instances.

Reproducibility scheme: every trial owns a fixed, disjoint window of a
Philox counter-based stream keyed by the master seed.  Trial t reads its
uniforms from counter blocks [t*S, (t+1)*S), where S depends only on the
network dimensions, so the estimate is identical no matter how trials are
batched or distributed across workers.  Within a trial the draw order is:
M*N coefficient uniforms (row-major), then M delivery uniforms.  The
Philox key is ``[seed, 0]`` as uint64 and S = ceil((M*N + M) / 4), since
each counter block yields four doubles.  ``tests/support.py`` replays this
contract one trial at a time, as the reference the batched estimator must
match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bounds import NetworkParams
from .fields import entry_dtype, make_field
from .linalg import rank_batch

_MASK64 = (1 << 64) - 1

STATE_SPACE_LIMIT = 10**8

# Matrices per rank_batch call in the oracle; bigger chunks buy speed with peak memory.
_ORACLE_CHUNK = 1024

# Default trials per simulator batch.  Larger batches measured 10-45% slower
# on the figure presets; concurrent callers split it, so that the trials in
# flight, and with them peak memory, stay at this many.
BATCH_TRIALS = 4096


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
    ``tests/support.py`` bit for bit."""
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


def _trial_stride(params: NetworkParams) -> int:
    # counter blocks per trial window; each block yields 4 doubles
    need = params.n_relays * params.n_sources + params.n_relays
    return -(-need // 4)


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a valid master seed, 0 <= seed < 2^64."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")


def estimate_pfail(params: NetworkParams, trials: int, seed: int = 0,
                   batch_size: int = BATCH_TRIALS) -> SimEstimate:
    """Estimate the failure probability from ``trials`` independent draws.

    Deterministic for fixed (params, trials, seed) regardless of
    ``batch_size``: each trial consumes exactly the uniforms of its own
    substream.  All M relays draw their N coefficients (a relay that heard
    nothing still sends an all-zero row), then each row survives the
    relay-to-destination link with probability 1 - eps_rd.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    check_seed(seed)
    f = make_field(params.q)
    m, n = params.n_relays, params.n_sources
    need = m * n + m
    stride = _trial_stride(params)
    # as a list, seeds above 2^63 would be rounded through float64
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    failures = 0
    for start in range(0, trials, batch_size):
        b = min(batch_size, trials - start)
        # whole trial windows, so the next batch starts at block (start + b) * stride
        u = gen.random(b * stride * 4).reshape(b, stride * 4)
        coeffs = _coefficients_from_uniform(u[:, :m * n], params.eps_sr, params.q)
        coeffs = coeffs.reshape(b, m, n)
        keep = u[:, m * n:need] < (1.0 - params.eps_rd)
        coeffs *= keep[:, :, None].astype(coeffs.dtype)
        viable = keep.sum(axis=1) >= n
        failures += int(b - viable.sum())
        if viable.any():
            ranks = rank_batch(f, coeffs[viable], target=n)
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
        ranks = rank_batch(f, ents.reshape(len(ents), rows, cols), target=cols)
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
    state_count = q ** (m * n) * 2**m
    if state_count > STATE_SPACE_LIMIT:
        raise StateSpaceExceeded(
            f"state space {state_count} exceeds the oracle guard {STATE_SPACE_LIMIT}")
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
