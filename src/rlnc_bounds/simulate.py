"""Seeded Monte Carlo estimation of the decoding-failure probability, plus
an exact oracle for tiny instances.

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

The exact oracle sums over the subspaces V of F_q^N, not over coefficient
matrices.  Delivered rows are i.i.d., a row v having probability
eps_sr^zeros(v) ((1 - eps_sr)/(q - 1))^(N - zeros(v)), so r rows all lie in
V with probability A_V^r, A_V being the mass of V.  Summing the probability
that the rows span exactly W over the W inside V gives A_V^r; Moebius
inversion on the subspace lattice (Stanley, Enumerative Combinatorics I,
section 3.10) turns this around, and the rows span F_q^N with probability
sum_V mu(V) A_V^r, where mu(V) = (-1)^d q^C(d, 2) for V of codimension d.
A_V depends on V only through its zero-count enumerator, so each enumerator
carries its summed mu, one table per (q, N) whatever eps_sr, M or eps_rd.
Everything after the table is ``Fraction`` arithmetic on the exact values
of the stored floats, so the result is the same rational as a sum over
every (matrix, erasure pattern) configuration; only its cost differs:
#subspaces x q^N rank tests once per (q, N), against q^(rN) for each r.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .bounds import NetworkParams
from .fields import entry_dtype, make_field
from .linalg import rank_batch

_MASK64 = (1 << 64) - 1

STATE_SPACE_LIMIT = 10**8

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
    """Exact failure probability; ``state_count`` is q^(MN) 2^M, the size of
    the configuration space (coefficient matrix, erasure pattern) that the
    result is exact over."""

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


def check_run(trials: int, seed: int) -> None:
    """Raise ValueError unless ``trials`` is an int >= 1 and ``seed`` one in [0, 2^64)."""
    if type(trials) is not int or trials < 1:  # bool is an int subclass
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if type(seed) is not int or not 0 <= seed <= _MASK64:
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
        check_run(trials, seed)
        for name, value in (("batch_size", batch_size), ("readers", readers)):
            if type(value) is not int or value < 1:  # bool is an int subclass
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
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


def _base_q_digits(count: int, q: int, length: int) -> np.ndarray:
    """The ``length`` lowest base-q digits of 0..count-1, as (count, length)
    field entries."""
    index = np.arange(count, dtype=np.int64)
    out = np.empty((count, length), dtype=entry_dtype(q))
    for k in range(length):
        index, out[:, k] = np.divmod(index, q)
    return out


def _subspaces(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The dimension k and the zero-count enumerator of every subspace V of
    F_q^n, as (S,) and (S, n + 1) arrays; entry z of an enumerator counts the
    vectors of V with z zero coordinates.

    Each V is found once, as its reduced row echelon basis: k pivot columns,
    a 1 at each row's pivot, and any entries in the non-pivot columns right
    of it.  A vector v lies in V exactly when the basis, padded with zero
    rows to n, stacked on v has rank k; one ``rank_batch`` call decides this
    for every V other than {0} and F_q^n and every v, at most #subspaces x
    q^n matrices of (n + 1) x n."""
    dt = entry_dtype(q)
    bases, dims = [], []
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, n) if c not in pivots]
            block = np.zeros((q ** len(free), n, n), dtype=dt)
            block[:, np.arange(k), np.array(pivots, dtype=np.intp)] = 1
            if free:
                rows, cols = zip(*free)
                block[:, rows, cols] = _base_q_digits(len(block), q, len(free))
            bases.append(block)
            dims += [k] * len(block)
    bases, dims = np.concatenate(bases), np.array(dims)
    vectors = _base_q_digits(q**n, q, n)  # vectors[0] = 0
    # {0} and F_q^n need no rank: they hold the zero vector and every vector
    member = np.zeros((len(bases), len(vectors)), dtype=bool)
    member[dims == 0, 0] = True
    member[dims == n] = True
    proper = (0 < dims) & (dims < n)
    if proper.any():
        stack = np.empty((proper.sum(), len(vectors), n + 1, n), dtype=dt)
        stack[:, :, :n] = bases[proper, None]
        stack[:, :, n] = vectors
        ranks = rank_batch(make_field(q), stack.reshape(-1, n + 1, n))
        member[proper] = ranks.reshape(len(stack), len(vectors)) == dims[proper, None]
    zeros = (vectors == 0).sum(axis=1)
    enumerators = np.stack([(member & (zeros == z)).sum(axis=1) for z in range(n + 1)],
                           axis=1)
    return dims, enumerators


@lru_cache(maxsize=None)
def _mobius_classes(q: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(enumerator, summed Moebius value) for each zero-count enumerator
    that some subspace of F_q^n has, those summing to 0 left out.  A
    subspace of dimension k has mu(V, F_q^n) = (-1)^d q^C(d, 2), d = n - k."""
    dims, enumerators = _subspaces(q, n)
    table: dict[tuple[int, ...], int] = {}
    for k, enum in zip(dims.tolist(), map(tuple, enumerators.tolist())):
        d = n - k
        table[enum] = table.get(enum, 0) + (-1) ** d * q ** (d * (d - 1) // 2)
    return tuple((enum, mu) for enum, mu in table.items() if mu)


def exact_pfail(params: NetworkParams) -> ExactResult:
    """Exact failure probability of the model, in rational arithmetic.

    The erasure probabilities enter as the exact fractions of the given
    floats, so the result is exact for the parameters as stored.  With r
    rows delivered, the destination fails unless they span F_q^N, so
    P(fail | r) = 1 for r < N, and for r >= N, by Moebius inversion over the
    subspaces V of F_q^N (see the module docstring),

        P(fail | r) = 1 - sum_V mu(V) A_V^r.

    The total mixes these over the Binomial(M, 1 - eps_rd) delivered count.
    The guard refuses instances whose ``state_count`` exceeds
    STATE_SPACE_LIMIT.
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
    # (mu, A_V) per class; with M < N every r < N, and the table is not built
    classes = [(mu, sum(cnt * esr**z * nonzero_mass ** (n - z)
                        for z, cnt in enumerate(enum) if cnt))
               for enum, mu in (_mobius_classes(q, n) if m >= n else ())]
    total = Fraction(0)
    for r in range(m + 1):
        fail_r = 1 if r < n else 1 - sum(mu * a**r for mu, a in classes)
        total += math.comb(m, r) * (1 - erd) ** r * erd ** (m - r) * fail_r
    return ExactResult(params=params, p_fail=float(total), state_count=state_count)
