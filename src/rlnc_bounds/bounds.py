"""Closed-form bounds on the decoding-failure probability.

A destination fails to decode when the received coding matrix has rank
below the number of sources.  For an (N sources, M relays, F_q, eps_sr,
eps_rd) network, given as a :class:`NetworkParams`, :func:`evaluate_all`
returns every analytical quantity as one :class:`BoundSet`: the classic
bounds ``ub_old`` (raw and clamped) and ``lb_old``, the expected null-vector
count ``mu0``, and the sharpened bounds ``ub_new`` / ``lb_new``.  The
sharpened bounds mix per-delivered-count terms under the binomial delivery
distribution; those terms are the fields of :class:`PerDeliveryTables`,
indexed by the delivered count r = 0..M: ``expected_null_vectors``,
``dependence_ub`` / ``dependence_lb`` (the column-dependence bounds) and
``zero_column_prob``, next to the ``delivery_pmf`` itself.

Every series is evaluated term by term as exp(sum of logs), so that huge
binomial weights and vanishing powers combine without overflow; all terms
are nonnegative, so plain accumulation is cancellation-free and double
precision holds ~1e-12 relative error.

The series are evaluated as float64 arrays, bit for bit equal to a scalar
loop that adds the terms one at a time from 0.0 (kept in the tests as the
reference).  For the null-vector series, a block of exponents
log C(N, w) + (w - 1) log(q - 1) + r log v_w holds one column per delivered
count r and one row per weight w, built with the scalar loop's IEEE
operations.  Each surviving term is exponentiated with ``math.exp``, since
numpy's SIMD ``exp`` differs from libm in the last bit on some inputs, and
each column is added top to bottom with ``np.add.accumulate``, which adds
in order as ``+=`` does (a test guards this).  An exponent of 709 or more
saturates to the largest double, and a sum past it is inf.  Two skips
change no bit:

* x < -746: exp(x) is exactly 0.0, and adding 0.0 to a nonnegative total
  leaves it as it is;
* x more than 40 below an earlier exponent of its column (taken at most
  709): the running total already holds that earlier term, so the new one
  is below e^-40 < 2^-54 of it, under half an ulp, and rounds away.

Blocks hold at most ``_BLOCK`` exponents, which bounds the temporaries.  The
column-dependence bounds add N log1p terms over a sliding window for each
r; all windows are added at once, one float64 slice a term, from +0.0 as
the scalar loop does.

Of the per-count tables only ``delivery_pmf`` depends on M or eps_rd; the
other four depend on (N, q, eps_sr) alone, and each entry on its own r
alone, as do the per-weight terms of the null-vector series.  So
:func:`evaluate_all` keeps those terms and tables for the last (N, q, eps_sr)
it evaluated, for r = 0..R: a point with the same key builds only its
classic-bound exponents and slices the tables if M <= R, or computes
r = R+1..M only and appends those, and any other key replaces them.
Extending a table cannot change a bit, and a relay or eps_rd sweep builds
each table once.  The key holds eps_sr's bits (``float.hex``), not
its value, since 0.0 == -0.0 but the two give zeros of opposite signs in
``zero_column_prob`` (:class:`NetworkParams` stores eps_sr as a float, so
an int 0 is +0.0).  Key and tables are one tuple, read once and rebound
once, so that concurrent callers never pair one key with another key's
tables.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .fields import _prime_power

_EXP_MAX = 709.0  # beyond this, exp() saturates to the largest double
_EXP_ZERO = -746.0  # below this, exp() is exactly 0.0
_NEGLIGIBLE = 40.0  # e^-40 < 2^-54: a term this far below an earlier one adds nothing
_BLOCK = 1 << 12  # exponents per block of the null-vector series


def _log_combs(n: int) -> list[float]:
    """log C(n, k) for k = 0..n."""
    lg = [math.lgamma(k + 1) for k in range(n + 1)]
    return [lg[n] - lg[k] - lg[n - k] for k in range(n + 1)]


@dataclass(frozen=True)
class NetworkParams:
    """One network instance: N sources, M relays, field order, erasure rates."""

    n_sources: int
    n_relays: int
    q: int
    eps_sr: float
    eps_rd: float

    def __post_init__(self):
        for name in ("n_sources", "n_relays", "q"):
            if type(getattr(self, name)) is not int:  # bool is an int subclass
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if self.n_relays < 1:
            raise ValueError("n_relays must be >= 1")
        if _prime_power(self.q) is None:
            raise ValueError(f"field order must be a prime power, got {self.q}")
        # stored as floats: the bounds and the oracle read the float's value,
        # and 0 and 0.0 must give the same bits
        for name in ("eps_sr", "eps_rd"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            v = float(v)
            if not 0.0 <= v <= 1.0:  # NaN too
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)


def _row_zero_sums_raw(params: NetworkParams) -> list[float]:
    """gamma_w for w = 1..N before clamping."""
    qinv = 1.0 / params.q
    base = 1.0 - (1.0 - params.eps_sr) / (1.0 - qinv)
    # The base may be negative (e.g. -1 at eps_sr=0, q=2), so the power is
    # taken in linear domain before combining.
    return [qinv + (1.0 - qinv) * base**w for w in range(1, params.n_sources + 1)]


def _weight_terms(params: NetworkParams) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Per weight w = 1..N (one row each), the parts of the null-vector
    series' exponents prefix_w + r log v_w that depend on (N, q, eps_sr)
    alone: the prefix log C(N, w) + (w - 1) log(q - 1) and log gamma_w as
    (N, 1) columns, and gamma_w as a list.  A zero probability has log -inf.

    gamma_w, the probability that ``w`` coding coefficients sum to zero, is
    clamped into [0, 1], which its raw value leaves by rounding only; at
    w = 1 the algebra collapses to eps_sr, which is used exactly."""
    n, q = params.n_sources, params.q
    lq1 = math.log(q - 1.0) if q > 2 else 0.0
    prefix = [lc + (w - 1) * lq1 for w, lc in enumerate(_log_combs(n)[1:], 1)]
    gammas = [params.eps_sr] + [min(1.0, max(0.0, g)) for g in _row_zero_sums_raw(params)[1:]]
    logs = [math.log(g) if g else -math.inf for g in gammas]
    return np.array(prefix)[:, None], np.array(logs)[:, None], gammas


def _series_sums(x: np.ndarray) -> list[float]:
    """sum_w exp(x[w, j]) for each column j of a block of exponents, which
    it overwrites, bit for bit as a scalar loop adds the terms w = 0, 1, ..
    from 0.0 (see the module docstring)."""
    np.minimum(x, _EXP_MAX, out=x)
    ref = np.maximum.accumulate(x)
    ref -= _NEGLIGIBLE
    np.maximum(ref, _EXP_ZERO, out=ref)
    live = x >= ref
    terms = np.zeros(x.shape)
    # a memoryview yields Python floats one at a time, without a list of them
    terms[live] = np.fromiter(map(math.exp, memoryview(x[live])), float)
    terms[x == _EXP_MAX] = sys.float_info.max
    with np.errstate(over="ignore"):  # the sum of two saturated terms is inf
        return np.add.accumulate(terms, out=terms)[-1].tolist()


def _null_vector_sums(prefix: np.ndarray, log_gammas: np.ndarray, first: np.ndarray,
                      lo: int, hi: int) -> list[float]:
    """The series of ``_weight_terms``: the sums of the whole-series columns
    ``first``, which ride in the first block, then the expected count of
    projective nonzero null vectors of a matrix of r rows for r = lo..hi
    (lo >= 1), at least 1 whenever r < N."""
    step = max(1, _BLOCK // len(prefix))
    sums = []
    for start in range(lo, hi + 1, step):
        x = prefix + log_gammas * np.arange(start, min(start + step, hi + 1), dtype=float)
        sums += _series_sums(np.concatenate((first, x), axis=1) if start == lo else x)
    return sums or _series_sums(first)


def _delivery_pmf(m: int, eps_rd: float) -> list[float]:
    """Binomial(m, 1 - eps_rd) over the number of delivered rows."""
    if eps_rd == 0.0:
        return [0.0] * m + [1.0]
    if eps_rd == 1.0:
        return [1.0] + [0.0] * m
    lp, lq = math.log1p(-eps_rd), math.log(eps_rd)
    return [math.exp(lc + r * lp + (m - r) * lq) for r, lc in enumerate(_log_combs(m))]


def _any_of(n: int, a: float) -> float:
    """1 - (1 - a)^n: at least one of n independent events of probability a."""
    return 1.0 if a >= 1.0 else -math.expm1(n * math.log1p(-a))


def _lb_old(params: NetworkParams) -> float:
    """Classic lower bound 1 - (1 - e^M)^N, driven by sources whose column
    dies end-to-end; e = eps_sr + eps_rd - eps_sr*eps_rd."""
    eff = params.eps_sr + params.eps_rd - params.eps_sr * params.eps_rd
    return _any_of(params.n_sources, eff**params.n_relays)


def _column_dependence(betas: tuple[float, ...], n: int, lo: int, hi: int) -> list[list[float]]:
    """Column-by-column bound on rank deficiency at r = lo..hi delivered rows,
    1 - prod_{i=1..N} (1 - beta^(r-i+1)), for each single-symbol probability
    ``beta``.  Exactly 1 whenever r < N, where a zero-exponent factor kills
    the product; 0^0 = 1 throughout."""
    ones = [1.0] * max(0, min(n, hi + 1) - lo)
    first = max(lo, n)  # the first r whose window holds no zero exponent
    if first > hi:
        return [ones[:] for _ in betas]
    # log1p(-beta^k) for the exponents k = first - N + 1..hi that the windows
    # read, one column per beta; -inf where beta^k = 1
    base = first - n + 1
    logs = np.array([math.log1p(-p) if (p := beta**k) < 1.0 else -math.inf
                     for k in range(base, hi + 1) for beta in betas]).reshape(-1, len(betas))
    # for every r >= first at once, add the exponents r, r - 1, .., r - N + 1
    # in turn, from +0.0
    logprod = logs[n - 1:] + 0.0
    for i in range(1, n):
        logprod += logs[n - 1 - i:len(logs) - i]
    return [ones + [-math.expm1(s) for s in col] for col in logprod.T.tolist()]


def _zero_column_probs(n: int, eps_sr: float, lo: int, hi: int) -> list[float]:
    """Probability that at least one source column is all-zero among r
    delivered rows, 1 - (1 - eps_sr^r)^N, for r = lo..hi."""
    return [_any_of(n, eps_sr**r) for r in range(lo, hi + 1)]  # 0^0 = 1


# The weight terms and per-count tables of the last (N, q, eps_sr) evaluated,
# for r = 0..R, as one (key, (prefix, log_gammas, gammas), (expected_null_vectors,
# dependence_ub, dependence_lb, zero_column_prob)) tuple; read once and rebound
# once, so that a caller never pairs one key with another key's terms
_last_tables: tuple = (None, None, ())


def _per_count_tables(params: NetworkParams) -> tuple[float, tuple[tuple[float, ...], ...]]:
    """The classic bound's series (``ub_old_raw``) and the four per-count
    tables for r = 0..M, reusing the weight terms and tables of the previous
    call where it had the same (N, q, eps_sr): sliced if it reached M,
    extended by r = R+1..M if it reached only R."""
    global _last_tables
    n, m, q, eps = params.n_sources, params.n_relays, params.q, params.eps_sr
    # the float's bits: 0.0 and -0.0 give zeros of different signs
    key = (n, q, eps.hex())
    last_key, weights, stored = _last_tables
    if key != last_key:
        weights, stored = _weight_terms(params), ()
    prefix, log_gammas, gammas = weights
    lo = len(stored[0]) if stored else 0
    # the classic bound's exponents: M rows with v_w = eps_rd + (1 - eps_rd)
    # gamma_w, a row erased on its way to the destination counting as zero
    erased = params.eps_rd
    logs = [math.log(v) if (v := erased + (1.0 - erased) * g) else -math.inf for g in gammas]
    first = prefix + m * np.array(logs)[:, None]
    # from r = 0 the r = 0 column, prefix alone, rides along too, since
    # r * log 0 would be nan
    raw, *nulls = _null_vector_sums(prefix, log_gammas,
                                    np.concatenate((first, prefix), axis=1) if lo == 0 else first,
                                    max(lo, 1), m)
    if lo > m:
        return raw, tuple(t[:m + 1] for t in stored)
    spread = (1.0 - eps) / (q - 1)
    dep_ub, dep_lb = _column_dependence((max(eps, spread), min(eps, spread)), n, lo, m)
    tables = tuple(map(tuple, (nulls, dep_ub, dep_lb, _zero_column_probs(n, eps, lo, m))))
    if lo:
        tables = tuple(old + new for old, new in zip(stored, tables))
    _last_tables = (key, weights, tables)
    return raw, tables


@dataclass(frozen=True)
class PerDeliveryTables:
    """Per-delivered-count intermediates, index r = 0..M."""

    delivery_pmf: tuple[float, ...]
    expected_null_vectors: tuple[float, ...]
    dependence_ub: tuple[float, ...]
    dependence_lb: tuple[float, ...]
    zero_column_prob: tuple[float, ...]


@dataclass(frozen=True)
class BoundSet:
    """All analytical quantities for one network instance.

    ``mu0`` is the expected failure count with every relay delivering and
    may exceed 1; the four bound fields are probabilities.  ``ub_old_raw``
    is deliberately unclamped: the value exceeding 1 in loose regimes is
    part of the classic bound's behaviour.
    """

    params: NetworkParams
    mu0: float
    lb_old: float
    lb_new: float
    ub_new: float
    ub_old_clamped: float
    ub_old_raw: float
    tables: PerDeliveryTables

    def __post_init__(self):
        for name in ("lb_old", "lb_new", "ub_new", "ub_old_clamped"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.mu0 < 0.0:
            raise ValueError(f"mu0 must be nonnegative, got {self.mu0}")
        if self.lb_new > self.ub_new + 1e-12:
            raise ValueError(f"bound inversion: lb_new={self.lb_new} > ub_new={self.ub_new}")
        if self.ub_new > min(1.0, self.ub_old_raw) + 1e-12:
            raise ValueError(f"ub_new={self.ub_new} exceeds the classic bound {self.ub_old_raw}")


def evaluate_all(params: NetworkParams) -> BoundSet:
    """Evaluate every bound, sharing the per-weight and per-count tables,
    and reusing the latter across calls with the same (N, q, eps_sr) (see
    the module docstring).

    The sharpened bounds mix per-delivered-count terms under the binomial
    delivery distribution.  For ``ub_new`` each term is the smaller of the
    expected-count and column-dependence bounds, capped at 1 since each
    bounds a probability -- a per-count minimum, not a minimum of whole
    distributions.  ``lb_new`` mirrors it with a per-count maximum of the
    column-dependence and all-zero-column bounds.  The column-dependence
    bounds use the largest (upper) and smallest (lower) single-symbol
    probability.  The classic ``ub_old`` is the null-vector series of M
    rows, each erased with probability eps_rd.
    """
    m = params.n_relays
    pmf = _delivery_pmf(m, params.eps_rd)
    raw, tables = _per_count_tables(params)
    nulls, dep_ub, dep_lb, zerocol = tables
    up = low = 0.0  # added in order: sum() compensates its rounding from Python 3.12 on
    for wt, du, v, dl, z in zip(pmf, dep_ub, nulls, dep_lb, zerocol):
        up += wt * min(du, v, 1.0)
        low += wt * max(dl, z)
    up, low = (min(1.0, max(0.0, x)) for x in (up, low))
    return BoundSet(params=params, mu0=nulls[m], lb_old=_lb_old(params), lb_new=low,
                    ub_new=up, ub_old_clamped=min(1.0, raw), ub_old_raw=raw,
                    tables=PerDeliveryTables(tuple(pmf), *tables))
