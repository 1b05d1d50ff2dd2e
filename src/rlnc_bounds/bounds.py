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

Every series is evaluated term-by-term as exp(sum of logs) so that huge
binomial weights and vanishing powers combine without overflow; all terms
are nonnegative, so plain accumulation is cancellation-free and double
precision holds ~1e-12 relative error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .fields import _prime_power

_EXP_MAX = 709.0  # beyond this, exp() saturates to the largest double


def _exp(x: float) -> float:
    return math.exp(x) if x < _EXP_MAX else sys.float_info.max


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


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
        for name in ("eps_sr", "eps_rd"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def _row_zero_sum_raw(params: NetworkParams, weight: int) -> float:
    qinv = 1.0 / params.q
    base = 1.0 - (1.0 - params.eps_sr) / (1.0 - qinv)
    # The base may be negative (e.g. -1 at eps_sr=0, q=2), so the power is
    # taken in linear domain before combining.
    return qinv + (1.0 - qinv) * base**weight


def _weight_terms(params: NetworkParams, erased: float = 0.0) -> list[tuple[float, float]]:
    """Per weight w = 1..N, the row-count-free parts of the null-vector
    series: log C(N, w) + (w - 1) log(q - 1), and log(v_w) with
    v_w = erased + (1 - erased) * gamma_w, a row that is erased with
    probability ``erased`` counting as zero (v_w = gamma_w at 0).

    gamma_w, the probability that ``w`` coding coefficients sum to zero, is
    clamped into [0, 1], which its raw value leaves by rounding only; at
    w = 1 the algebra collapses to eps_sr, which is used exactly."""
    n, q = params.n_sources, params.q
    lq1 = math.log(q - 1.0) if q > 2 else 0.0
    terms = []
    for w in range(1, n + 1):
        gamma = params.eps_sr if w == 1 else min(1.0, max(0.0, _row_zero_sum_raw(params, w)))
        v = erased + (1.0 - erased) * gamma
        terms.append((_log_comb(n, w) + (w - 1) * lq1, math.log(v) if v else -math.inf))
    return terms


def _null_vector_sum(terms: list[tuple[float, float]], rows: int) -> float:
    """Expected count of projective nonzero null vectors of a ``rows``-row
    coding matrix; at least 1 whenever rows < N."""
    total = 0.0
    for prefix, logg in terms:
        x = prefix + (rows * logg if rows else 0.0)  # 0^0 = 1
        # exp is exactly 0.0 below about -745.13 (a zero gamma gives -inf), and
        # skipping a term of 0.0 changes no bit of the sum
        if x >= -746.0:
            total += _exp(x)
    return total


def _delivery_pmf(m: int, eps_rd: float) -> list[float]:
    """Binomial(m, 1 - eps_rd) over the number of delivered rows."""
    if eps_rd == 0.0:
        return [0.0] * m + [1.0]
    if eps_rd == 1.0:
        return [1.0] + [0.0] * m
    lp, lq = math.log1p(-eps_rd), math.log(eps_rd)
    return [_exp(_log_comb(m, r) + r * lp + (m - r) * lq) for r in range(m + 1)]


def _lb_old(params: NetworkParams) -> float:
    """Classic lower bound 1 - (1 - e^M)^N, driven by sources whose column
    dies end-to-end; e = eps_sr + eps_rd - eps_sr*eps_rd."""
    n, m = params.n_sources, params.n_relays
    eff = params.eps_sr + params.eps_rd - params.eps_sr * params.eps_rd
    a = eff**m
    if a >= 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-a))


def _column_dependence(beta: float, n: int, m: int) -> list[float]:
    """Column-by-column bound on rank deficiency at r = 0..m delivered rows,
    1 - prod_{i=1..N} (1 - beta^(r-i+1)), for the single-symbol probability
    ``beta``.  Exactly 1 whenever r < N, where a zero-exponent factor kills
    the product; 0^0 = 1 throughout."""
    # log1p(-beta^k) for k = 0..m; -inf where beta^k = 1 (bound 1)
    logs = [math.log1p(-beta**k) if beta**k < 1.0 else -math.inf for k in range(m + 1)]
    out = []
    for r in range(m + 1):
        if r < n:
            out.append(1.0)
            continue
        logprod = 0.0
        for lg in logs[r:r - n:-1]:  # exponents r - i + 1, i = 1..N
            logprod += lg
        out.append(-math.expm1(logprod))
    return out


def _zero_column_prob(params: NetworkParams, rows: int) -> float:
    """Probability that at least one source column is all-zero among
    ``rows`` delivered rows; equals 1 - (1 - eps_sr^rows)^N."""
    a = params.eps_sr**rows  # 0^0 = 1
    if a >= 1.0:
        return 1.0
    return -math.expm1(params.n_sources * math.log1p(-a))


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
    """Evaluate every bound, sharing the per-weight and per-count tables.

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
    n, m = params.n_sources, params.n_relays
    terms = _weight_terms(params)
    spread = (1.0 - params.eps_sr) / (params.q - 1)
    pmf = _delivery_pmf(m, params.eps_rd)
    nulls = [_null_vector_sum(terms, r) for r in range(m + 1)]
    dep_ub = _column_dependence(max(params.eps_sr, spread), n, m)
    dep_lb = _column_dependence(min(params.eps_sr, spread), n, m)
    zerocol = [_zero_column_prob(params, r) for r in range(m + 1)]

    clamp = lambda x: min(1.0, max(0.0, x))
    up = clamp(sum(wt * min(dep_ub[r], nulls[r], 1.0) for r, wt in enumerate(pmf)))
    low = clamp(sum(wt * max(dep_lb[r], zerocol[r]) for r, wt in enumerate(pmf)))
    raw = _null_vector_sum(_weight_terms(params, params.eps_rd), m)
    tables = PerDeliveryTables(tuple(pmf), tuple(nulls), tuple(dep_ub),
                               tuple(dep_lb), tuple(zerocol))
    return BoundSet(params=params, mu0=nulls[m], lb_old=_lb_old(params), lb_new=low,
                    ub_new=up, ub_old_clamped=min(1.0, raw), ub_old_raw=raw,
                    tables=tables)
