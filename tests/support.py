"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's computation paths:
field arithmetic comes from scalar operations on Python ints, ranks from
nullspace enumeration or a scalar elimination with those operations,
probabilities from exact rational arithmetic, second forms of the
closed-form bounds or the exact closed form for uniform coefficients,
simulated draws from one trial at a time (through numpy's Philox, and a
pure-Python Philox to check it against), and the tiny-instance failure
probability from enumerating every matrix of each delivered count
(``singular_zero_counts``) or the full joint (matrix, erasure-pattern)
space.  The one exception is the bitwise reference for the bound tables,
which adds their series one term at a time in Python floats and reads
only gamma_w's raw formula and ``lb_old`` from the library.
"""

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from rlnc_bounds.bounds import (BoundSet, NetworkParams, PerDeliveryTables, _lb_old,
                                _row_zero_sums_raw)
from rlnc_bounds.fields import FieldSpec, _dense_tables, _digits, _poly_rem


def prime_power_by_trial_division(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m and p prime, or None, by trial division: about
    sqrt(q) steps for a prime q, so only small q are practical."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    n, m = q, 0
    while n % p == 0:
        n //= p
        m += 1
    return (p, m) if n == 1 else None


def least_irreducible_by_trial_division(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically least monic irreducible of degree m over F_p,
    as ``fields._least_irreducible`` orders the candidates, each tested by
    dividing it by every monic polynomial of degree <= m/2."""
    for enc in range(p**m):
        cand = _digits(enc, p, m) + (1,)
        if cand[0] == 0 and m > 1:  # divisible by x
            continue
        if all(any(_poly_rem(cand, _digits(e, p, d) + (1,), p))
               for d in range(1, m // 2 + 1) for e in range(p**d)):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m} over F_{p}")


class ScalarOps(NamedTuple):
    """One field's arithmetic on Python ints in [0, q), one element at a
    time: the reference for the library's tables and batched kernel."""

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]


def _schoolbook_mul(field: FieldSpec) -> Callable[[int, int], int]:
    """Product of two extension-field elements as polynomials over F_p,
    reduced modulo ``field.reduction_polynomial``: shift-and-XOR for p = 2,
    digit lists otherwise.  Slow, and shares no code with the library."""
    p, m, poly = field.p, field.m, field.reduction_polynomial
    if p == 2:
        red, top = sum(c << k for k, c in enumerate(poly)), 1 << m

        def mul2(a: int, b: int) -> int:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= red
            return r

        return mul2
    weights = [p**k for k in range(m)]

    def mulp(a: int, b: int) -> int:
        da, prod = [a // w % p for w in weights], [0] * (2 * m - 1)
        for j, w in enumerate(weights):
            y = b // w % p
            if y:
                for i, x in enumerate(da):
                    prod[i + j] += x * y
        # x^k = x^(k - m) x^m, and x^m = -(poly[0] + poly[1] x + ...)
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(m):
                    prod[k - m + j] -= c * poly[j]
        return sum(c % p * w for c, w in zip(prod, weights))

    return mulp


@lru_cache(maxsize=None)
def scalar_ops(field: FieldSpec) -> ScalarOps:
    """Prime fields reduce mod q.  Extensions add digit-wise,
    sum_k ((a // p^k +/- b // p^k) mod p) p^k, which is XOR for p = 2, and
    multiply through log/exp lists of their own, over the first g >= 2
    with g^((q - 1)/f) != 1 for every prime f dividing q - 1, its powers
    walked once with ``_schoolbook_mul``.  Nothing here reads the field's
    tables."""
    p, q = field.p, field.q

    def checked(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no multiplicative inverse in F_{q}")
        return a

    if field.m == 1:
        return ScalarOps(add=lambda a, b: (a + b) % q, sub=lambda a, b: (a - b) % q,
                         mul=lambda a, b: a * b % q, inv=lambda a: pow(checked(a), -1, q))
    slow_mul, n = _schoolbook_mul(field), q - 1

    def power(a: int, k: int) -> int:
        r = 1
        for bit in bin(k)[2:]:
            r = slow_mul(r, r)
            if bit == "1":
                r = slow_mul(r, a)
        return r

    primes = [f for f in range(2, n + 1)
              if n % f == 0 and prime_power_by_trial_division(f) == (f, 1)]
    g = next(g for g in range(2, q) if all(power(g, n // f) != 1 for f in primes))
    exp = [1]
    while (e := slow_mul(exp[-1], g)) != 1:
        exp.append(e)
    assert len(exp) == n, f"{g} does not generate the nonzero elements of F_{q}"
    log = [0] * q
    for k, e in enumerate(exp):
        log[e] = k
    exp += exp

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a: int) -> int:
        return exp[n - log[checked(a)]]

    if p == 2:
        return ScalarOps(add=operator.xor, sub=operator.xor, mul=mul, inv=inv)
    weights = [p**k for k in range(field.m)]

    def add(a: int, b: int) -> int:
        return sum((a // w + b // w) % p * w for w in weights)

    def sub(a: int, b: int) -> int:
        return sum((a // w - b // w) % p * w for w in weights)

    return ScalarOps(add=add, sub=sub, mul=mul, inv=inv)


def nullspace_rank(field: FieldSpec, rows: list[list[int]], cols: int) -> int:
    """rank = cols - log_q(#nullspace), counting Ax = 0 by enumeration."""
    q, ops = field.q, scalar_ops(field)
    null = 0
    for x in product(range(q), repeat=cols):
        if not any(x):
            continue
        if all(_dot_is_zero(ops, row, x) for row in rows):
            null += 1
    size = null + 1
    nullity = 0
    while size > 1:
        assert size % q == 0
        size //= q
        nullity += 1
    return cols - nullity


def scalar_rank(field: FieldSpec, rows, cols: int) -> int:
    """Rank by scalar Gauss elimination, one Python int at a time.

    Division-free, unlike the library's batched kernel: a row below the
    pivot is replaced by ``pivot*row - entry*pivot_row``, which does not
    change the rank.  Uses only the scalar operations of ``scalar_ops``.
    """
    ops = scalar_ops(field)
    mat = [[int(x) for x in row] for row in rows]
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivrow = mat[rank]
        pv = pivrow[c]
        for i in range(rank + 1, len(mat)):
            e = mat[i][c]
            if e:
                mat[i] = [ops.sub(ops.mul(pv, x), ops.mul(e, y))
                          for x, y in zip(mat[i], pivrow)]
        rank += 1
    return rank


def _dot_is_zero(ops: ScalarOps, row, x) -> bool:
    acc = 0
    for a, b in zip(row, x):
        acc = ops.add(acc, ops.mul(a, b))
    return acc == 0


def check_field_axioms(field: FieldSpec) -> None:
    """Exhaustive axiom check (pairs and triples) of the dense q x q
    tables, for q <= 256."""
    add, _, mul = _dense_tables(field)
    a = np.arange(field.q)
    assert (add == add.T).all(), "addition must commute"
    assert (mul == mul.T).all(), "multiplication must commute"
    assert (add[:, 0] == a).all(), "0 must be the additive identity"
    assert (mul[:, 1] == a).all(), "1 must be the multiplicative identity"
    assert (mul[:, 0] == 0).all(), "multiplication by 0 must vanish"
    assert ((add == 0).sum(axis=1) == 1).all(), "unique additive inverses"
    assert ((mul[1:] == 1).sum(axis=1) == 1).all(), "unique multiplicative inverses"
    x, y, z = a[:, None, None], a[None, :, None], a[None, None, :]
    assert (add[add[x, y], z] == add[x, add[y, z]]).all(), "addition associates"
    assert (mul[mul[x, y], z] == mul[x, mul[y, z]]).all(), "multiplication associates"
    assert (mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]).all(), \
        "multiplication distributes over addition"


def _binom_logpmf(ks: np.ndarray, n: int, p: float) -> np.ndarray:
    """log P(X = k) for X ~ Binomial(n, p), 0 < p < 1, with ``math.lgamma``
    for the binomial coefficient."""
    lgamma = np.frompyfunc(math.lgamma, 1, 1)
    return (math.lgamma(n + 1) - lgamma(ks + 1).astype(float)
            - lgamma(n - ks + 1).astype(float)
            + ks * math.log(p) + (n - ks) * math.log1p(-p))


def _binom_mass(lo: int, hi: int, n: int, p: float) -> float:
    """P(lo <= X <= hi) for X ~ Binomial(n, p), 0 <= lo <= hi <= n.

    The pmf terms are summed relative to the largest one, so huge
    coefficients and vanishing powers combine without overflow or
    underflow at n = 10^5.  No scipy: it is not a declared dependency.
    """
    if p in (0.0, 1.0):
        return float(lo <= n * p <= hi)  # all mass sits at 0 or n
    logs = _binom_logpmf(np.arange(lo, hi + 1), n, p)
    top = logs.max()
    return min(1.0, math.exp(top) * float(np.exp(logs - top).sum()))


def binom_pmf(n: int, p: float) -> list[float]:
    """P(X = k) for k = 0..n, X ~ Binomial(n, p)."""
    if p in (0.0, 1.0):
        return [float(k == n * p) for k in range(n + 1)]
    return np.exp(_binom_logpmf(np.arange(n + 1), n, p)).tolist()


def binom_le(k: int, n: int, p: float) -> float:
    """Exact lower tail P(X <= k) of Binomial(n, p)."""
    return _binom_mass(0, k, n, p)


def binom_ge(k: int, n: int, p: float) -> float:
    """Exact upper tail P(X >= k) of Binomial(n, p)."""
    return _binom_mass(k, n, n, p)


# Second forms of the classic bounds, which the library evaluates in
# closed form only.

def ub_old_binomial_form(params: NetworkParams, nulls) -> float:
    """The classic upper bound regrouped by delivered-row count: the
    expected null-vector count mixed under Binomial(M, 1 - eps_rd).  It
    equals ``ub_old`` by the binomial theorem.

    ``nulls[r]`` is the expected null-vector count at r = 0..M delivered
    rows, for example ``evaluate_all(params).tables.expected_null_vectors``."""
    pmf = binom_pmf(params.n_relays, 1.0 - params.eps_rd)
    return sum(w * nulls[r] for r, w in enumerate(pmf) if w > 0.0)


def lb_old_binomial_form(params: NetworkParams) -> float:
    """The classic lower bound as P(X >= 1) for X ~ Binomial(N, e^M): the
    chance that some source's column dies end to end, with
    e = eps_sr + eps_rd - eps_sr*eps_rd."""
    eff = params.eps_sr + params.eps_rd - params.eps_sr * params.eps_rd
    return sum(binom_pmf(params.n_sources, eff**params.n_relays)[1:])


# The exact failure probability at eps_sr = 1/q, where every coefficient
# is uniform over F_q: r uniform rows have rank N with probability
# prod_{i<N} (1 - q^(i-r)), which is 0 for r < N (Trullols-Cruces,
# Barcelo-Ordinas and Fiore, "Exact Decoding Probability Under Random
# Linear Network Coding", IEEE Commun. Letters 15(1), 2011).  P_fail mixes
# P(fail | r) over r ~ Binomial(M, 1 - eps_rd).

def uniform_pfail_frac(n: int, m: int, q: int, eps_rd: Fraction) -> Fraction:
    """The closed form in exact rational arithmetic."""
    total = Fraction(0)
    for r in range(n, m + 1):
        full = Fraction(1)
        for i in range(n):
            full *= 1 - Fraction(1, q ** (r - i))
        total += comb(m, r) * (1 - eps_rd) ** r * eps_rd ** (m - r) * full
    return 1 - total


def uniform_pfail(n: int, m: int, q: int, eps_rd: float) -> float:
    """The closed form in floats, with P(fail | r) as
    -expm1(sum_i log1p(-q^(i-r))): the naive 1 - prod loses every digit
    where P(fail | r) is near the float spacing of 1."""
    def fail(r: int) -> float:
        if r < n:
            return 1.0
        return -math.expm1(math.fsum(math.log1p(-float(q) ** (i - r)) for i in range(n)))

    return sum(w * fail(r) for r, w in enumerate(binom_pmf(m, 1.0 - eps_rd)))


# Per-trial reference for the simulator's draw contract: trial t of seed s
# reads its uniforms from a Philox4x64-10 stream keyed by [s, 0] as uint64,
# starting at block t*S with S = ceil((M*N + M) / 4), since each block
# yields four doubles.  It draws M*N coefficient uniforms (row-major), then
# M delivery uniforms.

def _trial_stride(params: NetworkParams) -> int:
    return (params.n_relays * params.n_sources + params.n_relays + 3) // 4


def trial_rng(params: NetworkParams, seed: int, trial: int) -> np.random.Generator:
    """Generator positioned at trial ``trial``'s substream for ``seed``."""
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=trial * _trial_stride(params), key=key))


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC 2011), in Python ints: the draw contract pinned to
# the published algorithm rather than to numpy's implementation of it.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments (Weyl)
_MASK64 = (1 << 64) - 1


def philox4x64(counter: int, key: tuple[int, int]) -> list[int]:
    """The four 64-bit words of the block at a 256-bit ``counter``, least
    significant word first, after ten rounds; the key is bumped between
    rounds."""
    x = [counter >> (64 * i) & _MASK64 for i in range(4)]
    k0, k1 = key
    for rnd in range(10):
        if rnd:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        p0, p1 = _PHILOX_M[0] * x[0], _PHILOX_M[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _MASK64, (p0 >> 64) ^ x[3] ^ k1, p0 & _MASK64]
    return x


def trial_uniforms(params: NetworkParams, seed: int, trial: int) -> list[float]:
    """Trial ``trial``'s M*N + M uniforms for ``seed`` by ``philox4x64``:
    numpy increments the counter before each block, so block k of the
    stream is the output at counter k + 1, and a word x is the double
    (x >> 11) * 2^-53."""
    stride = _trial_stride(params)
    words = [w for k in range(trial * stride, (trial + 1) * stride)
             for w in philox4x64(k + 1, (seed, 0))]
    return [(w >> 11) * 2.0**-53 for w in words[:params.n_relays * (params.n_sources + 1)]]


def _coefficient_from_uniform(u: float, eps_sr: float, q: int) -> int:
    """Zero below eps_sr, otherwise uniform over the q - 1 nonzero
    elements; the operation order is the library's, bit for bit."""
    if u < eps_sr or eps_sr >= 1.0:
        return 0
    return min(q - 1, 1 + int((u - eps_sr) * ((q - 1) / (1.0 - eps_sr))))


def sample_received_matrix(params: NetworkParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one trial's delivered rows, as a (rows, N) array.

    All M relays draw their N coefficients (a relay that heard nothing
    still sends an all-zero row), then each row survives the
    relay-to-destination link with probability 1 - eps_rd.
    """
    m, n = params.n_relays, params.n_sources
    u = rng.random(m * n + m).tolist()
    coeffs = [_coefficient_from_uniform(x, params.eps_sr, params.q) for x in u[:m * n]]
    kept = [coeffs[i * n:(i + 1) * n] for i in range(m) if u[m * n + i] < 1.0 - params.eps_rd]
    return np.array(kept, dtype=np.int64).reshape(len(kept), n)


# The bound series evaluated one term at a time in Python floats: the
# bitwise reference for the library's array evaluation.  Each loop adds its
# terms in the order the arrays do, so every result must be equal under ==,
# zeros in sign too.

def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def scalar_weight_terms(params: NetworkParams, erased: float = 0.0) -> list[tuple[float, float]]:
    """Per weight w = 1..N, log C(N, w) + (w - 1) log(q - 1) and log v_w,
    v_w = erased + (1 - erased) gamma_w: a row erased with probability
    ``erased`` counts as zero."""
    n, q = params.n_sources, params.q
    lq1 = math.log(q - 1.0) if q > 2 else 0.0
    terms = []
    for w, raw in enumerate(_row_zero_sums_raw(params), 1):
        gamma = params.eps_sr if w == 1 else min(1.0, max(0.0, raw))
        v = erased + (1.0 - erased) * gamma
        terms.append((_log_comb(n, w) + (w - 1) * lq1, math.log(v) if v else -math.inf))
    return terms


def scalar_null_vector_sum(terms: list[tuple[float, float]], rows: int) -> float:
    """Expected count of projective nonzero null vectors of a ``rows``-row
    coding matrix: sum over w of exp(prefix_w + rows log v_w), added for
    w = 1, 2, ..., N from 0.0, a term of 709 or more as the largest double."""
    total = 0.0
    for prefix, logv in terms:
        x = prefix + (rows * logv if rows else 0.0)  # 0^0 = 1
        # exp is exactly 0.0 below about -745.13 (a zero gamma gives -inf)
        if x >= -746.0:
            total += math.exp(x) if x < 709.0 else sys.float_info.max
    return total


def scalar_column_dependence(beta: float, n: int, m: int) -> list[float]:
    """1 - prod_{i=1..N} (1 - beta^(r-i+1)) at r = 0..m, as exp of a sum of
    log1p terms added for i = 1, 2, ..., N from +0.0; 1 for r < N."""
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


def scalar_delivery_pmf(m: int, eps_rd: float) -> list[float]:
    """Binomial(m, 1 - eps_rd) over the number of delivered rows."""
    if eps_rd == 0.0:
        return [0.0] * m + [1.0]
    if eps_rd == 1.0:
        return [1.0] + [0.0] * m
    lp, lq = math.log1p(-eps_rd), math.log(eps_rd)
    return [math.exp(_log_comb(m, r) + r * lp + (m - r) * lq) for r in range(m + 1)]


def scalar_zero_column_prob(params: NetworkParams, rows: int) -> float:
    """1 - (1 - eps_sr^rows)^N."""
    a = params.eps_sr**rows  # 0^0 = 1
    if a >= 1.0:
        return 1.0
    return -math.expm1(params.n_sources * math.log1p(-a))


def scalar_evaluate_all(params: NetworkParams) -> BoundSet:
    """``evaluate_all`` with every table evaluated by the loops above."""
    n, m = params.n_sources, params.n_relays
    spread = (1.0 - params.eps_sr) / (params.q - 1)
    pmf = scalar_delivery_pmf(m, params.eps_rd)
    terms = scalar_weight_terms(params)
    nulls = [scalar_null_vector_sum(terms, r) for r in range(m + 1)]
    dep_ub = scalar_column_dependence(max(params.eps_sr, spread), n, m)
    dep_lb = scalar_column_dependence(min(params.eps_sr, spread), n, m)
    zerocol = [scalar_zero_column_prob(params, r) for r in range(m + 1)]
    # left to right from 0.0: sum() compensates its rounding from Python 3.12 on
    up = low = 0.0
    for r, wt in enumerate(pmf):
        up += wt * min(dep_ub[r], nulls[r], 1.0)
        low += wt * max(dep_lb[r], zerocol[r])
    up, low = (min(1.0, max(0.0, x)) for x in (up, low))
    raw = scalar_null_vector_sum(scalar_weight_terms(params, params.eps_rd), m)
    tables = PerDeliveryTables(tuple(pmf), tuple(nulls), tuple(dep_ub),
                               tuple(dep_lb), tuple(zerocol))
    return BoundSet(params=params, mu0=nulls[m], lb_old=_lb_old(params), lb_new=low,
                    ub_new=up, ub_old_clamped=min(1.0, raw), ub_old_raw=raw,
                    tables=tables)


# Rational-arithmetic versions of the analytical quantities.

def gamma_frac(q: int, eps_sr: Fraction, w: int) -> Fraction:
    qi = Fraction(1, q)
    return qi + (1 - qi) * (1 - (1 - eps_sr) / (1 - qi)) ** w


def mu0_frac(n: int, q: int, eps_sr: Fraction, rows: int) -> Fraction:
    return sum(comb(n, w) * (q - 1) ** w * gamma_frac(q, eps_sr, w) ** rows
               for w in range(1, n + 1)) / Fraction(q - 1)


def dependence_frac(n: int, beta: Fraction, rows: int) -> Fraction:
    """Column-dependence bound 1 - prod_{i=1..N} (1 - beta^(rows-i+1)) at
    ``rows`` delivered rows; 1 for rows < N."""
    if rows < n:
        return Fraction(1)
    prod = Fraction(1)
    for i in range(1, n + 1):
        prod *= 1 - beta ** (rows - i + 1)
    return 1 - prod


def zero_column_frac(n: int, eps_sr: Fraction, rows: int) -> Fraction:
    """Probability 1 - (1 - eps_sr^rows)^N that some source column is
    all-zero among ``rows`` delivered rows."""
    return 1 - (1 - eps_sr**rows) ** n


def ub_old_frac(n: int, m: int, q: int, eps_sr: Fraction, eps_rd: Fraction) -> Fraction:
    return sum(comb(n, w) * (q - 1) ** w
               * (eps_rd + (1 - eps_rd) * gamma_frac(q, eps_sr, w)) ** m
               for w in range(1, n + 1)) / Fraction(q - 1)


def singular_zero_counts(field: FieldSpec, cols: int, rows: int) -> tuple[int, ...]:
    """Histogram over zero-entry counts of the rank-deficient rows x cols
    matrices over the field, by enumerating every matrix."""
    hist = [0] * (rows * cols + 1)
    for ent in product(range(field.q), repeat=rows * cols):
        mat = [ent[i * cols:(i + 1) * cols] for i in range(rows)]
        if scalar_rank(field, mat, cols) < cols:
            hist[ent.count(0)] += 1
    return tuple(hist)


def pfail_from_zero_counts(hist: tuple[int, ...], q: int, eps_sr: Fraction) -> Fraction:
    """P(fail | r) from :func:`singular_zero_counts`: each deficient matrix
    weighs eps_sr^zeros ((1 - eps_sr)/(q - 1))^nonzeros."""
    nz = (1 - eps_sr) / (q - 1)
    size = len(hist) - 1
    return sum((cnt * eps_sr**z * nz ** (size - z) for z, cnt in enumerate(hist) if cnt),
               Fraction(0))


def exact_pfail_full_joint(field: FieldSpec, n: int, m: int,
                           eps_sr: Fraction, eps_rd: Fraction) -> Fraction:
    """Failure probability by enumerating every full matrix and every
    erasure pattern separately (no grouping), with nullspace-counted ranks."""
    q = field.q
    nz = (1 - eps_sr) / (q - 1)
    total = Fraction(0)
    for ent in product(range(q), repeat=m * n):
        mat = [list(ent[i * n:(i + 1) * n]) for i in range(m)]
        z = ent.count(0)
        mat_mass = eps_sr**z * nz ** (m * n - z)
        if mat_mass == 0:
            continue
        for pat in product((0, 1), repeat=m):
            kept = [mat[i] for i in range(m) if pat[i]]
            r = len(kept)
            pat_mass = (1 - eps_rd) ** r * eps_rd ** (m - r)
            if pat_mass == 0:
                continue
            if nullspace_rank(field, kept, n) < n:
                total += mat_mass * pat_mass
    return total
