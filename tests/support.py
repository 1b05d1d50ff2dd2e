"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's computation paths:
field arithmetic comes from scalar operations on Python ints, ranks from
nullspace enumeration or a scalar elimination with those operations,
probabilities from exact rational arithmetic or second forms of the
closed-form bounds, simulated draws from one trial at a time, and the
tiny-instance failure probability from enumerating the full joint (matrix,
erasure-pattern) space.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from rlnc_bounds.bounds import NetworkParams, expected_null_vectors
from rlnc_bounds.fields import FieldSpec, _dense_tables


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


class ScalarOps(NamedTuple):
    """One field's arithmetic on Python ints in [0, q), one element at a
    time: the reference for the library's tables and batched kernel."""

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]


@lru_cache(maxsize=None)
def scalar_ops(field: FieldSpec) -> ScalarOps:
    """Prime fields reduce mod q.  Extensions add digit-wise,
    sum_k ((a // p^k +/- b // p^k) mod p) p^k, which is XOR for p = 2, and
    multiply through the field's log/exp tables, whose entries the
    exhaustive axiom check covers for q <= 256."""
    p, q = field.p, field.q

    def checked(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no multiplicative inverse in F_{q}")
        return a

    if field.m == 1:
        return ScalarOps(add=lambda a, b: (a + b) % q, sub=lambda a, b: (a - b) % q,
                         mul=lambda a, b: a * b % q, inv=lambda a: pow(checked(a), -1, q))
    log, exp = field.log_table.tolist(), field.exp_table.tolist()

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a: int) -> int:
        return exp[(q - 1) - log[checked(a)]]

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

def ub_old_binomial_form(params: NetworkParams, nulls=None) -> float:
    """The classic upper bound regrouped by delivered-row count: the
    expected null-vector count mixed under Binomial(M, 1 - eps_rd).  It
    equals ``ub_old`` by the binomial theorem.

    ``nulls[r]`` is the expected null-vector count at r delivered rows, for
    example ``evaluate_all(params).tables.expected_null_vectors``; without
    it, ``expected_null_vectors`` is called once per count."""
    pmf = binom_pmf(params.n_relays, 1.0 - params.eps_rd)
    null = (lambda r: expected_null_vectors(params, r)) if nulls is None else nulls.__getitem__
    return sum(w * null(r) for r, w in enumerate(pmf) if w > 0.0)


def lb_old_binomial_form(params: NetworkParams) -> float:
    """The classic lower bound as P(X >= 1) for X ~ Binomial(N, e^M): the
    chance that some source's column dies end to end, with
    e = eps_sr + eps_rd - eps_sr*eps_rd."""
    eff = params.eps_sr + params.eps_rd - params.eps_sr * params.eps_rd
    return sum(binom_pmf(params.n_sources, eff**params.n_relays)[1:])


# Per-trial reference for the simulator's draw contract: trial t of seed s
# reads its uniforms from a Philox stream keyed by [s, 0] as uint64,
# starting at counter block t*S with S = ceil((M*N + M) / 4), since each
# block yields four doubles.  It draws M*N coefficient uniforms (row-major),
# then M delivery uniforms.

def trial_rng(params: NetworkParams, seed: int, trial: int) -> np.random.Generator:
    """Generator positioned at trial ``trial``'s substream for ``seed``."""
    stride = (params.n_relays * params.n_sources + params.n_relays + 3) // 4
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=trial * stride, key=key))


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


# Rational-arithmetic versions of the analytical quantities.

def gamma_frac(q: int, eps_sr: Fraction, w: int) -> Fraction:
    qi = Fraction(1, q)
    return qi + (1 - qi) * (1 - (1 - eps_sr) / (1 - qi)) ** w


def mu0_frac(n: int, q: int, eps_sr: Fraction, rows: int) -> Fraction:
    return sum(comb(n, w) * (q - 1) ** w * gamma_frac(q, eps_sr, w) ** rows
               for w in range(1, n + 1)) / Fraction(q - 1)


def ub_old_frac(n: int, m: int, q: int, eps_sr: Fraction, eps_rd: Fraction) -> Fraction:
    return sum(comb(n, w) * (q - 1) ** w
               * (eps_rd + (1 - eps_rd) * gamma_frac(q, eps_sr, w)) ** m
               for w in range(1, n + 1)) / Fraction(q - 1)


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
