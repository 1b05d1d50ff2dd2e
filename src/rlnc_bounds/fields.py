"""Prime-power finite fields: their parameters and arithmetic tables.

Field elements are plain integers in ``[0, q)`` that pack base-p digit
vectors: for q = p^m, digit k is the coefficient of x^k in the polynomial
representation, so addition is digit-wise mod p.  A :class:`FieldSpec` is
an immutable, validated record of the field and its tables; it has no
arithmetic of its own.  The batched kernel in ``linalg`` computes with the
tables, and the scalar reference operations the tests check it against
live in ``tests/support.py``.

Every field, prime or not, has one log/exp table pair over its least
generator g of the multiplicative group, laid out for products of up to
three factors: ``log_table`` (intp, length q) holds log(a) in
``[0, q - 1)`` and the sentinel log(0) = 3(q - 1); ``exp_table`` (entry
dtype, length 7(q - 1)) holds g^k for every k below 3(q - 1) and 0 from
3(q - 1) on.  So ``exp[log a + log b + lc]``, with lc the log of a nonzero
factor, is the product, and 0 whenever a or b is 0.  One construction
builds the pair for every order: multiplication by g is an m x m matrix
over F_p, and its powers give the powers of g (``_build_log_tables``).

Reduction polynomials are fixed per (p, m): the lexicographically least
monic irreducible polynomial, taking the coefficient of the highest power
as the most significant digit.  This makes matrices and simulations
bit-reproducible across runs and implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_ORDER = 1 << 16

# Largest order for which the benchmark builds ``_dense_tables``.
_DENSE_LIMIT = 256


# The first 13 primes: a strong probable prime to all of them is prime below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the fixed bases: exact for n < 3.3e24; above that, a
    composite would have to be a strong pseudoprime to all 13 bases."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, m: int) -> int:
    """Largest r with r^m <= n, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // m)
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p^m and p prime, or None."""
    for m in range(1, q.bit_length()):  # every m with 2^m <= q; none below 2
        p = _iroot(q, m)
        if p**m == q and _is_prime(p):
            return p, m
    return None


def _digits(value: int, p: int, length: int) -> tuple[int, ...]:
    return tuple(value // p**k % p for k in range(length))


def _poly_rem(num, den, p: int) -> tuple[int, ...]:
    """Remainder of num mod den over F_p; den must be monic."""
    num = [c % p for c in num]
    d = len(den) - 1
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            for j in range(d + 1):
                num[k - d + j] = (num[k - d + j] - c * den[j]) % p
    return tuple(num[:d]) if d > 0 else ()


def _is_irreducible(poly, p: int) -> bool:
    """Ben-Or's test of a monic f of degree m >= 1: f is irreducible when
    gcd(x^(p^i) - x, f) = 1 for every i <= m/2, since x^(p^i) - x is the
    product of the monic irreducibles of degree dividing i."""

    def mulmod(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return _poly_rem(prod, poly, p)

    h = (0, 1)  # x^(p^i) mod f, never shorter than x
    for _ in range((len(poly) - 1) // 2):  # i = 1..m/2
        frob = h
        for bit in bin(p)[3:]:  # h^p, by square and multiply
            frob = mulmod(frob, frob) if bit == "0" else mulmod(mulmod(frob, frob), h)
        h = frob
        # Euclid on (x^(p^i) - x, f), each divisor made monic
        a, f = [h[0], (h[1] - 1) % p, *h[2:]], poly
        while any(a):
            a = a[:max(k for k, c in enumerate(a) if c) + 1]
            inv = pow(a[-1], -1, p)
            a, f = list(_poly_rem(f, [c * inv % p for c in a], p)), [c * inv % p for c in a]
        if len(f) > 1:
            return False
    return True


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over F_p."""
    for enc in range(p**m):
        cand = _digits(enc, p, m) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m} over F_{p}")


def _mat_pow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """a^k over F_p, by square-and-multiply."""
    r = np.eye(len(a), dtype=np.int64)
    while k:
        if k & 1:
            r = r @ a % p
        a = a @ a % p
        k >>= 1
    return r


def _build_log_tables(q: int, p: int, m: int, poly):
    """Discrete-log tables over the least generator g of the multiplicative
    group, in the layout of the module docstring.

    Multiplying by a fixed element is F_p-linear on the digit vectors: an
    m x m matrix over F_p whose row k holds the digits of x^k times the
    element.  Times x shifts the digits up and folds x^m = -(poly[0] +
    poly[1] x + ...) into the last row; g is sum_k g_k (times x)^k.  For
    m = 1 the polynomial is x, and every matrix is the element itself.
    """
    times_x = np.eye(m, k=1, dtype=np.int64)
    times_x[-1] = [-c % p for c in poly[:-1]]
    x_pows = [_mat_pow(times_x, k, p) for k in range(m)]

    def matrix(g: int) -> np.ndarray:
        return sum(d * xk for d, xk in zip(_digits(g, p, m), x_pows)) % p

    order = q - 1
    factors = []
    n, d = order, 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)

    one = x_pows[0]
    gen = next(g for g in range(1, q)
               if all((_mat_pow(matrix(g), order // f, p) != one).any() for f in factors))

    # digits of g^0, ..., g^(k-1), then g^k, ..., g^(2k-1) as those times g^k.
    # Fields with uint16 entries take the products in float64, whose matmul
    # is BLAS (int64's is not), and exact here: an entry is at most
    # m (p - 1)^2 < 2^33, and its quotient by p < 2^16, rounded, is within
    # 2^-20 of the true one, so its floor is the true floor.  Smaller fields
    # stay in int64: the first BLAS call maps a work buffer that raised peak
    # memory by 0.6 MB, to save well under a millisecond there.
    wide = q > 256
    powers = np.zeros((1 << order.bit_length(), m), dtype=np.float64 if wide else np.int64)
    powers[0, 0] = 1
    step, k = matrix(gen), 1
    while k < len(powers):
        block = np.matmul(powers[:k], step, out=powers[k:2 * k])
        if wide:
            block -= np.floor(block / p) * p
        else:
            np.remainder(block, p, out=block)
        step, k = step @ step % p, 2 * k
    powers = (powers[:q] @ p ** np.arange(m)).astype(np.int64)
    if powers[order] != 1:
        raise AssertionError("generator order mismatch")
    zero = 3 * order
    exp = np.zeros(2 * zero + order, dtype=entry_dtype(q))
    exp[:zero] = np.tile(powers[:order], 3)
    log = np.full(q, zero, dtype=np.intp)
    log[powers[:order]] = np.arange(order)
    return exp, log


@dataclass(frozen=True)
class FieldSpec:
    """Immutable, validated description of F_q and its tables, built from q.

    q = p^m <= 2^16 with p prime, as the tables hold at most uint16.
    ``reduction_polynomial`` is the fixed one for (p, m) of the module
    docstring, with coefficients in ascending power order ((0, 1), that is
    x, when m = 1).  The record builds its own ``exp_table`` and
    ``log_table``: one pair for every field, by ``_build_log_tables``, in
    the module docstring's layout.
    """

    q: int
    p: int = field(init=False)
    m: int = field(init=False)
    reduction_polynomial: tuple[int, ...] = field(init=False)
    exp_table: np.ndarray = field(init=False, repr=False, compare=False)
    log_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q > MAX_ORDER:
            raise ValueError(f"field order must be at most 2^16, got {self.q}")
        pp = _prime_power(self.q)
        if pp is None:
            raise ValueError(f"field order must be a prime power, got {self.q}")
        poly = _least_irreducible(*pp)
        exp, log = _build_log_tables(self.q, *pp, poly)
        # 0 included: its sentinel log must land on a zero of exp
        a = np.arange(self.q)
        if not (exp[log[a]] == a).all():
            raise ValueError("exp/log tables are inconsistent")
        for name, value in zip(("p", "m", "reduction_polynomial", "exp_table", "log_table"),
                               (*pp, poly, exp, log)):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """F_q with the fixed reduction polynomial for (p, m), for every prime
    power 2 <= q <= 2^16; rejects everything else."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise TypeError(f"field order must be an integer, got {type(q).__name__}")
    return FieldSpec(q)


def entry_dtype(q: int):
    """Smallest unsigned dtype that holds values in [0, q)."""
    return np.uint8 if q <= 256 else np.uint16


# Dense q x q addition, subtraction and multiplication tables for q <= 256.
# No library code computes with them.  They stay because
# benchmarks/worker.py sizes them (with _DENSE_LIMIT) for its table_mb
# metric; the tests check them against the scalar reference operations.
# They can move to tests/ once the benchmark stops reading them.

@lru_cache(maxsize=None)
def _dense_tables(f: FieldSpec):
    """(add, sub, mul) tables: a +/- b = sum_k ((a_k +/- b_k) mod p) p^k over
    the base-p digits a_k, b_k, and a * b = exp[log a + log b]."""
    p, q = f.p, f.q
    d = np.arange(p)
    tables = []
    for digit in ((d[:, None] + d[None, :]) % p, (d[:, None] - d[None, :]) % p):
        # prepend digit k to the table over the k lower digits
        t = np.zeros((1, 1), dtype=np.int64)
        for k in range(f.m):
            n = p**k
            t = (digit[:, None, :, None] * n + t[None, :, None, :]).reshape(p * n, p * n)
        tables.append(t)
    tables.append(f.exp_table[f.log_table[:, None] + f.log_table[None, :]])
    return tuple(t.astype(entry_dtype(q)) for t in tables)


@lru_cache(maxsize=None)
def _inv_table(f: FieldSpec) -> np.ndarray:
    """inv_table[a] = a^-1 = g^(q - 1 - log a) for a != 0; entry 0 is 0."""
    out = np.zeros(f.q, dtype=np.int64)
    out[1:] = f.exp_table[(f.q - 1) - f.log_table[1:]]
    return out


@lru_cache(maxsize=None)
def _zech_tables(f: FieldSpec):
    """Tables for ``b + x*y`` over an odd-characteristic extension as
    ``exp[lc + zech[logp[b] - lc]]``, with ``lc = log[x] + ly`` and ``ly`` the
    log of y in ``[0, 2q - 3)``, or ``log[0] + k`` (k < q - 1) for y = 0.

    zech[k] = log(1 + g^k) (Zech logarithms: K. Huber, IEEE Trans. Inf.
    Theory 36(4), 1990), and 1 + g^k is g^k with digit 0 raised by one mod
    p.  Zero operands are regions of the tables, not masks.  ``logp`` is the
    log plus ``off``, the largest lc of a nonzero x*y; b = 0 lands where
    ``zech`` is 0, giving g^lc.  The log of 0 is so low that x*y = 0 lands
    where ``zech`` is the difference minus ``off``, giving b.  exp is zero
    where 1 + g^k = 0 and b = x*y = 0 land.  The logs are int32.
    """
    n = f.q - 1
    off = 3 * n - 3
    # differences: b = 0 in [off + n, bzero], x*y = 0 from bzero + 1 on
    bzero = 2 * off + n
    lzero = -(off + 3 * n - 1)
    log = f.log_table.astype(np.int32)
    log[0] = lzero
    logp = log + off
    logp[0] = bzero
    zech = np.arange(bzero - 2 * lzero + 1, dtype=np.int32) - off
    zech[off + n:bzero + 1] = 0
    d = np.arange(off + n)
    e = f.exp_table[:n].astype(np.intp)
    one_plus = e - e % f.p + (e % f.p + 1) % f.p
    zech[d] = np.where(one_plus == 0, off + n, f.log_table[one_plus])[(d - off) % n]
    exp = np.zeros(bzero + 1, dtype=entry_dtype(f.q))
    exp[d] = f.exp_table[d % n]
    return log, logp, zech, exp
