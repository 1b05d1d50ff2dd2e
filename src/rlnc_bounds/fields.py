"""Prime-power finite fields: their parameters and arithmetic tables.

Field elements are plain integers in ``[0, q)``.  For an extension field
(q = p^m with m > 1) the integer packs the base-p digit vector of the
polynomial representation: digit k is the coefficient of x^k, so addition
is digit-wise mod p.  A :class:`FieldSpec` is an immutable, validated
record of the field and its tables; it has no arithmetic of its own.  The
batched kernel in ``linalg`` computes with the tables, and the scalar
reference operations the tests check it against live in
``tests/support.py``.

An extension field has one log/exp table pair, over a generator g of the
multiplicative group, laid out for products of up to three factors:
``log_table`` (intp, length q) holds log(a) in ``[0, q - 1)`` and the
sentinel log(0) = 3(q - 1); ``exp_table`` (entry dtype, length 7(q - 1))
holds g^k for every k below 3(q - 1) and 0 from 3(q - 1) on.  So
``exp[log a + log b + lc]``, with lc the log of a nonzero factor, is the
product, and 0 whenever a or b is 0.

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
    out = []
    for _ in range(length):
        out.append(value % p)
        value //= p
    return tuple(out)


def _pack(digits, p: int) -> int:
    out = 0
    for d in reversed(list(digits)):
        out = out * p + d
    return out


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
    """Trial division by every monic polynomial of degree <= deg(poly)/2."""
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        return False
    if poly[0] == 0:  # divisible by x
        return m == 1
    for d in range(1, m // 2 + 1):
        for enc in range(p**d):
            div = _digits(enc, p, d) + (1,)
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over F_p."""
    for enc in range(p**m):
        cand = _digits(enc, p, m) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m} over F_{p}")


def _ext_mul_fn(p: int, m: int, poly):
    """Scalar multiply for the extension field, used only to build tables."""
    if p == 2:
        red = _pack(poly, 2)
        mask = 1 << m

        def mul2(a: int, b: int) -> int:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & mask:
                    a ^= red
            return r

        return mul2

    def mulp(a: int, b: int) -> int:
        da, db = _digits(a, p, m), _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return _pack(_poly_rem(prod, poly, p), p)

    return mulp


def _build_log_tables(q: int, p: int, m: int, poly):
    """Discrete-log tables over a generator of the multiplicative group, in
    the layout of the module docstring."""
    mul = _ext_mul_fn(p, m, poly)

    def power(a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = mul(r, a)
            a = mul(a, a)
            k >>= 1
        return r

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

    gen = next(g for g in range(2, q)
               if all(power(g, order // f) != 1 for f in factors))

    powers = [1]
    for _ in range(order - 1):
        powers.append(mul(powers[-1], gen))
    if mul(powers[-1], gen) != 1:
        raise AssertionError("generator order mismatch")
    zero = 3 * order
    exp = np.zeros(2 * zero + order, dtype=entry_dtype(q))
    exp[:zero] = np.tile(powers, 3)
    log = np.full(q, zero, dtype=np.intp)
    log[powers] = np.arange(order)
    return exp, log


@dataclass(frozen=True)
class FieldSpec:
    """Immutable, validated description of F_q and its tables.

    q = p^m with p prime.  ``reduction_polynomial`` holds coefficients in
    ascending power order, monic of degree m (a placeholder (0, 1) when
    m = 1, where plain modular arithmetic applies).  ``exp_table`` and
    ``log_table`` are present exactly when m > 1, in the layout of the
    module docstring.
    """

    q: int
    p: int
    m: int
    reduction_polynomial: tuple[int, ...]
    exp_table: np.ndarray | None = field(default=None, repr=False, compare=False)
    log_table: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if _prime_power(self.q) != (self.p, self.m):
            raise ValueError(f"inconsistent field parameters q={self.q}, p={self.p}, m={self.m}")
        poly = self.reduction_polynomial
        if len(poly) != self.m + 1 or poly[-1] != 1 or any(not 0 <= c < self.p for c in poly[:-1]):
            raise ValueError("reduction polynomial must be monic of degree m with coefficients in [0, p)")
        if self.m > 1 and not _is_irreducible(poly, self.p):
            raise ValueError(f"reduction polynomial {poly} is reducible over F_{self.p}")
        if (self.exp_table is None) != (self.log_table is None):
            raise ValueError("exp/log tables must be given together")
        if self.exp_table is not None:
            # 0 included: its sentinel log must land on a zero of exp
            a = np.arange(self.q)
            if not (self.exp_table[self.log_table[a]] == a).all():
                raise ValueError("exp/log tables are inconsistent")


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build F_q with the fixed reduction polynomial for (p, m).

    Accepts any prime power 2 <= q <= 2^16; rejects everything else.
    Extension fields carry their log/exp tables.
    """
    if not isinstance(q, int) or isinstance(q, bool):
        raise TypeError(f"field order must be an integer, got {type(q).__name__}")
    if q > MAX_ORDER:
        raise ValueError(f"field order must be at most 2^16, got {q}")
    pp = _prime_power(q)
    if pp is None:
        raise ValueError(f"field order must be a prime power, got {q}")
    p, m = pp
    if m == 1:
        return FieldSpec(q, p, 1, (0, 1))
    poly = _least_irreducible(p, m)
    exp, log = _build_log_tables(q, p, m, poly)
    return FieldSpec(q, p, m, poly, exp, log)


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
    the base-p digits a_k, b_k, and a * b = a*b mod q for prime q, else
    exp[log a + log b]."""
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
    i = np.arange(q)
    if f.m == 1:
        tables.append(i[:, None] * i[None, :] % q)
    else:
        tables.append(f.exp_table[f.log_table[:, None] + f.log_table[None, :]])
    return tuple(t.astype(entry_dtype(q)) for t in tables)


@lru_cache(maxsize=None)
def _inv_table(f: FieldSpec) -> np.ndarray:
    """inv_table[a] = a^-1 for a != 0; entry 0 is a placeholder."""
    if f.m > 1:
        out = np.zeros(f.q, dtype=np.int64)
        out[1:] = f.exp_table[(f.q - 1) - f.log_table[1:]]
        return out
    # Fermat: a^(q-2) by vectorised square-and-multiply
    out = np.ones(f.q, dtype=np.int64)
    base = np.arange(f.q, dtype=np.int64)
    e = f.q - 2
    while e:
        if e & 1:
            out = (out * base) % f.q
        base = (base * base) % f.q
        e >>= 1
    out[0] = 0
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
