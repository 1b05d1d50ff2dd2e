"""Exact arithmetic over prime-power finite fields.

Field elements are plain integers in ``[0, q)``.  For an extension field
(q = p^m with m > 1) the integer packs the base-p digit vector of the
polynomial representation: digit k is the coefficient of x^k.  All context
travels in an immutable :class:`FieldSpec`, so operations are pure and safe
under arbitrary parallelism.

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


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p^m and p prime, or None."""
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
    """Discrete-log tables over a generator of the multiplicative group."""
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

    exp = np.zeros(2 * order, dtype=np.int32)
    log = np.zeros(q, dtype=np.int32)
    x = 1
    for i in range(order):
        exp[i] = x
        log[x] = i
        x = mul(x, gen)
    if x != 1:
        raise AssertionError("generator order mismatch")
    exp[order:] = exp[:order]
    return exp, log


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of F_q with its arithmetic tables.

    q = p^m with p prime.  ``reduction_polynomial`` holds coefficients in
    ascending power order, monic of degree m (a placeholder (0, 1) when
    m = 1, where plain modular arithmetic applies).  ``exp_table`` and
    ``log_table`` are present exactly when m > 1.
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
            a = np.arange(1, self.q)
            if not (self.exp_table[self.log_table[a]] == a).all():
                raise ValueError("exp/log tables are inconsistent")

    # Scalar operations.  Elements are assumed to lie in [0, q); only
    # inv(0) is a checked error, per the module contract.

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.q
        return _pack(((x + y) % self.p for x, y in
                      zip(_digits(a, self.p, self.m), _digits(b, self.p, self.m))), self.p)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.q
        return _pack(((-x) % self.p for x in _digits(a, self.p, self.m)), self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.q
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[self.log_table[a] + self.log_table[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no multiplicative inverse in F_{self.q}")
        if self.m == 1:
            return pow(a, -1, self.q)
        return int(self.exp_table[(self.q - 1) - self.log_table[a]])


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build F_q with the fixed reduction polynomial for (p, m).

    Accepts any prime power 2 <= q <= 2^16; rejects everything else.
    Extension fields carry discrete-log tables so multiplication is O(1).
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
# metric, and the tests check them against the scalar operations; they can
# move to tests/ once the benchmark stops reading them.

@lru_cache(maxsize=None)
def _dense_tables(f: FieldSpec):
    q = f.q
    i = np.arange(q, dtype=np.int64)
    a, b = i[:, None], i[None, :]
    if f.m == 1:
        add_t = (a + b) % q
        sub_t = (a - b) % q
        mul_t = (a * b) % q
    else:
        if f.p == 2:
            add_t = a ^ b
        else:
            add_t = np.zeros((q, q), dtype=np.int64)
            for x in range(q):
                for y in range(x, q):
                    s = f.add(x, y)
                    add_t[x, y] = add_t[y, x] = s
        neg = np.array([f.neg(x) for x in range(q)], dtype=np.int64)
        sub_t = add_t[:, neg]
        la, lb = f.log_table[a], f.log_table[b]
        mul_t = np.where((a == 0) | (b == 0), 0, f.exp_table[la + lb]).astype(np.int64)
    return tuple(t.astype(entry_dtype(q)) for t in (add_t, sub_t, mul_t))


@lru_cache(maxsize=None)
def _inv_table(f: FieldSpec) -> np.ndarray:
    """inv_table[a] = a^-1 for a != 0; entry 0 is a placeholder."""
    if f.m > 1:
        a = np.arange(f.q)
        out = f.exp_table[(f.q - 1) - f.log_table[a]].astype(np.int64)
        out[0] = 0
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
def _log_exp_tables(f: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Log and exp tables of an extension field for products
    ``exp[log[a] + log[b] + lc]``, where ``lc`` in ``[0, q - 1)`` is the log
    of a nonzero factor.

    The log of 0 is a sentinel above every sum of three true logs, and the
    exp table is zero from the sentinel on, so a product with a zero factor
    is 0.
    """
    order = f.q - 1
    zero = 3 * order
    log = f.log_table.astype(np.intp)
    log[0] = zero
    exp = np.zeros(2 * zero + order, dtype=entry_dtype(f.q))
    exp[:zero] = np.tile(f.exp_table[:order], 3)
    return log, exp


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
    e = f.exp_table[:n]
    one_plus = e - e % f.p + (e % f.p + 1) % f.p
    zech[d] = np.where(one_plus == 0, off + n, f.log_table[one_plus])[(d - off) % n]
    exp = np.zeros(bzero + 1, dtype=entry_dtype(f.q))
    exp[d] = f.exp_table[d % n]
    return log, logp, zech, exp
