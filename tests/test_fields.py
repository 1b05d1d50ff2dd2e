import numpy as np
import pytest

from rlnc_bounds.fields import FieldSpec, _dense_tables, _inv_table, make_field
from support import check_field_axioms

def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        n = q
        while n % p == 0:
            n //= p
        if n == 1:
            out.append(q)
    return out

ALL_PRIME_POWERS_256 = _prime_powers(256)


# ---------------------------------------------------------------------------
# construction


def test_prime_field_basics():
    f = make_field(2)
    assert (f.p, f.m) == (2, 1)
    assert f.add(1, 1) == 0


def test_f4_uses_the_only_irreducible_quadratic():
    f = make_field(4)
    assert f.reduction_polynomial == (1, 1, 1)  # x^2 + x + 1
    assert f.mul(2, 2) == 3  # x * x = x + 1


def test_fixed_reduction_polynomials():
    # lexicographically least monic irreducible per (p, m)
    assert make_field(8).reduction_polynomial == (1, 1, 0, 1)          # x^3+x+1
    assert make_field(16).reduction_polynomial == (1, 1, 0, 0, 1)      # x^4+x+1
    assert make_field(64).reduction_polynomial == (1, 1, 0, 0, 0, 0, 1)
    assert make_field(256).reduction_polynomial == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert make_field(9).reduction_polynomial == (1, 0, 1)             # x^2+1 over F_3


def test_rejects_non_prime_powers():
    for bad in (6, 10, 12, 100, 65535):
        with pytest.raises(ValueError, match="prime power"):
            make_field(bad)


def test_rejects_out_of_range_orders():
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError, match="2\\^16"):
        make_field((1 << 16) + 1)
    with pytest.raises(ValueError):
        make_field(1 << 17)


def test_largest_supported_extension_field():
    f = make_field(1 << 16)
    assert f.m == 16
    a, b = 12345, 54321
    assert f.mul(a, f.inv(a)) == 1
    assert f.mul(a, b) == f.mul(b, a)


def test_fieldspec_rejects_reducible_polynomial():
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(q=4, p=2, m=2, reduction_polynomial=(1, 0, 1))  # (x+1)^2


def test_exp_log_tables_are_consistent():
    for q in (4, 8, 9, 27, 64, 256):
        f = make_field(q)
        for a in range(1, q):
            assert f.exp_table[f.log_table[a]] == a


# ---------------------------------------------------------------------------
# arithmetic


def test_prime_field_inverse_example():
    f = make_field(257)
    assert f.inv(2) == 129
    assert f.mul(2, 129) == 1


def test_inverse_of_zero_is_an_error():
    for q in (2, 9, 16, 251):
        with pytest.raises(ZeroDivisionError):
            make_field(q).inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 64, 81, 128, 243, 251, 256])
def test_axioms_exhaustive(q):
    check_field_axioms(make_field(q))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 64])
def test_inverse_exhaustive(q):
    f = make_field(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [4, 8, 16, 64, 256])
def test_frobenius_characteristic_two(q):
    f = make_field(q)
    for a in range(q):
        for b in range(q):
            lhs = f.mul(f.add(a, b), f.add(a, b))
            rhs = f.add(f.mul(a, a), f.mul(b, b))
            assert lhs == rhs


def test_large_prime_field_randomized():
    f = make_field(65521)
    rng = np.random.default_rng(11)
    trips = rng.integers(0, f.q, size=(3000, 3))
    for a, b, c in map(tuple, trips):
        a, b, c = int(a), int(b), int(c)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_dense_and_inverse_tables_match_scalar_ops():
    rng = np.random.default_rng(23)
    for q in (2, 3, 9, 64, 257, 729, 4096, 65521, 256):
        f = make_field(q)
        a = rng.integers(0, q, size=200)
        b = rng.integers(0, q, size=200)
        if q <= 256:
            add, sub, mul = _dense_tables(f)
            assert (add[a, b] == [f.add(int(x), int(y)) for x, y in zip(a, b)]).all()
            assert (sub[a, b] == [f.sub(int(x), int(y)) for x, y in zip(a, b)]).all()
            assert (mul[a, b] == [f.mul(int(x), int(y)) for x, y in zip(a, b)]).all()
        nz = a[a != 0]
        assert (_inv_table(f)[nz] == [f.inv(int(x)) for x in nz]).all()


def test_all_prime_powers_up_to_256_enumerated():
    # guards the helper used by the acceptance field sweep: 54 primes plus
    # 16 proper powers below 257
    assert len(ALL_PRIME_POWERS_256) == 70
    assert ALL_PRIME_POWERS_256[:8] == [2, 3, 4, 5, 7, 8, 9, 11]
    assert 256 in ALL_PRIME_POWERS_256 and 243 in ALL_PRIME_POWERS_256
    assert 6 not in ALL_PRIME_POWERS_256
