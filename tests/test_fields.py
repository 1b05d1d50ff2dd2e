import dataclasses
from time import perf_counter

import numpy as np
import pytest

from rlnc_bounds import fields
from rlnc_bounds.bounds import NetworkParams
from rlnc_bounds.fields import (FieldSpec, _dense_tables, _inv_table, _prime_power, entry_dtype,
                                make_field)
from support import (check_field_axioms, least_irreducible_by_trial_division,
                     prime_power_by_trial_division, scalar_ops)

ALL_PRIME_POWERS_256 = [q for q in range(2, 257) if prime_power_by_trial_division(q)]


# ---------------------------------------------------------------------------
# construction


def test_prime_field_basics():
    f = make_field(2)
    assert (f.p, f.m) == (2, 1)
    assert scalar_ops(f).add(1, 1) == 0


def test_f4_uses_the_only_irreducible_quadratic():
    f = make_field(4)
    assert f.reduction_polynomial == (1, 1, 1)  # x^2 + x + 1
    assert scalar_ops(f).mul(2, 2) == 3  # x * x = x + 1


def test_fixed_reduction_polynomials():
    # lexicographically least monic irreducible per (p, m)
    assert make_field(8).reduction_polynomial == (1, 1, 0, 1)          # x^3+x+1
    assert make_field(16).reduction_polynomial == (1, 1, 0, 0, 1)      # x^4+x+1
    assert make_field(64).reduction_polynomial == (1, 1, 0, 0, 0, 0, 1)
    assert make_field(256).reduction_polynomial == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert make_field(9).reduction_polynomial == (1, 0, 1)             # x^2+1 over F_3


def test_ben_or_finds_the_trial_division_polynomial():
    # every (p, m) with p^m <= 2^16, m = 1 (the polynomial x) at every prime
    pairs = [pp for q in range(2, fields.MAX_ORDER + 1) if (pp := _prime_power(q))]
    assert len(pairs) == 6635
    for p, m in pairs:
        assert fields._least_irreducible(p, m) == least_irreducible_by_trial_division(p, m), (p, m)


def test_rejects_non_prime_powers():
    for bad in (6, 10, 12, 100, 65535):
        with pytest.raises(ValueError, match="prime power"):
            make_field(bad)


def test_prime_power_matches_trial_division_below_1e5():
    for q in range(-1, 10**5):
        assert _prime_power(q) == prime_power_by_trial_division(q), q


@pytest.mark.parametrize("q, want", [
    (2**61 - 1, (2**61 - 1, 1)),
    (3**39, (3, 39)),
    ((2**31 - 1) ** 2, (2**31 - 1, 2)),
    (3 * (2**61 - 1), None),
    (2**64, (2, 64)),
    # 399165290221 * 798330580441, a strong pseudoprime to the prime bases
    # 2..37; base 41 exposes it
    (318665857834031151167461, None),
])
def test_prime_power_of_large_orders_is_fast(q, want):
    # trial division needs minutes for 2^61 - 1
    t0 = perf_counter()
    assert _prime_power(q) == want
    assert perf_counter() - t0 < 0.5


def test_network_params_accept_a_large_prime_order_at_once():
    t0 = perf_counter()
    NetworkParams(2, 3, 100000000000031, 0.1, 0.1)
    with pytest.raises(ValueError, match="prime power"):
        NetworkParams(2, 3, 100000000000031 * 3, 0.1, 0.1)
    assert perf_counter() - t0 < 0.5


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
    ops = scalar_ops(f)
    a, b = 12345, 54321
    assert ops.mul(a, ops.inv(a)) == 1
    assert ops.mul(a, b) == ops.mul(b, a)
    # the library's tables against the oracle's own arithmetic
    assert f.exp_table[f.log_table[a] + f.log_table[b]] == ops.mul(a, b)
    assert _inv_table(f)[a] == ops.inv(a)


def _no_tables(*args):
    raise AssertionError("tables built for a rejected field")


def test_fieldspec_rejects_orders_above_2_16(monkeypatch):
    # the tables hold at most uint16; the order is checked before anything else
    monkeypatch.setattr(fields, "_build_log_tables", _no_tables)
    with pytest.raises(ValueError, match="2\\^16"):
        FieldSpec(2**17)


@pytest.mark.parametrize("q", [4.0, np.int64(4), True], ids=["float", "numpy-int", "bool"])
def test_fieldspec_rejects_orders_that_are_not_ints(q):
    make_field(4)  # a cached 4 must not answer for 4.0 or np.int64(4)
    for build in (FieldSpec, make_field):
        with pytest.raises(TypeError, match="field order must be an integer"):
            build(q)


def test_fieldspec_builds_its_own_tables():
    init = [f.name for f in dataclasses.fields(FieldSpec) if f.init]
    assert init == ["q"]
    for q, p, m, poly in ((5, 5, 1, (0, 1)), (9, 3, 2, (1, 0, 1))):
        f, g = FieldSpec(q), make_field(q)
        assert (f.p, f.m, f.reduction_polynomial) == (p, m, poly)
        assert f == g
        assert (f.exp_table == g.exp_table).all() and (f.log_table == g.log_table).all()


def test_exp_log_tables_are_consistent():
    for q in (2, 3, 4, 8, 9, 27, 64, 256, 257, 3125, 65521, 65536):
        f = make_field(q)
        for a in range(1, min(q, 300)):
            assert f.exp_table[f.log_table[a]] == a
        # the kernel's layout: log(0) is a sentinel past every sum of three
        # nonzero logs, and exp is periodic below it and zero from it on
        n = q - 1
        assert f.log_table.dtype == np.intp and f.exp_table.dtype == entry_dtype(q)
        assert f.log_table[0] == 3 * n and len(f.exp_table) == 7 * n
        assert (f.exp_table[:3 * n] == np.tile(f.exp_table[:n], 3)).all()
        assert not f.exp_table[3 * n:].any()


def _check_exp_walks_a_generator(q: int):
    # exp[k + 1] = exp[k] * g under the oracle's own multiplication, and g
    # = exp[1] has order q - 1: the exp[k] below q - 1 are distinct
    f = make_field(q)
    mul, exp = scalar_ops(f).mul, f.exp_table[:q].tolist()
    g = exp[1]
    assert exp[0] == 1
    assert all(exp[k + 1] == mul(exp[k], g) for k in range(q - 1)), q
    assert len(set(exp[:q - 1])) == q - 1, q


def test_exp_table_walks_a_generator_for_every_order_up_to_4096():
    orders = [q for q in range(2, 4097) if prime_power_by_trial_division(q)]
    assert len(orders) == 604  # 564 primes and 40 proper powers
    for q in orders:
        _check_exp_walks_a_generator(q)


@pytest.mark.parametrize("q", [2**16, 3**10, 5**6, 7**5, 65521])
def test_exp_table_walks_a_generator_at_large_orders(q):
    _check_exp_walks_a_generator(q)


# ---------------------------------------------------------------------------
# arithmetic


def test_prime_field_inverse_example():
    ops = scalar_ops(make_field(257))
    assert ops.inv(2) == 129
    assert ops.mul(2, 129) == 1


def test_inverse_of_zero_is_an_error():
    for q in (2, 9, 16, 251):
        with pytest.raises(ZeroDivisionError):
            scalar_ops(make_field(q)).inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 64, 81, 128, 243, 251, 256])
def test_axioms_exhaustive(q):
    check_field_axioms(make_field(q))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 64])
def test_inverse_exhaustive(q):
    ops = scalar_ops(make_field(q))
    for a in range(1, q):
        assert ops.mul(a, ops.inv(a)) == 1


@pytest.mark.parametrize("q", [4, 8, 16, 64, 256])
def test_frobenius_characteristic_two(q):
    ops = scalar_ops(make_field(q))
    for a in range(q):
        for b in range(q):
            lhs = ops.mul(ops.add(a, b), ops.add(a, b))
            rhs = ops.add(ops.mul(a, a), ops.mul(b, b))
            assert lhs == rhs


def test_large_prime_field_randomized():
    ops = scalar_ops(make_field(65521))
    rng = np.random.default_rng(11)
    trips = rng.integers(0, 65521, size=(3000, 3))
    for a, b, c in map(tuple, trips):
        a, b, c = int(a), int(b), int(c)
        assert ops.add(a, b) == ops.add(b, a)
        assert ops.mul(a, ops.add(b, c)) == ops.add(ops.mul(a, b), ops.mul(a, c))
        assert ops.mul(ops.mul(a, b), c) == ops.mul(a, ops.mul(b, c))
        if a:
            assert ops.mul(a, ops.inv(a)) == 1


def test_dense_and_inverse_tables_match_scalar_ops():
    rng = np.random.default_rng(23)
    sampled = (2, 3, 9, 64, 257, 729, 4096, 65521, 256)
    for q in sampled + tuple(q for q in ALL_PRIME_POWERS_256 if q not in sampled):
        f = make_field(q)
        ops = scalar_ops(f)
        a = rng.integers(0, q, size=200)
        b = rng.integers(0, q, size=200)
        if q <= 256:
            add, sub, mul = _dense_tables(f)
            assert (add[a, b] == [ops.add(int(x), int(y)) for x, y in zip(a, b)]).all()
            assert (sub[a, b] == [ops.sub(int(x), int(y)) for x, y in zip(a, b)]).all()
            assert (mul[a, b] == [ops.mul(int(x), int(y)) for x, y in zip(a, b)]).all()
        nz = a[a != 0]
        assert (_inv_table(f)[nz] == [ops.inv(int(x)) for x in nz]).all()


def test_all_prime_powers_up_to_256_enumerated():
    # guards the helper used by the acceptance field sweep: 54 primes plus
    # 16 proper powers below 257
    assert len(ALL_PRIME_POWERS_256) == 70
    assert ALL_PRIME_POWERS_256[:8] == [2, 3, 4, 5, 7, 8, 9, 11]
    assert 256 in ALL_PRIME_POWERS_256 and 243 in ALL_PRIME_POWERS_256
    assert 6 not in ALL_PRIME_POWERS_256
