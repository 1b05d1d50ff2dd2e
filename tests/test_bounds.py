import dataclasses
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import support
from rlnc_bounds import bounds
from rlnc_bounds.bounds import NetworkParams, _row_zero_sums_raw, _weight_terms, evaluate_all
from support import (dependence_frac, lb_old_binomial_form, mu0_frac, scalar_evaluate_all,
                     ub_old_binomial_form, ub_old_frac, uniform_pfail, zero_column_frac)

EPS_GRID = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)


def P(n, m, q, esr, erd):
    return NetworkParams(n, m, q, esr, erd)


def log_gammas(p):
    """log gamma_w for w = 1..N, as the null-vector series reads it."""
    return _weight_terms(p)[1][:, 0].tolist()


# ---------------------------------------------------------------------------
# params


def test_params_validation():
    with pytest.raises(ValueError):
        P(0, 1, 2, 0.1, 0.1)
    with pytest.raises(ValueError):
        P(1, 0, 2, 0.1, 0.1)
    with pytest.raises(ValueError):
        P(1, 1, 6, 0.1, 0.1)
    with pytest.raises(ValueError):
        P(1, 1, 2, -0.1, 0.1)
    with pytest.raises(ValueError):
        P(1, 1, 2, 0.1, 1.5)
    P(3, 2, 2, 0.0, 1.0)  # fewer relays than sources is accepted


@pytest.mark.parametrize("args", [(True, 2, 2, 0.3, 0.1), (2, True, 2, 0.3, 0.1),
                                  (2.0, 2, 2, 0.3, 0.1), (2, 2, 4.0, 0.3, 0.1)])
def test_params_reject_non_integer_counts(args):
    with pytest.raises(ValueError, match="integer"):
        P(*args)


@pytest.mark.parametrize("bad", [True, False, "0.5", None, 0.5j, math.nan])
@pytest.mark.parametrize("field", ["eps_sr", "eps_rd"])
def test_params_reject_non_real_and_nan_erasure_rates(field, bad):
    args = {"eps_sr": 0.3, "eps_rd": 0.1, field: bad}
    with pytest.raises(ValueError, match=field):
        NetworkParams(3, 5, 4, **args)


def test_params_store_erasure_rates_as_floats(monkeypatch):
    for esr, erd in ((0, 1), (Fraction(1, 4), np.float64(0.5)), (np.float32(0.25), 0)):
        p = P(3, 5, 4, esr, erd)
        assert type(p.eps_sr) is float and type(p.eps_rd) is float
        assert (p.eps_sr, p.eps_rd) == (float(esr), float(erd))
    # an int 0 is +0.0: the same zero-column bits as 0.0, and the same tables
    monkeypatch.setattr(bounds, "_last_tables", (None, None, ()))
    want = evaluate_all(P(3, 5, 4, 0.0, 0.1)).tables
    stored = bounds._last_tables
    got = evaluate_all(P(3, 5, 4, 0, 0.1)).tables
    assert [math.copysign(1.0, z) for z in got.zero_column_prob] == [1.0] * 6
    assert got == want
    assert bounds._last_tables is stored  # reused, not rebuilt


# ---------------------------------------------------------------------------
# row zero-sum probability


def test_weight_one_collapses_to_the_erasure_rate():
    for q in (2, 4, 64):
        for e in EPS_GRID:
            assert log_gammas(P(3, 3, q, e, 0.0))[0] == (math.log(e) if e else -math.inf)


def test_all_erased_rows_always_cancel():
    for q in (2, 3, 64):
        assert log_gammas(P(5, 5, q, 1.0, 0.0)) == [0.0] * 5


def test_binary_field_half_erasure_is_uniform():
    assert log_gammas(P(8, 8, 2, 0.5, 0.0)) == [math.log(0.5)] * 8


def test_raw_value_stays_in_unit_interval():
    for q in (2, 3, 4, 64):
        for e in EPS_GRID:
            for raw in _row_zero_sums_raw(P(11, 12, q, e, 0.0)):
                assert -1e-12 <= raw <= 1 + 1e-12


# ---------------------------------------------------------------------------
# expected null-vector count


def test_single_source_collapses_to_erasure_power():
    for rows in range(0, 6):
        for e in (0.0, 0.3, 1.0):
            got = evaluate_all(P(1, 5, 3, e, 0.0)).tables.expected_null_vectors[rows]
            assert got == pytest.approx(e**rows, rel=1e-12, abs=1e-300)


def test_short_matrices_guarantee_a_null_vector():
    for n in (2, 4, 7):
        for q in (2, 4):
            nulls = evaluate_all(P(n, n, q, 0.3, 0.0)).tables.expected_null_vectors
            for rows in range(0, n):
                assert nulls[rows] >= 1.0


def test_frozen_rational_value():
    # independent rational evaluation gives 5163/15625
    want = mu0_frac(2, 2, Fraction(1, 5), 3)
    assert want == Fraction(5163, 15625)
    got = evaluate_all(P(2, 3, 2, 0.2, 0.0)).tables.expected_null_vectors[3]
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("n,q,esr,rows", [(3, 4, 0.3, 5), (5, 2, 0.7, 8),
                                          (4, 64, 0.1, 4), (6, 3, 0.9, 11)])
def test_matches_rational_oracle(n, q, esr, rows):
    want = mu0_frac(n, q, Fraction(esr).limit_denominator(10), rows)
    got = evaluate_all(P(n, rows, q, esr, 0.0)).tables.expected_null_vectors[rows]
    assert got == pytest.approx(float(want), rel=1e-11)


# ---------------------------------------------------------------------------
# classic bounds


def test_ub_old_reduces_to_null_count_without_relay_erasures():
    for (n, m, q, e) in [(3, 5, 2, 0.4), (4, 6, 64, 0.2), (2, 2, 3, 0.9)]:
        bs = evaluate_all(P(n, m, q, e, 0.0))
        assert bs.ub_old_raw == pytest.approx(bs.tables.expected_null_vectors[m], rel=1e-12)


def test_ub_old_saturates_under_total_erasure():
    for p in (P(3, 4, 2, 1.0, 0.2), P(3, 4, 2, 0.2, 1.0)):
        bs = evaluate_all(p)
        assert bs.ub_old_raw >= 1.0
        assert bs.ub_old_clamped == 1.0


def test_ub_old_at_the_large_network_point():
    # The classic bound is loose here but, contrary to a first guess, only
    # exceeds 1 toward the erasure extremes; the mid-range values sit just
    # below 1 (cross-checked in exact rational arithmetic).
    want = ub_old_frac(30, 35, 2, Fraction(1, 2), Fraction(1, 10))
    got = evaluate_all(P(30, 35, 2, 0.5, 0.1)).ub_old_raw
    assert got == pytest.approx(float(want), rel=1e-11)
    assert 0.878 < got < 0.879
    assert evaluate_all(P(30, 35, 2, 0.1, 0.1)).ub_old_raw > 4.2
    assert evaluate_all(P(30, 35, 2, 0.9, 0.1)).ub_old_raw > 8.7


def test_binomial_regrouping_identity_small_grid():
    for n in (1, 3, 7):
        for q in (2, 4, 64):
            for esr in EPS_GRID:
                for erd in EPS_GRID:
                    p = P(n, n + 4, q, esr, erd)
                    bs = evaluate_all(p)
                    b = ub_old_binomial_form(p, bs.tables.expected_null_vectors)
                    assert b == pytest.approx(bs.ub_old_raw, rel=1e-9, abs=1e-300)


def test_binomial_form_edge_cases():
    p = P(3, 5, 4, 0.3, 0.0)
    nulls = evaluate_all(p).tables.expected_null_vectors
    assert ub_old_binomial_form(p, nulls) == pytest.approx(nulls[5], rel=1e-12)
    p1 = P(3, 5, 4, 0.3, 1.0)
    # total relay erasure leaves the projective count (q^N - 1)/(q - 1)
    nulls1 = evaluate_all(p1).tables.expected_null_vectors
    assert ub_old_binomial_form(p1, nulls1) == pytest.approx((4**3 - 1) / 3, rel=1e-12)


def test_lb_old_closed_form_equals_the_binomial_sum():
    # the identity grid of criterion 3; it holds a = e^M = 0 (no erasures)
    # and a = 1 (an erasure rate of 1)
    for n in range(1, 16):
        for m in range(n, n + 11):
            for esr in EPS_GRID:
                for erd in EPS_GRID:
                    p = P(n, m, 2, esr, erd)
                    assert abs(evaluate_all(p).lb_old - lb_old_binomial_form(p)) <= 1e-12, p


def test_lb_old_single_source():
    assert evaluate_all(P(1, 4, 2, 0.5, 0.5)).lb_old == pytest.approx(0.75**4, rel=1e-12)


def test_lb_old_no_erasures_is_zero():
    assert evaluate_all(P(5, 7, 2, 0.0, 0.0)).lb_old == 0.0


def test_lb_old_closed_form_example():
    got = evaluate_all(P(10, 12, 2, 0.7, 0.2)).lb_old
    assert got == pytest.approx(1.0 - (1.0 - 0.76**12) ** 10, rel=1e-12)


def test_lb_old_ignores_field_size():
    a = evaluate_all(P(6, 9, 2, 0.35, 0.15)).lb_old
    b = evaluate_all(P(6, 9, 64, 0.35, 0.15)).lb_old
    assert a == b


# ---------------------------------------------------------------------------
# sharpened-bound building blocks


def test_dependence_bound_degenerate_binary_field():
    # without erasures every binary coefficient is 1: rows are identical
    dep_ub = evaluate_all(P(3, 9, 2, 0.0, 0.0)).tables.dependence_ub
    for rows in (0, 1, 5, 9):
        assert dep_ub[rows] == 1.0


def test_dependence_bound_is_one_below_source_count():
    t = evaluate_all(P(4, 8, 4, 0.3, 0.0)).tables
    for dep in (t.dependence_ub, t.dependence_lb):
        for rows in range(0, 4):
            assert dep[rows] == 1.0


def test_dependence_bound_single_source():
    t = evaluate_all(P(1, 6, 4, 0.3, 0.0)).tables
    for rows in (1, 3, 6):
        assert t.dependence_ub[rows] == pytest.approx(0.3**rows, rel=1e-12)
        assert t.dependence_lb[rows] == pytest.approx((0.7 / 3) ** rows, rel=1e-12)


def test_zero_column_prob_edges():
    assert evaluate_all(P(4, 6, 4, 0.3, 0.0)).tables.zero_column_prob[0] == 1.0
    got = evaluate_all(P(1, 6, 4, 0.3, 0.0)).tables.zero_column_prob[5]
    assert got == pytest.approx(0.3**5, rel=1e-12)
    assert evaluate_all(P(4, 6, 4, 0.0, 0.0)).tables.zero_column_prob[3] == 0.0


# ---------------------------------------------------------------------------
# sharpened bounds


def test_single_source_pinch():
    for m in range(1, 11):
        for esr in EPS_GRID:
            for erd in EPS_GRID:
                bs = evaluate_all(P(1, m, 2, esr, erd))
                eff = esr + erd - esr * erd
                assert bs.ub_new == pytest.approx(eff**m, abs=1e-12)
                assert bs.lb_new == pytest.approx(eff**m, abs=1e-12)


def test_total_source_erasure_fails_certainly():
    assert evaluate_all(P(3, 5, 4, 1.0, 0.0)).ub_new == 1.0
    assert evaluate_all(P(3, 5, 4, 1.0, 0.2)).lb_new == 1.0


def test_perfect_channels_large_field_lower_bound_vanishes():
    assert evaluate_all(P(2, 4, 4, 0.0, 0.0)).lb_new == 0.0


def test_sharpened_bounds_bracket_the_classic_ones():
    for n in (2, 5, 9):
        for q in (2, 4, 64):
            for esr in EPS_GRID:
                for erd in (0.0, 0.1, 0.5, 1.0):
                    bs = evaluate_all(P(n, n + 3, q, esr, erd))
                    assert bs.lb_new <= bs.ub_new + 1e-12
                    assert bs.ub_new <= min(1.0, bs.ub_old_raw) + 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 64, 256, 65536])
def test_bounds_sandwich_the_uniform_closed_form(q):
    # at eps_sr = 1/q the exact failure probability has a closed form at
    # any size, figure sizes included
    count = 0
    for n in range(1, 31):
        for m in sorted({n, n + 1, n + 3, n + 5, 2 * n, 3 * n}):
            for erd in (0.0, 0.1, 0.3):
                bs = evaluate_all(P(n, m, q, 1.0 / q, erd))
                exact = uniform_pfail(n, m, q, erd)
                assert bs.lb_new - 1e-12 <= exact <= bs.ub_new + 1e-12, (n, m, erd)
                count += 1
    assert count == 531


def test_lb_new_dominates_the_zero_column_mixture():
    for n in (2, 4, 8):
        for q in (2, 4):
            for esr in EPS_GRID:
                for erd in (0.0, 0.1, 0.5, 1.0):
                    bs = evaluate_all(P(n, n + 4, q, esr, erd))
                    t = bs.tables
                    mixture = sum(w * z for w, z in zip(t.delivery_pmf, t.zero_column_prob))
                    assert bs.lb_new >= mixture - 1e-12


def test_bounds_nonincreasing_in_relay_count():
    for q in (2, 4):
        prev_ub, prev_lb = 1.0, 1.0
        for m in range(10, 26):
            bs = evaluate_all(P(10, m, q, 0.3, 0.1))
            u, low = bs.ub_new, bs.lb_new
            assert u <= prev_ub + 1e-12
            assert low <= prev_lb + 1e-12
            prev_ub, prev_lb = u, low


# ---------------------------------------------------------------------------
# aggregate evaluation


def test_evaluate_all_is_consistent_with_parts():
    # the scalar fields against rational forms and against the mixture of
    # the evaluator's own tables
    p = P(4, 7, 4, 0.35, 0.15)
    bs = evaluate_all(p)
    t = bs.tables
    esr, erd = Fraction(0.35), Fraction(0.15)
    assert bs.mu0 == pytest.approx(float(mu0_frac(4, 4, esr, 7)), rel=1e-12)
    assert bs.lb_old == pytest.approx(lb_old_binomial_form(p), rel=1e-12)
    low = sum(w * max(d, z) for w, d, z in zip(t.delivery_pmf, t.dependence_lb,
                                                t.zero_column_prob))
    up = sum(w * min(d, v, 1.0) for w, d, v in zip(t.delivery_pmf, t.dependence_ub,
                                                     t.expected_null_vectors))
    assert bs.lb_new == pytest.approx(low, rel=1e-12)
    assert bs.ub_new == pytest.approx(up, rel=1e-12)
    assert bs.ub_old_raw == pytest.approx(float(ub_old_frac(4, 7, 4, esr, erd)), rel=1e-12)
    assert bs.ub_old_clamped == min(1.0, bs.ub_old_raw)


def test_evaluate_all_fills_the_per_delivery_tables():
    bs = evaluate_all(P(3, 5, 2, 0.4, 0.3))
    t = bs.tables
    assert len(t.delivery_pmf) == 6
    assert sum(t.delivery_pmf) == pytest.approx(1.0, rel=1e-12)
    assert t.dependence_ub[0] == 1.0 and t.zero_column_prob[0] == 1.0
    want = float(mu0_frac(3, 2, Fraction(0.4), 5))
    assert t.expected_null_vectors[5] == pytest.approx(want, rel=1e-12)
    for r in range(6):
        assert t.dependence_lb[r] <= t.dependence_ub[r] + 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 64, 2**31 - 1])
def test_per_delivery_tables_equal_the_per_count_functions(q):
    # every table entry against its per-count form in exact rational
    # arithmetic.  q = 2 with eps_sr = 0 has gamma_w = 0 for odd w; eps_sr = 1
    # has beta = 1.
    count = 0
    for n, m in ((1, 3), (3, 2), (4, 9), (12, 20)):
        for esr in (0.0, 0.3, 1.0 / q, 0.8, 1.0):
            e = Fraction(esr)
            spread = (1 - e) / (q - 1)
            forms = {"expected_null_vectors": lambda r: mu0_frac(n, q, e, r),
                     "dependence_ub": lambda r: dependence_frac(n, max(e, spread), r),
                     "dependence_lb": lambda r: dependence_frac(n, min(e, spread), r),
                     "zero_column_prob": lambda r: zero_column_frac(n, e, r)}
            want = {name: [float(form(r)) for r in range(m + 1)]
                    for name, form in forms.items()}
            for erd in (0.0, 0.2, 1.0):
                bs = evaluate_all(P(n, m, q, esr, erd))
                for name, values in want.items():
                    got = getattr(bs.tables, name)
                    assert len(got) == m + 1
                    for r, (g, w) in enumerate(zip(got, values)):
                        assert g == pytest.approx(w, rel=1e-11, abs=1e-300), (name, n, m, esr, r)
                        count += 1
                assert bs.mu0 == bs.tables.expected_null_vectors[m]
    assert count == 11_400 // 5


# ---------------------------------------------------------------------------
# the array evaluation against the scalar loops, bit for bit


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _bitwise_differences(got, want) -> list[str]:
    """Every field of two BoundSets, tables entry by entry, that differs in
    value or in the sign of a zero."""
    diffs = []
    for field in dataclasses.fields(want):
        if field.name in ("params", "tables"):
            continue
        if not _same_bits(getattr(got, field.name), getattr(want, field.name)):
            diffs.append(field.name)
    for field in dataclasses.fields(want.tables):
        g, w = getattr(got.tables, field.name), getattr(want.tables, field.name)
        if len(g) != len(w) or not all(map(_same_bits, g, w)):
            diffs.append(field.name)
    return diffs


def test_mixtures_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # from Python 3.12 on, sum() of floats compensates its rounding; the
    # mixtures, and the reference they are compared with, add in order
    from rlnc_bounds.cli import _PRESETS

    points = [NetworkParams(**kw) for kws in _PRESETS.values() for kw in kws]
    want = [(evaluate_all(p), scalar_evaluate_all(p)) for p in points]
    monkeypatch.setattr(bounds, "sum", math.fsum, raising=False)
    monkeypatch.setattr(support, "sum", math.fsum, raising=False)
    assert [(evaluate_all(p), scalar_evaluate_all(p)) for p in points] == want


def _grid_points():
    shapes = [(n, m) for n in (1, 2, 3, 7, 20, 50, 200)
              for m in sorted({n, n + 1, 2 * n, 3 * n} if n < 200 else {n, 3 * n})]
    # fewer relays than sources, which the CLI accepts with a warning
    shapes += [(6, 3), (8, 4), (8, 5), (10, 7)]
    for n, m in shapes:
        for q in (2, 64, 65536, 2**31 - 1):
            for esr in (0.0, 1e-9, 1.0 / q, 0.3, 0.9, 1.0):
                for erd in (0.0, 0.1, 1.0):
                    yield NetworkParams(n, m, q, esr, erd)


def test_array_evaluation_equals_the_scalar_loops_bit_for_bit():
    # also no RuntimeWarning: pytest turns one into an error
    seen = {"zero gamma": 0, "saturated term": 0, "all -0.0 window": 0,
            "sum past the largest double": 0}
    count = 0
    for p in _grid_points():
        want = scalar_evaluate_all(p)
        assert _bitwise_differences(evaluate_all(p), want) == [], p
        count += 1
        prefix, log_gammas, _ = _weight_terms(p)
        seen["zero gamma"] += bool(np.isneginf(log_gammas).any())  # r = 0 is prefix alone
        seen["saturated term"] += bool(prefix.max() >= 709.0)
        seen["all -0.0 window"] += any(d == 0.0 and math.copysign(1.0, d) < 0
                                       for d in want.tables.dependence_lb)
        seen["sum past the largest double"] += math.isinf(want.tables.expected_null_vectors[0])
    assert count == 2088
    assert all(seen.values()), seen
    # the edge cases named in the module docstring, at the points that show them
    big = NetworkParams(200, 200, 64, 0.3, 0.1)
    assert _weight_terms(big)[0].max() >= 709.0
    assert math.isinf(evaluate_all(big).tables.expected_null_vectors[0])
    assert math.copysign(1.0, evaluate_all(NetworkParams(3, 5, 4, 0.0, 0.1))
                         .tables.dependence_lb[4]) < 0


@pytest.mark.parametrize("block", [1, 3, 50])
def test_block_size_changes_no_bit(monkeypatch, block):
    monkeypatch.setattr(bounds, "_BLOCK", block)
    monkeypatch.setattr(bounds, "_last_tables", (None, None, ()))  # every table built here
    for p in (NetworkParams(7, 21, 64, 0.3, 0.1), NetworkParams(20, 25, 4, 0.0, 0.1),
              NetworkParams(50, 80, 2**31 - 1, 0.9, 0.0)):
        assert _bitwise_differences(evaluate_all(p), scalar_evaluate_all(p)) == [], p


# ---------------------------------------------------------------------------
# per-count tables reused across the points of a sweep

RELAY_SWEEP = [NetworkParams(200, m, 64, 0.3, 0.1) for m in range(200, 601, 40)]
EPS_RD_SWEEP = [NetworkParams(20, 25, 4, 0.3, e) for e in (0.0, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0)]


@pytest.mark.parametrize("sweep", [RELAY_SWEEP, EPS_RD_SWEEP], ids=["relays", "eps_rd"])
def test_reused_tables_keep_every_bit_in_any_order(monkeypatch, sweep):
    want = {p: scalar_evaluate_all(p) for p in sweep}
    shuffled = sweep[:]
    np.random.default_rng(7).shuffle(shuffled)
    for order in (sweep, sweep[::-1], shuffled):
        monkeypatch.setattr(bounds, "_last_tables", (None, None, ()))
        for p in order:
            assert _bitwise_differences(evaluate_all(p), want[p]) == [], p


@pytest.mark.parametrize("signs", [(0.0, -0.0), (-0.0, 0.0)])
def test_zero_and_negative_zero_keep_their_own_tables(signs):
    # equal as values, but the zero-column terms at odd r take eps_sr's sign
    for esr in signs:
        for m in (3, 5):
            p = NetworkParams(3, m, 4, esr, 0.1)
            bs = evaluate_all(p)
            assert _bitwise_differences(bs, scalar_evaluate_all(p)) == [], p
        got = [math.copysign(1.0, z) for z in bs.tables.zero_column_prob]
        assert got == ([1.0] * 6 if math.copysign(1.0, esr) > 0 else [1.0, -1.0] * 3)


def test_concurrent_callers_get_their_own_tables():
    keys = ([NetworkParams(20, m, 64, 0.3, 0.1) for m in (25, 40, 21, 60, 30)],
            [NetworkParams(20, m, 64, 0.4, 0.1) for m in (60, 22, 45, 25, 50)])
    want = {p: scalar_evaluate_all(p) for ps in keys for p in ps}
    diffs, done = [], []

    def run(points):
        for _ in range(100):
            for p in points:
                diffs.extend((p, d) for d in _bitwise_differences(evaluate_all(p), want[p]))
                done.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter over as often as it can
    try:
        threads = [threading.Thread(target=run, args=(ps,)) for ps in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert diffs == [] and len(done) == 2 * 100 * 5


def test_a_build_interrupted_by_another_key_leaves_no_stale_terms(monkeypatch):
    # one caller is held inside its weight-term build while another key is
    # evaluated in full, the interleaving that random thread switches reach
    # too rarely; later points of either key must still get their own terms
    a, b = NetworkParams(20, 25, 64, 0.3, 0.1), NetworkParams(20, 40, 64, 0.4, 0.1)
    weight_terms = bounds._weight_terms
    entered, release = threading.Event(), threading.Event()

    def held(p):
        if p is a:
            entered.set()
            release.wait(10)
        return weight_terms(p)

    monkeypatch.setattr(bounds, "_weight_terms", held)
    monkeypatch.setattr(bounds, "_last_tables", (None, None, ()))
    got = {}
    thread = threading.Thread(target=lambda: got.update({a: evaluate_all(a)}))
    thread.start()
    assert entered.wait(10)
    got[b] = evaluate_all(b)
    release.set()
    thread.join(10)
    assert not thread.is_alive() and a in got
    for p in (NetworkParams(20, 30, 64, 0.4, 0.1), NetworkParams(20, 30, 64, 0.3, 0.1)):
        got[p] = evaluate_all(p)
    for p, bs in got.items():
        assert _bitwise_differences(bs, scalar_evaluate_all(p)) == [], p


def test_a_relay_sweep_builds_each_count_once(monkeypatch):
    # M = 200..600 in steps of 40: one column per r = 0..600, plus the classic
    # bound's column at each of the 11 points, and the weight terms once
    columns, weights = [], []
    series_sums, weight_terms = bounds._series_sums, bounds._weight_terms

    def counted(x):
        columns.append(x.shape[1])
        return series_sums(x)

    def counted_weights(p):
        weights.append(p)
        return weight_terms(p)

    monkeypatch.setattr(bounds, "_series_sums", counted)
    monkeypatch.setattr(bounds, "_weight_terms", counted_weights)
    monkeypatch.setattr(bounds, "_last_tables", (None, None, ()))
    for p in RELAY_SWEEP:
        evaluate_all(p)
    assert sum(columns) == 601 + len(RELAY_SWEEP)
    assert weights == RELAY_SWEEP[:1]
    columns.clear()
    for p in RELAY_SWEEP[::-1]:  # every table now within reach: the classic columns only
        evaluate_all(p)
    assert columns == [1] * len(RELAY_SWEEP)
    assert weights == RELAY_SWEEP[:1]


def test_accumulate_adds_along_an_axis_left_to_right():
    # The array evaluation relies on np.add.accumulate adding each column in
    # order, as += does.  Each column below is 1.0 then many halves of an ulp
    # of 1.0: added in order each half rounds away (a tie, to even), but
    # pairwise summation adds the halves first and ends above 1.0.
    n = 1000
    cols = np.full((n, 3), 2.0**-53)
    cols[0] = 1.0
    cols[:, 1] *= 3.0
    cols[0, 2] = 0.5
    looped = []
    for j in range(cols.shape[1]):
        total = 0.0
        for v in cols[:, j].tolist():
            total += v
        looped.append(total)
    assert np.add.accumulate(cols)[-1].tolist() == looped
    assert np.add.accumulate(cols.T, axis=1)[:, -1].tolist() == looped
    # the input tells the two orders apart
    assert np.add.reduce(np.ascontiguousarray(cols.T), axis=1).tolist() != looped
