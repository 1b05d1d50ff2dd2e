from fractions import Fraction

import pytest

from rlnc_bounds.bounds import (NetworkParams, _row_zero_sum_raw,
                                column_dependence_bound, evaluate_all,
                                expected_null_vectors, lb_new, lb_old,
                                row_zero_sum_prob, ub_new, ub_old,
                                zero_column_prob)
from support import (lb_old_binomial_form, mu0_frac, ub_old_binomial_form, ub_old_frac,
                     uniform_pfail)

EPS_GRID = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)


def P(n, m, q, esr, erd):
    return NetworkParams(n, m, q, esr, erd)


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


# ---------------------------------------------------------------------------
# row zero-sum probability


def test_weight_one_collapses_to_the_erasure_rate():
    for q in (2, 4, 64):
        for e in EPS_GRID:
            assert row_zero_sum_prob(P(3, 3, q, e, 0.0), 1) == pytest.approx(e, abs=1e-15)


def test_all_erased_rows_always_cancel():
    for q in (2, 3, 64):
        for w in (1, 2, 5):
            assert row_zero_sum_prob(P(5, 5, q, 1.0, 0.0), w) == 1.0


def test_binary_field_half_erasure_is_uniform():
    for w in range(1, 8):
        assert row_zero_sum_prob(P(8, 8, 2, 0.5, 0.0), w) == 0.5


def test_raw_value_stays_in_unit_interval():
    for q in (2, 3, 4, 64):
        for e in EPS_GRID:
            for w in range(1, 12):
                raw = _row_zero_sum_raw(P(12, 12, q, e, 0.0), w)
                assert -1e-12 <= raw <= 1 + 1e-12


def test_weight_bounds_are_enforced():
    with pytest.raises(ValueError):
        row_zero_sum_prob(P(3, 3, 2, 0.1, 0.0), 0)
    with pytest.raises(ValueError):
        row_zero_sum_prob(P(3, 3, 2, 0.1, 0.0), 4)


# ---------------------------------------------------------------------------
# expected null-vector count


def test_single_source_collapses_to_erasure_power():
    for rows in range(0, 6):
        for e in (0.0, 0.3, 1.0):
            got = expected_null_vectors(P(1, 5, 3, e, 0.0), rows)
            assert got == pytest.approx(e**rows, rel=1e-12, abs=1e-300)


def test_short_matrices_guarantee_a_null_vector():
    for n in (2, 4, 7):
        for rows in range(0, n):
            for q in (2, 4):
                assert expected_null_vectors(P(n, n, q, 0.3, 0.0), rows) >= 1.0


def test_frozen_rational_value():
    # independent rational evaluation gives 5163/15625
    want = mu0_frac(2, 2, Fraction(1, 5), 3)
    assert want == Fraction(5163, 15625)
    got = expected_null_vectors(P(2, 3, 2, 0.2, 0.0), 3)
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("n,q,esr,rows", [(3, 4, 0.3, 5), (5, 2, 0.7, 8),
                                          (4, 64, 0.1, 4), (6, 3, 0.9, 11)])
def test_matches_rational_oracle(n, q, esr, rows):
    want = mu0_frac(n, q, Fraction(esr).limit_denominator(10), rows)
    got = expected_null_vectors(P(n, rows, q, esr, 0.0), rows)
    assert got == pytest.approx(float(want), rel=1e-11)


# ---------------------------------------------------------------------------
# classic bounds


def test_ub_old_reduces_to_null_count_without_relay_erasures():
    for (n, m, q, e) in [(3, 5, 2, 0.4), (4, 6, 64, 0.2), (2, 2, 3, 0.9)]:
        p = P(n, m, q, e, 0.0)
        assert ub_old(p) == pytest.approx(expected_null_vectors(p, m), rel=1e-12)


def test_ub_old_saturates_under_total_erasure():
    for p in (P(3, 4, 2, 1.0, 0.2), P(3, 4, 2, 0.2, 1.0)):
        assert ub_old(p) >= 1.0
        assert evaluate_all(p).ub_old_clamped == 1.0


def test_ub_old_at_the_large_network_point():
    # The classic bound is loose here but, contrary to a first guess, only
    # exceeds 1 toward the erasure extremes; the mid-range values sit just
    # below 1 (cross-checked in exact rational arithmetic).
    want = ub_old_frac(30, 35, 2, Fraction(1, 2), Fraction(1, 10))
    got = ub_old(P(30, 35, 2, 0.5, 0.1))
    assert got == pytest.approx(float(want), rel=1e-11)
    assert 0.878 < got < 0.879
    assert ub_old(P(30, 35, 2, 0.1, 0.1)) > 4.2
    assert ub_old(P(30, 35, 2, 0.9, 0.1)) > 8.7


def test_binomial_regrouping_identity_small_grid():
    for n in (1, 3, 7):
        for q in (2, 4, 64):
            for esr in EPS_GRID:
                for erd in EPS_GRID:
                    p = P(n, n + 4, q, esr, erd)
                    a, b = ub_old(p), ub_old_binomial_form(p)
                    assert b == pytest.approx(a, rel=1e-9, abs=1e-300)


def test_binomial_form_edge_cases():
    p = P(3, 5, 4, 0.3, 0.0)
    assert ub_old_binomial_form(p) == pytest.approx(expected_null_vectors(p, 5), rel=1e-12)
    p1 = P(3, 5, 4, 0.3, 1.0)
    # total relay erasure leaves the projective count (q^N - 1)/(q - 1)
    assert ub_old_binomial_form(p1) == pytest.approx((4**3 - 1) / 3, rel=1e-12)


def test_lb_old_closed_form_equals_the_binomial_sum():
    # the identity grid of criterion 3; it holds a = e^M = 0 (no erasures)
    # and a = 1 (an erasure rate of 1)
    for n in range(1, 16):
        for m in range(n, n + 11):
            for esr in EPS_GRID:
                for erd in EPS_GRID:
                    p = P(n, m, 2, esr, erd)
                    assert abs(lb_old(p) - lb_old_binomial_form(p)) <= 1e-12, p


def test_lb_old_single_source():
    assert lb_old(P(1, 4, 2, 0.5, 0.5)) == pytest.approx(0.75**4, rel=1e-12)


def test_lb_old_no_erasures_is_zero():
    assert lb_old(P(5, 7, 2, 0.0, 0.0)) == 0.0


def test_lb_old_closed_form_example():
    got = lb_old(P(10, 12, 2, 0.7, 0.2))
    assert got == pytest.approx(1.0 - (1.0 - 0.76**12) ** 10, rel=1e-12)


def test_lb_old_ignores_field_size():
    a = lb_old(P(6, 9, 2, 0.35, 0.15))
    b = lb_old(P(6, 9, 64, 0.35, 0.15))
    assert a == b


# ---------------------------------------------------------------------------
# sharpened-bound building blocks


def test_dependence_bound_degenerate_binary_field():
    # without erasures every binary coefficient is 1: rows are identical
    for rows in (0, 1, 5, 9):
        assert column_dependence_bound(P(3, 9, 2, 0.0, 0.0), rows, "max") == 1.0


def test_dependence_bound_is_one_below_source_count():
    for which in ("max", "min"):
        for rows in range(0, 4):
            assert column_dependence_bound(P(4, 8, 4, 0.3, 0.0), rows, which) == 1.0


def test_dependence_bound_single_source():
    p = P(1, 6, 4, 0.3, 0.0)
    for rows in (1, 3, 6):
        assert column_dependence_bound(p, rows, "max") == pytest.approx(0.3**rows, rel=1e-12)
        assert column_dependence_bound(p, rows, "min") == pytest.approx((0.7 / 3) ** rows, rel=1e-12)


def test_dependence_bound_rejects_bad_mode():
    with pytest.raises(ValueError):
        column_dependence_bound(P(2, 2, 2, 0.1, 0.0), 2, "median")


def test_zero_column_prob_edges():
    p = P(4, 6, 4, 0.3, 0.0)
    assert zero_column_prob(p, 0) == 1.0
    assert zero_column_prob(P(1, 6, 4, 0.3, 0.0), 5) == pytest.approx(0.3**5, rel=1e-12)
    assert zero_column_prob(P(4, 6, 4, 0.0, 0.0), 3) == 0.0


# ---------------------------------------------------------------------------
# sharpened bounds


def test_single_source_pinch():
    for m in range(1, 11):
        for esr in EPS_GRID:
            for erd in EPS_GRID:
                p = P(1, m, 2, esr, erd)
                eff = esr + erd - esr * erd
                assert ub_new(p) == pytest.approx(eff**m, abs=1e-12)
                assert lb_new(p) == pytest.approx(eff**m, abs=1e-12)


def test_total_source_erasure_fails_certainly():
    assert ub_new(P(3, 5, 4, 1.0, 0.0)) == 1.0
    assert lb_new(P(3, 5, 4, 1.0, 0.2)) == 1.0


def test_perfect_channels_large_field_lower_bound_vanishes():
    assert lb_new(P(2, 4, 4, 0.0, 0.0)) == 0.0


def test_sharpened_bounds_bracket_the_classic_ones():
    for n in (2, 5, 9):
        for q in (2, 4, 64):
            for esr in EPS_GRID:
                for erd in (0.0, 0.1, 0.5, 1.0):
                    p = P(n, n + 3, q, esr, erd)
                    assert lb_new(p) <= ub_new(p) + 1e-12
                    assert ub_new(p) <= min(1.0, ub_old(p)) + 1e-12


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
                    p = P(n, n + 4, q, esr, erd)
                    bs = evaluate_all(p)
                    pmf = bs.tables.delivery_pmf
                    mixture = sum(w * zero_column_prob(p, r) for r, w in enumerate(pmf))
                    assert bs.lb_new >= mixture - 1e-12


def test_bounds_nonincreasing_in_relay_count():
    for q in (2, 4):
        prev_ub, prev_lb = 1.0, 1.0
        for m in range(10, 26):
            p = P(10, m, q, 0.3, 0.1)
            u, low = ub_new(p), lb_new(p)
            assert u <= prev_ub + 1e-12
            assert low <= prev_lb + 1e-12
            prev_ub, prev_lb = u, low


# ---------------------------------------------------------------------------
# aggregate evaluation


def test_evaluate_all_is_consistent_with_parts():
    p = P(4, 7, 4, 0.35, 0.15)
    bs = evaluate_all(p)
    assert bs.mu0 == pytest.approx(expected_null_vectors(p, 7), rel=1e-12)
    assert bs.lb_old == pytest.approx(lb_old(p), rel=1e-12)
    assert bs.lb_new == pytest.approx(lb_new(p), rel=1e-12)
    assert bs.ub_new == pytest.approx(ub_new(p), rel=1e-12)
    assert bs.ub_old_raw == pytest.approx(ub_old(p), rel=1e-12)
    assert bs.ub_old_clamped == min(1.0, bs.ub_old_raw)


def test_evaluate_all_fills_the_per_delivery_tables():
    p = P(3, 5, 2, 0.4, 0.3)
    bs = evaluate_all(p)
    t = bs.tables
    assert len(t.delivery_pmf) == 6
    assert sum(t.delivery_pmf) == pytest.approx(1.0, rel=1e-12)
    assert t.dependence_ub[0] == 1.0 and t.zero_column_prob[0] == 1.0
    assert t.expected_null_vectors[5] == pytest.approx(expected_null_vectors(p, 5), rel=1e-12)
    for r in range(6):
        assert t.dependence_lb[r] <= t.dependence_ub[r] + 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 64, 2**31 - 1])
def test_per_delivery_tables_equal_the_per_count_functions(q):
    # exact equality: the tables hoist r-independent terms out of the loops
    # and must not move a bit.  q = 2 with eps_sr = 0 has gamma_w = 0 for odd
    # w; eps_sr = 1 has beta = 1.
    for n, m in ((1, 3), (3, 2), (4, 9), (12, 20)):
        for esr in (0.0, 0.3, 1.0 / q, 0.8, 1.0):
            for erd in (0.0, 0.2, 1.0):
                p = P(n, m, q, esr, erd)
                bs = evaluate_all(p)
                t = bs.tables
                for r in range(m + 1):
                    assert t.expected_null_vectors[r] == expected_null_vectors(p, r)
                    assert t.dependence_ub[r] == column_dependence_bound(p, r, "max")
                    assert t.dependence_lb[r] == column_dependence_bound(p, r, "min")
                    assert t.zero_column_prob[r] == zero_column_prob(p, r)
                assert bs.mu0 == expected_null_vectors(p, m)
