import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from rlnc_bounds.bounds import NetworkParams, evaluate_all
from rlnc_bounds.fields import entry_dtype, make_field
from rlnc_bounds import cli, simulate
from rlnc_bounds.simulate import StateSpaceExceeded, estimate_pfail, exact_pfail
import support
from support import exact_pfail_full_joint, sample_received_matrix, scalar_rank, trial_rng


def P(n, m, q, esr, erd):
    return NetworkParams(n, m, q, esr, erd)


# ---------------------------------------------------------------------------
# coefficient sampling


def test_total_erasure_always_samples_zero():
    u = np.random.default_rng(0).random(50)
    assert (simulate._coefficients_from_uniform(u, 1.0, 4) == 0).all()


def test_binary_no_erasure_always_samples_one():
    u = np.random.default_rng(0).random(50)
    assert (simulate._coefficients_from_uniform(u, 0.0, 2) == 1).all()


def test_coefficient_frequencies_match_the_model():
    # 10^6 draws at eps_sr=0.5 over F_4: zero half the time, each nonzero 1/6
    n = 1_000_000
    u = np.random.default_rng(123).random(n)
    counts = np.bincount(simulate._coefficients_from_uniform(u, 0.5, 4), minlength=4)
    for value, want in enumerate([0.5, 1 / 6, 1 / 6, 1 / 6]):
        tol = 4.0 * math.sqrt(want * (1 - want) / n)
        assert abs(counts[value] / n - want) < tol, (value, counts[value] / n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 64, 256, 257, 65536])
def test_coefficient_mapping_matches_its_scalar_twin(q):
    philox = np.random.Generator(np.random.Philox(q)).random(10**5)
    for eps in (0.0, 0.3, 0.5, 0.7, float(np.nextafter(1.0, 0.0)), 1.0):
        edges = [0.0, eps, np.nextafter(eps, -1.0), np.nextafter(eps, 1.0),
                 np.nextafter(1.0, 0.0)]
        u = np.concatenate([edges, philox])
        before = u.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulate._coefficients_from_uniform(u, eps, q)
        # the points of a group map the same uniforms, so none may write them
        assert np.array_equal(u, before)
        assert got.dtype == entry_dtype(q)
        want = [support._coefficient_from_uniform(x, eps, q) for x in u.tolist()]
        assert got.tolist() == want, eps


# ---------------------------------------------------------------------------
# matrix sampling


def test_full_relay_erasure_gives_empty_matrix():
    a = sample_received_matrix(P(3, 4, 2, 0.2, 1.0), np.random.default_rng(1))
    assert a.shape == (0, 3)


def test_binary_perfect_channels_give_all_ones():
    a = sample_received_matrix(P(3, 4, 2, 0.0, 0.0), np.random.default_rng(1))
    assert a.shape == (4, 3)
    assert (a == 1).all()


def test_mean_delivered_rows():
    p = P(2, 8, 2, 0.5, 0.3)
    rng = np.random.default_rng(5)
    n = 100_000
    total = sum(len(sample_received_matrix(p, rng)) for _ in range(n))
    want = 8 * 0.7
    tol = 4.0 * math.sqrt(8 * 0.3 * 0.7 / n)
    assert abs(total / n - want) < tol


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_single_source_squares_the_erasure():
    r = exact_pfail(P(1, 2, 2, 0.5, 0.0))
    assert r.p_fail == pytest.approx(0.25, abs=1e-15)


def test_exact_degenerate_all_ones_always_fails():
    r = exact_pfail(P(2, 2, 2, 0.0, 0.0))
    assert r.p_fail == 1.0


def test_exact_frozen_value_and_state_count():
    r = exact_pfail(P(2, 3, 2, 0.2, 0.1))
    assert r.p_fail == pytest.approx(float(Fraction(780893, 1953125)), abs=1e-15)
    assert r.state_count == 512  # 2^(3*2) matrices x 2^3 erasure patterns


# rows = 0, rows < cols, rows = cols and rows > cols
ZERO_COUNT_CASES = [(2, 3, 0), (2, 3, 2), (2, 3, 3), (2, 2, 4), (3, 2, 3), (4, 2, 2),
                    (5, 2, 2), (9, 2, 2), (9, 1, 3)]


@pytest.mark.parametrize("q, cols, rows", ZERO_COUNT_CASES)
def test_conditional_failure_matches_matrix_enumeration(q, cols, rows):
    # P(fail | r) is exact_pfail with no relay erasures; r = 0 delivered rows
    # is one relay that is always erased
    m, erd = (rows, 0.0) if rows else (1, 1.0)
    hist = support.singular_zero_counts(make_field(q), cols, rows)
    for esr in (0.0, 0.3, 0.5, 0.9, 1 / q, 1.0):
        want = support.pfail_from_zero_counts(hist, q, Fraction(esr))
        assert exact_pfail(P(cols, m, q, esr, erd)).p_fail == float(want), (esr, want)


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q, n", [(q, n) for q in (2, 3, 4, 5, 9) for n in (1, 2, 3)]
                         + [(2, 4), (3, 4)])
def test_echelon_enumeration_finds_every_subspace_once(q, n):
    dims, enums = simulate._subspaces(q, n)
    assert np.bincount(dims, minlength=n + 1).tolist() == [
        _gaussian_binomial(n, k, q) for k in range(n + 1)]
    assert (enums.sum(axis=1) == q ** dims).all()
    codims = n - dims
    assert sum((-1) ** d * q ** (d * (d - 1) // 2) for d in codims.tolist()) == 0
    # a nonzero vector lies in [n - 1 choose k - 1]_q subspaces of dimension k,
    # and there are C(n, z) (q - 1)^(n - z) with z zero coordinates
    for k in range(1, n + 1):
        got = enums[dims == k].sum(axis=0).tolist()
        want = [math.comb(n, z) * (q - 1) ** (n - z) * _gaussian_binomial(n - 1, k - 1, q)
                for z in range(n)]
        assert got == want + [_gaussian_binomial(n, k, q)], k


def test_an_exact_relay_sweep_ranks_once(monkeypatch, capsys):
    # the subspace table is built once per (q, N), whatever M
    calls, rank_batch = [], simulate.rank_batch

    def counted(field, mats):
        calls.append(mats.shape)
        return rank_batch(field, mats)

    monkeypatch.setattr(simulate, "rank_batch", counted)
    simulate._mobius_classes.cache_clear()
    try:
        assert cli.main(["sweep", "--axis", "relays", "--values", "2,3,4,5,6",
                         "--sources", "2", "--relays", "2", "--field", "3",
                         "--eps-sr", "0.3", "--eps-rd", "0.1", "--no-sim", "--exact"]) == 0
    finally:
        simulate._mobius_classes.cache_clear()
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert calls == [(4 * 9, 3, 2)]  # the 4 lines of F_3^2 against its 9 vectors


def test_exact_guard_rejects_large_instances():
    with pytest.raises(StateSpaceExceeded):
        exact_pfail(P(3, 20, 64, 0.2, 0.1))


@pytest.mark.parametrize("n,m,q,esr,erd", [
    (2, 3, 2, 0.2, 0.1),
    (2, 2, 3, 0.25, 0.5),
    (1, 3, 2, 0.9, 0.25),
])
def test_exact_matches_full_joint_enumeration(n, m, q, esr, erd):
    f = make_field(q)
    want = exact_pfail_full_joint(f, n, m, Fraction(esr), Fraction(erd))
    got = exact_pfail(P(n, m, q, esr, erd))
    assert got.p_fail == pytest.approx(float(want), abs=1e-15)


@pytest.mark.parametrize("q, shapes", [
    (2, ((1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))),
    (4, ((1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3))),
])
def test_exact_equals_the_uniform_closed_form(q, shapes):
    # eps_sr = 1/q makes every coefficient uniform; 1/2 and 1/4, and the
    # erasure rates below, are exact in binary, so the floats are exact
    for n, m in shapes:
        for erd in (0.0, 0.25, 0.5):
            want = support.uniform_pfail_frac(n, m, q, Fraction(erd))
            assert exact_pfail(P(n, m, q, 1 / q, erd)).p_fail == float(want), (n, m, erd)


def test_exact_sits_inside_all_bounds_on_a_small_grid():
    for (n, m) in ((1, 3), (2, 3), (2, 4)):
        for q in (2, 3):
            for esr in (0.0, 0.25, 0.9):
                for erd in (0.0, 0.5):
                    p = P(n, m, q, esr, erd)
                    ex = exact_pfail(p).p_fail
                    bs = evaluate_all(p)
                    assert bs.lb_new - 1e-9 <= ex <= bs.ub_new + 1e-9
                    assert bs.lb_old - 1e-9 <= ex <= min(1.0, bs.ub_old_raw) + 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_estimate_is_exactly_one_under_total_erasure():
    e = estimate_pfail(P(2, 3, 2, 1.0, 0.0), trials=2000, seed=9)
    assert e.failures == e.trials
    assert e.estimate == 1.0
    assert e.ci_low == e.ci_high == 1.0


def test_single_source_estimate_matches_closed_form():
    p = P(1, 5, 2, 0.3, 0.2)
    e = estimate_pfail(p, trials=100_000, seed=11)
    want = 0.44**5
    sigma = math.sqrt(want * (1 - want) / e.trials)
    assert abs(e.estimate - want) < 4 * sigma


def test_estimate_matches_exact_oracle():
    p = P(2, 3, 2, 0.2, 0.1)
    ex = exact_pfail(p).p_fail
    e = estimate_pfail(p, trials=100_000, seed=13)
    sigma = math.sqrt(ex * (1 - ex) / e.trials)
    assert abs(e.estimate - ex) < 4 * sigma
    assert e.ci_low <= e.estimate <= e.ci_high


def test_estimates_are_deterministic():
    p = P(3, 5, 4, 0.4, 0.2)
    a = estimate_pfail(p, trials=4000, seed=21)
    b = estimate_pfail(p, trials=4000, seed=21)
    assert a == b
    c = estimate_pfail(p, trials=4000, seed=22)
    assert c.failures != a.failures or c.seed != a.seed


def test_batch_partitioning_does_not_change_the_estimate():
    p = P(3, 6, 4, 0.5, 0.3)
    a, b, c = (estimate_pfail(p, 3000, 5, simulate.TrialDraws(3, 6, 3000, 5, batch_size=k))
               for k in (4096, 7, 1000))
    assert a == b == c == estimate_pfail(p, 3000, 5)


def test_the_uniforms_cap_bounds_every_draw_and_keeps_the_counts(monkeypatch, draw_sizes):
    p = P(3, 6, 4, 0.5, 0.3)  # 24 uniforms a trial
    want = estimate_pfail(p, trials=3000, seed=5)
    draw_sizes.clear()
    monkeypatch.setattr(simulate, "_BATCH_UNIFORMS", 5 * 24 + 3)
    assert estimate_pfail(p, trials=3000, seed=5) == want
    assert max(draw_sizes) == 5 * 24 and sum(draw_sizes) == 3000 * 24


def test_a_group_shares_the_batches_of_its_first_batch_trials_only(draw_sizes):
    # 5000 trials in 1024-trial batches of 24 uniforms a trial: the four
    # batches within BATCH_TRIALS are drawn once for both points, the last
    # one once for each
    points = (P(3, 6, 4, 0.5, 0.3), P(3, 6, 2, 0.2, 0.1))
    want = [estimate_pfail(p, 5000, 5) for p in points]
    draw_sizes.clear()
    draws = simulate.TrialDraws(3, 6, 5000, 5, 1024, readers=2)
    assert [estimate_pfail(p, 5000, 5, draws) for p in points] == want
    assert draw_sizes == [1024 * 24] * 4 + [904 * 24] * 2
    assert not draws._open  # every batch is dropped once both points read it


def test_many_threads_reading_one_group_draw_each_batch_once(draw_sizes):
    # eight readers on threads that switch every microsecond: a lost update
    # of the group's bookkeeping would draw a batch twice, leave one open or
    # hand a point another batch's uniforms
    points = [P(3, 6, q, esr, erd) for q in (2, 4) for esr in (0.2, 0.6)
              for erd in (0.1, 0.3)]
    want = [estimate_pfail(p, 3000, 7) for p in points]
    draw_sizes.clear()
    draws = simulate.TrialDraws(3, 6, 3000, 7, 256, readers=len(points))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(points)) as pool:
            futures = [pool.submit(estimate_pfail, p, 3000, 7, draws) for p in points]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert sorted(draw_sizes) == [184 * 24] + [256 * 24] * 11
    assert not draws._open


@pytest.mark.parametrize("key", [(3, 6, 600, 5), (3, 5, 601, 5), (3, 5, 600, 6)],
                         ids=["size", "trials", "seed"])
def test_draws_made_for_another_group_are_refused(key):
    draws = simulate.TrialDraws(*key)
    with pytest.raises(ValueError, match="draws made for"):
        estimate_pfail(P(3, 5, 4, 0.3, 0.2), 600, 5, draws)


@pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64 - 1])
def test_a_pure_python_philox_replays_the_draws(seed):
    # the documented contract, Philox4x64-10 from its paper, against numpy's
    p = P(2, 3, 4, 0.3, 0.2)  # 9 uniforms a trial, in a window of 3 blocks
    for t in (0, 1, 7, 2**20):
        want = trial_rng(p, seed, t).random(9).tolist()
        assert support.trial_uniforms(p, seed, t) == want, t


def test_batched_estimator_equals_per_trial_sampling():
    # the fast path must replay exactly the per-trial substream draws
    p = P(2, 4, 3, 0.3, 0.25)
    trials, seed = 1500, 17
    f = make_field(p.q)
    failures = sum(scalar_rank(f, sample_received_matrix(p, trial_rng(p, seed, t)), 2) < 2
                   for t in range(trials))
    assert estimate_pfail(p, trials, seed).failures == failures


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        estimate_pfail(P(1, 1, 2, 0.5, 0.5), trials=0)


def test_batch_size_must_be_positive():
    with pytest.raises(ValueError, match="batch_size"):
        simulate.TrialDraws(1, 1, 10, batch_size=0)


@pytest.mark.parametrize("kw", [{"batch_size": 2.5}, {"batch_size": True}, {"readers": 0},
                                {"readers": 2.0}],
                         ids=["batch_size-float", "batch_size-bool", "readers-zero",
                              "readers-float"])
def test_draw_groups_reject_bad_batch_sizes_and_reader_counts(kw):
    # a float batch size would end in range()'s TypeError, and with no readers
    # a shared batch would stay open for the group's lifetime
    with pytest.raises(ValueError, match=next(iter(kw))):
        simulate.TrialDraws(2, 3, 100, 1, **kw)


@pytest.mark.parametrize("kw", [{"seed": 1.5}, {"seed": True}, {"seed": 2.0**40},
                                {"trials": 2000.0}, {"trials": True}, {"trials": np.int64(5)}],
                         ids=["seed-fraction", "seed-bool", "seed-float", "trials-float",
                              "trials-bool", "trials-numpy"])
def test_seeds_and_trial_counts_must_be_ints(kw):
    # a float seed would run another seed's stream than the one it reports,
    # and a float trial count would end in range()'s TypeError
    args = {"trials": 2000, "seed": 0, **kw}
    with pytest.raises(ValueError, match=next(iter(kw))):
        estimate_pfail(P(3, 5, 2, 0.3, 0.1), **args)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seeds_are_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        estimate_pfail(P(3, 5, 2, 0.3, 0.1), 100, seed=seed)


def test_seeds_above_2_63_keep_their_own_stream():
    # a list key would round these through float64: 2^63 + 1 onto 2^63,
    # and 2^64 - 1 onto 0 with a cast warning
    p, trials = P(2, 4, 3, 0.3, 0.25), 600
    seeds = (0, 2**63, 2**63 + 1, 2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [estimate_pfail(p, trials, s).failures for s in seeds]
    f = make_field(p.q)
    want = [sum(scalar_rank(f, sample_received_matrix(p, trial_rng(p, s, t)), 2) < 2
                for t in range(trials)) for s in seeds]
    assert got == want
    assert len(set(got)) == 4
