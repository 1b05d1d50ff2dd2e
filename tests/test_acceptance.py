"""End-to-end acceptance suite.

Each test prints one ``[acceptance] criterion N ...: PASS/FAIL`` line
(visible with ``pytest -s`` or on failure) and then asserts.  The heavy
Monte Carlo runs are shared across criteria through module-scoped
fixtures; everything is seeded and deterministic.

Three criteria state the paper's claims ("markedly close to simulation",
"notably better than previous bounds") in the form that exact arithmetic
supports:

* criterion 4: on the full 17,820-point grid the sharpened upper bound
  never exceeds min(1, classic).  At the large-network point N=30, M=35,
  q=2, eps_rd=0.1 it is strictly below min(1, classic) at all nine fig2
  eps_sr values (0.39..0.48 against the classic 0.878..0.947 for eps_sr in
  [0.5, 0.8]), and the classic bound exceeds 1 exactly where the rational
  oracle ``support.ub_old_frac`` says it does: only at the erasure
  extremes (4.26 at eps_sr=0.1, 8.80 at eps_sr=0.9), which must not be
  empty.
* criterion 6: every preset point's 10^5-trial failure count k (seed 42)
  passes an exact two-sided binomial test against the bounds at the
  4-sigma level alpha = 2*Phi(-4): it is rejected if P(X <= k | lb_new) or
  P(X >= k | ub_new) falls below alpha/2.  A Wald band with sigma from the
  empirical rate would collapse at zero observed failures, which is what
  the fig5 q=4 tail gives (lb_new 4e-6..4e-10, where P(0 failures) is
  0.66..1.00).  The smallest tail over all 129 points is about 0.06
  (fig2 N=20, eps_sr=0.5, where the bounds pinch at 0.236).  At fig2's
  eps_sr = 0.5 = 1/q the coefficients are uniform and the exact failure
  probability has a closed form (``support.uniform_pfail``), so those
  three counts take the same test against the exact value itself.
* criterion 7: a larger field never raises the sharpened upper bound, and
  lowers it strictly except where the field-independent column-dependence
  term is the active minimum at every delivered count r >= N for both
  fields with the same symbol probability beta = max(eps_sr,
  (1-eps_sr)/(q-1)); there the two bounds must tie exactly.  That happens
  only at fig4 M = N = 10 (beta = 0.7 for q=2 and q=4; both bounds
  0.99514...).  Each of fig4 and fig5 must show at least one strict drop.
"""

import math
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rlnc_bounds.bounds import BoundSet, NetworkParams, evaluate_all
from rlnc_bounds.cli import _EPS_SR_GRID, _PRESETS, _simulate_points, main
from rlnc_bounds.fields import make_field
from rlnc_bounds.linalg import rank_batch
from rlnc_bounds import simulate
from rlnc_bounds.simulate import exact_pfail
from support import (binom_ge, binom_le, check_field_axioms, nullspace_rank,
                     ub_old_binomial_form, ub_old_frac, uniform_pfail)
from test_fields import ALL_PRIME_POWERS_256

SEED = 42
TRIALS = 100_000
ALPHA = math.erfc(4 / math.sqrt(2))  # two-sided 4-sigma level, 2*Phi(-4) ~ 6.33e-5
EPS_GRID = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)
TINY_SHAPES = ((1, 1), (1, 3), (2, 2), (2, 3), (2, 4))


def _report(name: str, failures: list, total: int):
    ok = not failures
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({total - len(failures)}/{total} cases)"
    print(line)
    for f in failures[:20]:
        print(f"    counterexample: {f}")
    if len(failures) > 20:
        print(f"    ... and {len(failures) - 20} more")
    assert ok, f"{name}: {len(failures)}/{total} cases failed; first: {failures[:3]}"


def _preset_params(name: str) -> list[NetworkParams]:
    return [NetworkParams(**kw) for kw in _PRESETS[name]]


@pytest.fixture(scope="module")
def identity_grid():
    rows = []
    for n in range(1, 16):
        for m in range(n, n + 11):
            for q in (2, 4, 64):
                for esr in EPS_GRID:
                    for erd in EPS_GRID:
                        p = NetworkParams(n, m, q, esr, erd)
                        bs = evaluate_all(p)
                        regrouped = ub_old_binomial_form(p, bs.tables.expected_null_vectors)
                        rows.append((p, bs.ub_old_raw, regrouped, bs.ub_new))
    return rows


@pytest.fixture(scope="module")
def preset_runs():
    """BoundSet and a 10^5-trial simulation for every preset point, simulated
    concurrently as the CLI does; the failure counts equal serial runs'."""
    names = ("fig2", "fig3", "fig4", "fig5")
    points = [(name, p) for name in names for p in _preset_params(name)]
    ests = _simulate_points([p for _, p in points], TRIALS, SEED)
    runs = {name: [] for name in names}
    for (name, p), est in zip(points, ests):
        runs[name].append((p, evaluate_all(p), est))
    return runs


def test_criterion_1_oracle_sandwich():
    failures, total = [], 0
    for (n, m) in TINY_SHAPES:
        for q in (2, 3):
            for esr in EPS_GRID:
                for erd in EPS_GRID:
                    p = NetworkParams(n, m, q, esr, erd)
                    ex = exact_pfail(p).p_fail
                    bs = evaluate_all(p)
                    lo, hi, cap = bs.lb_new, bs.ub_new, bs.ub_old_clamped
                    total += 1
                    if not (lo - 1e-9 <= ex <= hi + 1e-9 and ex <= cap + 1e-9):
                        failures.append((n, m, q, esr, erd, lo, ex, hi, cap))
    _report("criterion 1 (exact oracle sandwiched by the new bounds)", failures, total)


def test_criterion_1_oracle_sandwich_past_the_guard(monkeypatch):
    # the oracle's cost does not grow with M, so with its guard lifted it
    # reaches relay sweeps M = N..3N; the classic lower bound is checked too
    # (see criterion 5)
    monkeypatch.setattr(simulate, "STATE_SPACE_LIMIT", 10**100)
    failures, total = [], 0
    for q in (2, 3, 4, 5):
        for n in range(1, (4 if q < 4 else 3) + 1):
            for m in range(n, 3 * n + 1):
                for esr in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1 / q):
                    for erd in (0.0, 0.1, 0.5):
                        p = NetworkParams(n, m, q, esr, erd)
                        ex = exact_pfail(p).p_fail
                        bs = evaluate_all(p)
                        total += 1
                        if not (bs.lb_new - 1e-12 <= ex <= bs.ub_new + 1e-12
                                and bs.lb_old - 1e-12 <= ex):
                            failures.append((n, m, q, esr, erd, bs.lb_old, bs.lb_new, ex,
                                             bs.ub_new))
    assert total == 1638
    _report("criterion 1 (exact oracle past its guard sandwiched by the new bounds and "
            "above the classic lower bound)", failures, total)


def test_criterion_2_single_source_pinch():
    failures, total = [], 0
    for m in range(1, 11):
        for esr in EPS_GRID:
            for erd in EPS_GRID:
                bs = evaluate_all(NetworkParams(1, m, 2, esr, erd))
                eff = (esr + erd - esr * erd) ** m
                total += 1
                if abs(bs.ub_new - eff) > 1e-12 or abs(bs.lb_new - eff) > 1e-12:
                    failures.append((m, esr, erd, bs.lb_new, bs.ub_new, eff))
    _report("criterion 2 (single-source bounds pinch the closed form)", failures, total)


def test_criterion_3_binomial_regrouping_identity(identity_grid):
    failures = []
    for p, raw, regrouped, _ in identity_grid:
        scale = max(raw, regrouped, 1e-300)
        if abs(raw - regrouped) / scale > 1e-9:
            failures.append((p, raw, regrouped))
    _report("criterion 3 (classic bound equals its delivery-count regrouping)",
            failures, len(identity_grid))


def test_criterion_4_upper_dominance(identity_grid):
    failures = []
    total = 0
    for p, raw, _, new in identity_grid:
        total += 1
        if new > min(1.0, raw) + 1e-12:
            failures.append(("grid", p, raw, new))
    # The large-network looseness claim: the sharpened bound stays a
    # probability strictly below the (clamped) classic one at every fig2
    # eps_sr, and the classic bound exceeds 1 exactly where exact rational
    # arithmetic says it does.
    above_one = []
    for esr in _EPS_SR_GRID:
        p = NetworkParams(30, 35, 2, esr, 0.1)
        bs = evaluate_all(p)
        raw, new = bs.ub_old_raw, bs.ub_new
        exact = ub_old_frac(30, 35, 2, Fraction(str(esr)), Fraction(1, 10))
        total += 1
        if not (new <= 1.0 and new < min(1.0, raw)):
            failures.append(("fig2-sharper", p, raw, new))
        if (raw > 1.0) != (exact > 1):
            failures.append(("fig2-exceeds-1", p, raw, float(exact)))
        if exact > 1:
            above_one.append(esr)
    if not above_one:
        failures.append(("fig2-exceeds-1", "classic bound never exceeds 1 on the grid"))
    _report(f"criterion 4 (sharpened upper bound dominates; classic exceeds 1 at the "
            f"large-network point for eps_sr in {above_one})", failures, total)


def test_criterion_5_lower_dominance(preset_runs):
    """The lower-bound dominance claim is empirical: counterexamples are
    logged loudly rather than asserted away (the zero-column mixture can
    fall below the classic closed form by Jensen's inequality, and the
    column-dependence term does not always compensate).

    Whether the classic ``lb_old`` bounds the failure probability at all is
    open: its columns share the relay erasures, and by the Harris inequality
    the probability of an all-zero column is at most ``lb_old``, so only
    rank failures without a zero column can close the gap.  They did at all
    1,638 points of the past-the-guard sweep of criterion 1 (N <= 4, M =
    N..3N, q <= 5), by at least 1.4e-5 wherever N >= 2 (equality at N = 1).
    """
    violations, total = [], 0
    for name, pts in preset_runs.items():
        for p, bs, _ in pts:
            total += 1
            if bs.lb_new < bs.lb_old - 1e-12:
                violations.append((name, p.n_sources, p.n_relays, p.q, p.eps_sr,
                                   p.eps_rd, f"lb_old={bs.lb_old:.6e}",
                                   f"lb_new={bs.lb_new:.6e}"))
    status = "PASS" if not violations else f"PASS with {len(violations)} logged counterexamples"
    print(f"[acceptance] criterion 5 (sharpened lower bound vs classic on all presets): "
          f"{status} ({total - len(violations)}/{total} dominated)")
    for v in violations:
        print(f"    dominance counterexample: {v}")
    if violations:
        detail = "\n".join(str(v) for v in violations)
        warnings.warn(f"sharpened lower bound falls below the classic one at "
                      f"{len(violations)}/{total} preset points:\n{detail}",
                      stacklevel=2)
    assert total == sum(len(_PRESETS[k]) for k in _PRESETS), "preset grid incomplete"


def _bound_tails(failures: int, trials: int, lb: float, ub: float) -> tuple[float, float]:
    """Exact binomial tails of an observed failure count against the bounds:
    P(X <= failures | p = lb) and P(X >= failures | p = ub)."""
    return binom_le(failures, trials, lb), binom_ge(failures, trials, ub)


def _tails_reject(tails: tuple[float, float]) -> bool:
    return min(tails) < ALPHA / 2


def test_criterion_6_simulation_vs_bounds(preset_runs):
    failures, total, smallest = [], 0, 1.0
    for name, pts in preset_runs.items():
        for p, bs, est in pts:
            total += 1
            tails = _bound_tails(est.failures, est.trials, bs.lb_new, bs.ub_new)
            smallest = min(smallest, *tails)
            if _tails_reject(tails):
                failures.append((name, p.n_sources, p.n_relays, p.q, p.eps_sr, p.eps_rd,
                                 f"failures={est.failures}", f"lb={bs.lb_new:.3e}",
                                 f"ub={bs.ub_new:.3e}",
                                 f"P(X<=k|lb)={tails[0]:.3e}", f"P(X>=k|ub)={tails[1]:.3e}"))
    print(f"[acceptance] criterion 6: smallest tail probability {smallest:.4f} "
          f"(reject below {ALPHA / 2:.3e})")
    _report("criterion 6 (simulated failure counts consistent with [lb_new, ub_new] by an "
            "exact two-sided binomial test at 4-sigma level)", failures, total)


def test_criterion_6_rejects_a_moved_count():
    # fig2 N=20 eps_sr=0.5: the bounds pinch at 0.236, and 10^5 trials
    # observe 23,826 failures; no failures at all is far outside.
    bs = evaluate_all(NetworkParams(20, 25, 2, 0.5, 0.1))
    assert not _tails_reject(_bound_tails(23_826, TRIALS, bs.lb_new, bs.ub_new))
    assert _tails_reject(_bound_tails(0, TRIALS, bs.lb_new, bs.ub_new))
    assert _tails_reject(_bound_tails(TRIALS, TRIALS, bs.lb_new, bs.ub_new))


def test_criterion_6_uniform_coefficients_match_the_closed_form(preset_runs):
    failures, total = [], 0
    for p, _, est in preset_runs["fig2"]:
        if p.eps_sr != 1 / p.q:
            continue
        exact = uniform_pfail(p.n_sources, p.n_relays, p.q, p.eps_rd)
        tails = _bound_tails(est.failures, est.trials, exact, exact)
        total += 1
        print(f"    N={p.n_sources} M={p.n_relays}: failures={est.failures}, "
              f"expected {exact * est.trials:.1f}, smaller tail {min(tails):.3f}")
        if _tails_reject(tails):
            failures.append((p.n_sources, p.n_relays, est.failures, exact, tails))
    assert total == 3
    _report("criterion 6 (fig2 counts at eps_sr = 1/q consistent with the exact closed form "
            "by the same binomial test)", failures, total)


def test_binomial_tails_match_rational_sums():
    for n in range(1, 31):
        for p in (0.0, 1e-9, 0.1, 1 / 3, 0.2362, 0.5, 0.9, 1.0):
            exact = Fraction(p)
            pmf = [comb(n, j) * exact**j * (1 - exact) ** (n - j) for j in range(n + 1)]
            for k in range(n + 1):
                assert binom_le(k, n, p) == pytest.approx(float(sum(pmf[:k + 1])),
                                                          rel=1e-12, abs=0.0)
                assert binom_ge(k, n, p) == pytest.approx(float(sum(pmf[k:])),
                                                          rel=1e-12, abs=0.0)


def _dependence_term_ties(b2: BoundSet, b4: BoundSet) -> bool:
    """True when the field-independent column-dependence term is the active
    minimum of the upper bound's per-count term at every delivered count
    r >= N for both fields, and both fields share its symbol probability
    beta = max(eps_sr, (1 - eps_sr)/(q - 1)).  Below N every term is 1."""
    def dependence_active(bs):
        t = bs.tables
        return all(t.dependence_ub[r] <= min(t.expected_null_vectors[r], 1.0)
                   for r in range(bs.params.n_sources, bs.params.n_relays + 1))

    def beta(p):
        return max(p.eps_sr, (1.0 - p.eps_sr) / (p.q - 1))

    return (dependence_active(b2) and dependence_active(b4)
            and beta(b2.params) == beta(b4.params))


def test_criterion_7_relay_and_field_trends(preset_runs):
    failures, total, strict = [], 0, {}
    for name in ("fig4", "fig5"):
        pts = preset_runs[name]
        by_q = {}
        for p, bs, est in pts:
            by_q.setdefault(p.q, []).append((p.n_relays, bs, est))
        for q, series in by_q.items():
            series.sort()
            for (m0, b0, e0), (m1, b1, e1) in zip(series, series[1:]):
                total += 2
                if b1.ub_new > b0.ub_new + 1e-12 or b1.lb_new > b0.lb_new + 1e-12:
                    failures.append((name, q, m1, "bound increased with an extra relay"))
                sim_ok = (e1.estimate <= e0.estimate) or (e1.ci_low <= e0.ci_high)
                if not sim_ok:
                    failures.append((name, q, m1, "simulated trend increased beyond CI overlap"))
        strict[name] = 0
        for (m2, b2, _), (m4, b4, _) in zip(sorted(by_q[2]), sorted(by_q[4])):
            total += 1
            assert m2 == m4
            if b4.ub_new > b2.ub_new + 1e-12:
                failures.append((name, m2, "larger field raised the upper bound",
                                 b2.ub_new, b4.ub_new))
            elif _dependence_term_ties(b2, b4):
                if b4.ub_new != b2.ub_new:
                    failures.append((name, m2, "column-dependence tie is not exact",
                                     b2.ub_new, b4.ub_new))
            elif not b4.ub_new < b2.ub_new:
                failures.append((name, m2, "larger field failed to lower the upper bound",
                                 b2.ub_new, b4.ub_new))
            else:
                strict[name] += 1
        total += 1
        if not strict[name]:
            failures.append((name, "no point where the larger field lowers the upper bound"))
    _report(f"criterion 7 (failure shrinks with more relays and a larger field; strict "
            f"field drops {strict})",
            failures, total)


def test_criterion_8_field_and_rank_suites():
    failures, total = [], 0
    for q in ALL_PRIME_POWERS_256:
        total += 1
        try:
            check_field_axioms(make_field(q))
        except AssertionError as e:
            failures.append((q, str(e)))
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        q = int(rng.choice([2, 3, 4]))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        f = make_field(q)
        ents = rng.integers(0, q, size=(rows, cols))
        total += 1
        got = int(rank_batch(f, ents[None])[0])
        want = nullspace_rank(f, [list(map(int, r)) for r in ents], cols)
        if got != want:
            failures.append((q, ents.tolist(), got, want))
    _report("criterion 8 (exhaustive field axioms; rank agrees with nullspace "
            "enumeration on 1000 random matrices)", failures, total)


def test_criterion_9_byte_identical_reruns(tmp_path):
    outs = []
    for i in (0, 1):
        path = tmp_path / f"run{i}.csv"
        code = main(["sweep", "--preset", "fig3", "--trials", "2000",
                     "--seed", "9", "--output", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    failures = [] if outs[0] == outs[1] else [("fig3", "outputs differ")]
    _report("criterion 9 (reruns with one seed are byte-identical)", failures, 1)
