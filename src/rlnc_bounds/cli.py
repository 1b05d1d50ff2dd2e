"""Command-line front-end: bound evaluation, figure-style parameter sweeps,
Monte Carlo simulation and exact-oracle runs, all emitting one CSV schema.

A sweep simulates its points concurrently, one thread per usable core and at
most four; the bounds and the exact oracle run serially in the calling
thread.  Points with the same (N, M) form a group that shares its Philox
draws (:class:`rlnc_bounds.simulate.TrialDraws`), and the points are
submitted group by group, so that few groups' draws are held at once.
The worker count comes from the machine, not from an option, and neither it
nor the grouping can change a byte of the output: every trial reads its own
window of the seeded Philox stream (see :mod:`rlnc_bounds.simulate`), and
rows are written in point order.

Exit codes: 0 success, 2 argument/domain error, 3 oracle guard violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys

from .bounds import NetworkParams, evaluate_all
from .fields import MAX_ORDER
from .simulate import (BATCH_TRIALS, SimEstimate, StateSpaceExceeded, TrialDraws,
                       check_run, estimate_pfail, exact_pfail)

COLUMNS = ["n", "m", "q", "eps_sr", "eps_rd", "mu0", "lb_old", "lb_new",
           "sim_estimate", "sim_ci_low", "sim_ci_high", "ub_new",
           "ub_old_clamped", "ub_old_raw", "trials", "seed"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3

# Smallest simulator batch measured no slower than BATCH_TRIALS on one
# thread.  Each worker simulates BATCH_TRIALS // workers trials at a time, so
# the trials in flight stay at BATCH_TRIALS and the workers at most
# BATCH_TRIALS // _MIN_BATCH.
_MIN_BATCH = 1024

_EPS_SR_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
_RELAY_RANGE = list(range(10, 31))

# Figure-style presets.  The captions fix the parameters; the (N, M) pairs
# of the first preset include the (30, 35) case named in the text plus two
# smaller pairs, and the relay sweeps run from N to 3N.
_PRESETS = {
    "fig2": [dict(n_sources=n, n_relays=m, q=2, eps_sr=e, eps_rd=0.1)
             for (n, m) in ((10, 15), (20, 25), (30, 35)) for e in _EPS_SR_GRID],
    "fig3": [dict(n_sources=20, n_relays=25, q=q, eps_sr=e, eps_rd=0.1)
             for q in (4, 64) for e in _EPS_SR_GRID],
    "fig4": [dict(n_sources=10, n_relays=m, q=q, eps_sr=0.7, eps_rd=0.2)
             for q in (2, 4) for m in _RELAY_RANGE],
    "fig5": [dict(n_sources=10, n_relays=m, q=q, eps_sr=0.3, eps_rd=0.1)
             for q in (2, 4) for m in _RELAY_RANGE],
}


class DomainError(ValueError):
    """Invalid argument values detected after parsing."""


def _checked_params(**kw) -> NetworkParams:
    # first, so that the error for a huge q names the limit
    if kw["q"] > MAX_ORDER:
        raise DomainError(f"field order must be at most {MAX_ORDER}, got {kw['q']}")
    try:
        return NetworkParams(**kw)
    except ValueError as e:
        raise DomainError(str(e)) from e


def _check_output(path: str) -> None:
    """Reject an ``--output`` path that cannot be written, before any point
    is computed."""
    if os.path.isdir(path):
        raise DomainError(f"cannot write --output {path}: it is a directory")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise DomainError(f"cannot write --output {path}: no directory {folder}")


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate_points(points, trials: int, seed: int) -> list[SimEstimate]:
    """Simulate every point on a thread pool, one task a point, submitted
    group by group of equal (N, M); return the estimates in point order.

    numpy releases the interpreter lock only inside its array loops, so the
    threads overlap on large arrays (the draws) and little on small ones
    (the bit-sliced rank kernel's).  The first error ends the run: points
    still queued are cancelled, and only those already running finish.
    """
    # imported here: it brings in logging, 0.8 MB of peak memory that runs
    # with nothing to simulate do not need
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_usable_cores(), BATCH_TRIALS // _MIN_BATCH)
    batch = BATCH_TRIALS // workers
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault((p.n_sources, p.n_relays), []).append(i)
    futures = [None] * len(points)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for (n, m), members in groups.items():
            draws = TrialDraws(n, m, trials, seed, batch, readers=len(members))
            for i in members:
                # through the module global, which the benchmark's tracer patches
                futures[i] = pool.submit(estimate_pfail, points[i], trials, seed, draws)
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _emit_rows(points, out, trials: int | None, seed: int | None, with_exact: bool) -> None:
    """Write one CSV row per point; ``trials=None`` simulates none."""
    writer = csv.writer(out, lineterminator="\n")
    header = COLUMNS + (["exact_pfail"] if with_exact else [])
    writer.writerow(header)
    if any(p.n_relays < p.n_sources for p in points):
        print("warning: fewer relays than sources; the model assumes "
              "n_relays >= n_sources and failure is then near-certain",
              file=sys.stderr)
    # the exact oracle runs first, serially, so that its guard stops a run
    # before anything is simulated
    exact = [exact_pfail(p).p_fail for p in points] if with_exact else None
    sims = [None] * len(points) if trials is None else _simulate_points(points, trials, seed)
    for i, (p, sim) in enumerate(zip(points, sims)):
        bs = evaluate_all(p)
        row = [p.n_sources, p.n_relays, p.q, _fmt(p.eps_sr), _fmt(p.eps_rd),
               _fmt(bs.mu0), _fmt(bs.lb_old), _fmt(bs.lb_new),
               _fmt(sim.estimate if sim else None),
               _fmt(sim.ci_low if sim else None),
               _fmt(sim.ci_high if sim else None),
               _fmt(bs.ub_new), _fmt(bs.ub_old_clamped), _fmt(bs.ub_old_raw),
               trials if sim else "", seed if sim else ""]
        if with_exact:
            row.append(_fmt(exact[i]))
        writer.writerow(row)


def _add_param_args(sp, required: bool) -> None:
    sp.add_argument("--sources", type=int, required=required, help="number of source nodes N")
    sp.add_argument("--relays", type=int, required=required, help="number of relay nodes M")
    sp.add_argument("--field", type=int, required=required, help="field order q (prime power)")
    sp.add_argument("--eps-sr", type=float, required=required,
                    help="source-to-relay erasure probability")
    sp.add_argument("--eps-rd", type=float, required=required,
                    help="relay-to-destination erasure probability")


# built once per process: argparse makes a fresh namespace on every parse,
# and callers that run main() many times skip 0.6-0.7 ms a run
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rlnc-bounds",
                                 description="Decoding-failure bounds, simulation and "
                                             "exact evaluation for relay network coding.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate the analytical bounds at one point")
    _add_param_args(b, required=True)
    b.add_argument("--output", help="write CSV here instead of stdout")
    # no flags: bounds and exact never simulate, and exact always adds its column
    b.set_defaults(no_sim=True, exact=False)

    s = sub.add_parser("sweep", help="sweep a parameter axis or a figure preset")
    _add_param_args(s, required=False)
    s.add_argument("--preset", choices=sorted(_PRESETS),
                   help="figure-style parameter grid")
    s.add_argument("--axis", choices=["eps-sr", "eps-rd", "relays", "q"],
                   help="axis to sweep (with base point from the param flags)")
    s.add_argument("--values", help="comma-separated swept values")
    s.add_argument("--trials", type=int, default=10000,
                   help="Monte Carlo trials per point (default 10000)")
    s.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    s.add_argument("--no-sim", action="store_true", help="skip the simulation columns")
    s.add_argument("--exact", action="store_true",
                   help="append an exact_pfail column (tiny instances only)")
    s.add_argument("--output", help="write CSV here instead of stdout")

    e = sub.add_parser("exact", help="exact failure probability for a tiny instance")
    _add_param_args(e, required=True)
    e.add_argument("--output", help="write CSV here instead of stdout")
    e.set_defaults(no_sim=True, exact=True)
    return ap


def _points(args) -> list[NetworkParams]:
    """The points a command runs: the one base point of ``bounds`` and
    ``exact``, or a sweep's preset grid or axis values."""
    base = dict(n_sources=args.sources, n_relays=args.relays, q=args.field,
                eps_sr=args.eps_sr, eps_rd=args.eps_rd)
    if args.command != "sweep":
        return [_checked_params(**base)]
    flags = dict(zip(("--sources", "--relays", "--field", "--eps-sr", "--eps-rd", "--values"),
                     (*base.values(), args.values)))
    if args.preset and args.axis:
        raise DomainError("--preset and --axis are mutually exclusive")
    if args.preset:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise DomainError(f"--preset fixes every parameter; drop {', '.join(given)}")
        return [_checked_params(**kw) for kw in _PRESETS[args.preset]]
    if not args.axis:
        raise DomainError("sweep needs --preset or --axis")
    missing = [flag for flag, value in flags.items() if value is None]
    if missing:
        raise DomainError(f"--axis sweeps need {', '.join(missing)}")
    axis_field = {"eps-sr": "eps_sr", "eps-rd": "eps_rd", "relays": "n_relays", "q": "q"}[args.axis]
    try:
        if axis_field in ("n_relays", "q"):
            values = [int(v) for v in args.values.split(",")]
        else:
            values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --values list: {args.values}") from exc
    # each point replaces the swept axis's base value, so only the points
    # are validated
    return [_checked_params(**{**base, axis_field: v}) for v in values]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    # rows are rendered into a buffer and written only once the whole run
    # has succeeded, so a rejected run leaves an existing --output untouched
    out = io.StringIO()
    try:
        if args.output:
            _check_output(args.output)
        trials, seed = (None, None) if args.no_sim else (args.trials, args.seed)
        if trials is not None:
            try:
                check_run(trials, seed)
            except ValueError as e:
                raise DomainError(str(e)) from e
        _emit_rows(_points(args), out, trials, seed, args.exact)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StateSpaceExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    if args.output:
        try:
            with open(args.output, "w", newline="") as fh:
                fh.write(out.getvalue())
        except OSError as e:
            print(f"error: cannot write --output {args.output}: {e.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
