"""Command-line front-end: bound evaluation, figure-style parameter sweeps,
Monte Carlo simulation and exact-oracle runs, all emitting one CSV schema.

Exit codes: 0 success, 2 argument/domain error, 3 oracle guard violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass

from .bounds import NetworkParams, evaluate_all
from .fields import MAX_ORDER, _prime_power
from .simulate import SimEstimate, StateSpaceExceeded, check_seed, estimate_pfail, exact_pfail

COLUMNS = ["n", "m", "q", "eps_sr", "eps_rd", "mu0", "lb_old", "lb_new",
           "sim_estimate", "sim_ci_low", "sim_ci_high", "ub_new",
           "ub_old_clamped", "ub_old_raw", "trials", "seed"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3

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


@dataclass
class SweepSpec:
    """A single-axis sweep around a base parameter set."""

    base: NetworkParams
    swept_axis: str  # eps_sr | eps_rd | n_relays | q
    values: list
    trials: int
    seed: int
    include_sim: bool
    include_exact: bool = False

    def points(self) -> list[NetworkParams]:
        if not self.values:
            raise DomainError("sweep needs at least one value")
        out = []
        for v in self.values:
            kw = dict(n_sources=self.base.n_sources, n_relays=self.base.n_relays,
                      q=self.base.q, eps_sr=self.base.eps_sr, eps_rd=self.base.eps_rd)
            kw[self.swept_axis] = v
            out.append(_checked_params(**kw))
        return out


def _checked_params(**kw) -> NetworkParams:
    q = kw["q"]
    if _prime_power(q) is None:
        raise DomainError(f"field order must be a prime power, got {q}")
    if q > MAX_ORDER:
        raise DomainError(f"field order must be at most {MAX_ORDER}, got {q}")
    try:
        return NetworkParams(**kw)
    except ValueError as e:
        raise DomainError(str(e)) from e


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12g")


def _emit_rows(points, out, trials: int, seed: int, with_sim: bool,
               with_exact: bool) -> None:
    writer = csv.writer(out, lineterminator="\n")
    header = COLUMNS + (["exact_pfail"] if with_exact else [])
    writer.writerow(header)
    if any(p.n_relays < p.n_sources for p in points):
        print("warning: fewer relays than sources; the model assumes "
              "n_relays >= n_sources and failure is then near-certain",
              file=sys.stderr)
    for p in points:
        bs = evaluate_all(p)
        sim: SimEstimate | None = None
        if with_sim:
            sim = estimate_pfail(p, trials, seed)
        row = [p.n_sources, p.n_relays, p.q, _fmt(p.eps_sr), _fmt(p.eps_rd),
               _fmt(bs.mu0), _fmt(bs.lb_old), _fmt(bs.lb_new),
               _fmt(sim.estimate if sim else None),
               _fmt(sim.ci_low if sim else None),
               _fmt(sim.ci_high if sim else None),
               _fmt(bs.ub_new), _fmt(bs.ub_old_clamped), _fmt(bs.ub_old_raw),
               trials if sim else "", seed if sim else ""]
        if with_exact:
            row.append(_fmt(exact_pfail(p).p_fail))
        writer.writerow(row)


def _add_param_args(sp, required: bool) -> None:
    sp.add_argument("--sources", type=int, required=required, help="number of source nodes N")
    sp.add_argument("--relays", type=int, required=required, help="number of relay nodes M")
    sp.add_argument("--field", type=int, required=required, help="field order q (prime power)")
    sp.add_argument("--eps-sr", type=float, required=required,
                    help="source-to-relay erasure probability")
    sp.add_argument("--eps-rd", type=float, required=required,
                    help="relay-to-destination erasure probability")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rlnc-bounds",
                                 description="Decoding-failure bounds, simulation and "
                                             "exact evaluation for relay network coding.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate the analytical bounds at one point")
    _add_param_args(b, required=True)
    b.add_argument("--output", help="write CSV here instead of stdout")

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
    return ap


def _sweep_points(args) -> tuple[list[NetworkParams], bool]:
    if args.preset and args.axis:
        raise DomainError("--preset and --axis are mutually exclusive")
    if args.preset:
        return [_checked_params(**kw) for kw in _PRESETS[args.preset]], True
    if not args.axis:
        raise DomainError("sweep needs --preset or --axis")
    missing = [f for f in ("sources", "relays", "field", "eps_sr", "eps_rd")
               if getattr(args, f) is None]
    if missing:
        raise DomainError(f"--axis sweeps need base parameters; missing: {', '.join(missing)}")
    if not args.values:
        raise DomainError("--axis sweeps need --values")
    axis = args.axis.replace("-", "_")
    axis_field = {"eps_sr": "eps_sr", "eps_rd": "eps_rd", "relays": "n_relays", "q": "q"}[axis]
    try:
        if axis_field in ("n_relays", "q"):
            values = [int(v) for v in args.values.split(",")]
        else:
            values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --values list: {args.values}") from exc
    base = _checked_params(n_sources=args.sources, n_relays=args.relays, q=args.field,
                           eps_sr=args.eps_sr, eps_rd=args.eps_rd)
    spec = SweepSpec(base=base, swept_axis=axis_field, values=values,
                     trials=args.trials, seed=args.seed,
                     include_sim=not args.no_sim, include_exact=args.exact)
    return spec.points(), False


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
        if args.command == "bounds":
            p = _checked_params(n_sources=args.sources, n_relays=args.relays,
                                q=args.field, eps_sr=args.eps_sr, eps_rd=args.eps_rd)
            _emit_rows([p], out, trials=0, seed=0, with_sim=False, with_exact=False)
        elif args.command == "sweep":
            if not args.no_sim:
                if args.trials < 1:
                    raise DomainError(f"trials must be >= 1, got {args.trials}")
                try:
                    check_seed(args.seed)
                except ValueError as e:
                    raise DomainError(str(e)) from e
            points, _ = _sweep_points(args)
            _emit_rows(points, out, trials=args.trials, seed=args.seed,
                       with_sim=not args.no_sim, with_exact=args.exact)
        else:  # exact
            p = _checked_params(n_sources=args.sources, n_relays=args.relays,
                                q=args.field, eps_sr=args.eps_sr, eps_rd=args.eps_rd)
            _emit_rows([p], out, trials=0, seed=0, with_sim=False, with_exact=True)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StateSpaceExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
