"""Workloads of the rlnc-bounds benchmark and the check behind its
failed-operations count.

A workload is a sequence of parts, each a list of ``rlnc-bounds`` argv
lists; one pass runs them all, in order, through ``rlnc_bounds.cli.main``.
The benchmark seed goes to ``--seed`` of the simulation parts; the other
parts have fixed inputs.

Output check, per CSV row:

* the seed-independent columns (parameters, ``mu0``, the bounds and
  ``exact_pfail``) must equal the reference bytes in ``reference/``, one
  file per part;
* for a seed with recorded reference rows, the whole row must match its
  recorded digest, so ``(params, trials, seed)`` keeps its failure count
  and its bytes;
* every simulated row must carry the requested trials and seed, a whole
  failure count, and a failure count that some probability in
  ``[lb_new, ub_new]`` from the same row makes plausible (see
  :func:`plausible`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SIM_COLUMNS = ("sim_estimate", "sim_ci_low", "sim_ci_high", "trials", "seed")
TAIL_Z = 6.0

PRESETS = ("fig2", "fig3", "fig4", "fig5")
PRESET_TRIALS = 1000
Q_AXIS = (2, 3, 4, 64, 256, 65536)
Q_AXIS_TRIALS = 4096


def _presets_sim(seed: int) -> list[list[str]]:
    return [["sweep", "--preset", p, "--trials", str(PRESET_TRIALS), "--seed", str(seed)]
            for p in PRESETS]


def _q_axis_sim(seed: int) -> list[list[str]]:
    # --field is only the base point; the swept axis replaces it
    return [["sweep", "--axis", "q", "--values", ",".join(map(str, Q_AXIS)),
             "--sources", "20", "--relays", "25", "--field", "2",
             "--eps-sr", "0.5", "--eps-rd", "0.1",
             "--trials", str(Q_AXIS_TRIALS), "--seed", str(seed)]]


def _bounds_grid(seed: int) -> list[list[str]]:
    argvs = [["sweep", "--preset", p, "--no-sim"] for p in PRESETS]
    for n in (50, 100, 200):
        relays = ",".join(str(n + k * n // 5) for k in range(11))  # M = N .. 3N
        argvs.append(["sweep", "--axis", "relays", "--values", relays,
                      "--sources", str(n), "--relays", str(n), "--field", "64",
                      "--eps-sr", "0.3", "--eps-rd", "0.1", "--no-sim"])
    return argvs


EXACT_INSTANCES = ((4, 4, 2), (3, 5, 2), (2, 4, 4), (2, 3, 5))  # (N, M, q)


def _exact_oracle(seed: int) -> list[list[str]]:
    return [["exact", "--sources", str(n), "--relays", str(m), "--field", str(q),
             "--eps-sr", "0.3", "--eps-rd", "0.1"]
            for n, m, q in EXACT_INSTANCES]


@dataclass(frozen=True)
class Part:
    """One group of invocations; its reference is ``reference/<name>.json``."""
    name: str
    argvs: Callable[[int], list[list[str]]]  # seed -> argv lists
    trials: int = 0            # simulated trials per CSV row
    states: int = 0            # oracle states enumerated per pass


PRESETS_SIM = Part("presets-sim", _presets_sim, trials=PRESET_TRIALS)
Q_AXIS_SIM = Part("q-axis-sim", _q_axis_sim, trials=Q_AXIS_TRIALS)
BOUNDS_GRID = Part("bounds-grid", _bounds_grid)
EXACT_ORACLE = Part("exact-oracle", _exact_oracle,
                    states=sum(q ** (m * n) * 2 ** m for n, m, q in EXACT_INSTANCES))


@dataclass(frozen=True)
class Workload:
    """A pass runs the invocations of every part, in order."""
    name: str
    parts: tuple[Part, ...]
    simulated: bool
    fields: tuple[int, ...]    # field orders built during set-up
    tables: bool               # also build the dense and inverse tables
    # The oracle's matrix histograms are cached per process, and every CLI
    # user pays the cold cost, so each pass of such a workload starts a
    # fresh interpreter.
    fresh_interpreter: bool = False

    def argvs(self, seed: int) -> list[list[str]]:
        return [argv for part in self.parts for argv in part.argvs(seed)]

    @property
    def states(self) -> int:
        """Oracle states enumerated per pass."""
        return sum(part.states for part in self.parts)

    @property
    def trials(self) -> int:
        """Simulated trials per pass."""
        return sum(part.trials * sum(len(lines) - 1
                                     for lines in load_part_reference(part)["static"])
                   for part in self.parts if part.trials)


# Two workloads, so that each run can be long enough to average over the
# drift in speed of a shared host; together they run every part.
WORKLOADS = {w.name: w for w in (
    Workload("sim-sweeps", (PRESETS_SIM, Q_AXIS_SIM), True, Q_AXIS, True),
    Workload("bounds-oracle", (BOUNDS_GRID, EXACT_ORACLE), False, (2, 4, 5), False,
             fresh_interpreter=True),
)}


def seed_range(text: str) -> list[int]:
    """Seeds from ``"3"`` or an inclusive range ``"0-31"``."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def static_lines(text: str) -> list[str]:
    """CSV lines with the seed-dependent simulation columns blanked."""
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        return []
    blank = [i for i, col in enumerate(rows[0]) if col in SIM_COLUMNS]
    out = [",".join(rows[0])]
    for row in rows[1:]:
        out.append(",".join("" if i in blank else v for i, v in enumerate(row)))
    return out


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def _kl(a: float, p: float) -> float:
    """Kullback-Leibler divergence of Bernoulli(a) from Bernoulli(p)."""
    out = a * math.log(a / p) if a > 0 else 0.0
    return out + ((1 - a) * math.log((1 - a) / (1 - p)) if a < 1 else 0.0)


def plausible(failures: int, trials: int, lb: float, ub: float, z: float = TAIL_Z) -> bool:
    """False when ``failures`` in ``trials`` is beyond z sigma of [lb, ub].

    The test takes the point p of [lb, ub] nearest the observed rate and
    rejects when the Chernoff bound exp(-trials * KL(rate || p)) on the
    binomial tail falls below exp(-z^2 / 2).  That bound is never below the
    exact tail, so the test rejects no more often than an exact binomial
    test would, and it stays open at zero failures.  A Wilson interval at
    z = 6 does not: its normal approximation rejects 3 failures in 2000
    trials against ub_new = 7.7e-5 (fig5, M = 29), whose exact tail is
    5.4e-4, although 2e6 trials measure 7.45e-5 there.
    """
    rate = failures / trials
    p = min(max(rate, lb), ub)
    if p == rate:
        return True
    if not 0.0 < p < 1.0:
        return False
    return trials * _kl(rate, p) <= z * z / 2


def _sim_row_ok(row: dict, seed: int) -> bool:
    try:
        trials = int(row["trials"])
        est = float(row["sim_estimate"])
        lb, ub = float(row["lb_new"]), float(row["ub_new"])
        if int(row["seed"]) != seed or trials < 1:
            return False
    except (KeyError, ValueError):
        return False
    failures = round(est * trials)
    if abs(failures - est * trials) > 1e-6 * trials:
        return False
    return plausible(failures, trials, lb, ub)


def load_part_reference(part: Part) -> dict:
    with open(REFERENCE_DIR / f"{part.name}.json") as fh:
        return json.load(fh)


def load_reference(workload: Workload) -> dict:
    """The workload's reference: its parts' references, one after another."""
    refs = [load_part_reference(part) for part in workload.parts]
    out = {"static": [lines for ref in refs for lines in ref["static"]]}
    if all("digests" in ref for ref in refs):
        seeds = set.intersection(*(set(ref["digests"]) for ref in refs))
        out["digests"] = {seed: [d for ref in refs for d in ref["digests"][seed]]
                          for seed in sorted(seeds, key=int)}
    return out


def check_output(workload: Workload, reference: dict, index: int, seed: int,
                 text: str) -> tuple[int, int]:
    """Check invocation ``index``'s CSV; return (rows expected, rows failed).

    Missing and surplus rows count as failed; a wrong header fails all rows.
    """
    want = reference["static"][index]
    expected = len(want) - 1
    lines = text.splitlines()
    got = static_lines(text)
    if not got or got[0] != want[0]:
        return expected, max(expected, len(lines) - 1)
    header = next(csv.reader(lines[:1]))
    digests = reference.get("digests", {}).get(str(seed))
    failed = abs(len(lines) - len(want))
    for i, (line, stat, ref) in enumerate(zip(lines[1:], got[1:], want[1:])):
        ok = stat == ref
        if ok and digests is not None:
            ok = row_digest(line) == digests[index][i]
        if ok and workload.simulated:
            ok = _sim_row_ok(dict(zip(header, next(csv.reader([line])))), seed)
        failed += not ok
    return expected, failed
