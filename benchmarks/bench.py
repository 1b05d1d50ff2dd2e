"""Benchmark of the rlnc-bounds command line, run one workload at a time.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload drives
``rlnc_bounds.cli.main(argv)`` in a worker process, exactly as an
``rlnc-bounds`` user invokes it, with one thread for numpy's libraries.
Each pass's CSV is checked (see ``workloads.py``); rows that fail the
check, invocations that raise or exit nonzero, and traced passes whose
CSV differs from the untraced one count as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a cold
interpreter start, the import and building the workload's fields, median
of several starts), ``wall_s`` (median full pass after set-up),
``points_per_s`` (CSV rows per second of ``wall_s``) and ``peak_rss_mb``.
``--trace 1`` alternates untraced passes with passes whose calls into each
layer are wrapped in spans, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers for a reader, with sample counts and provenance.
The full record, spans included, goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from workloads import Q_AXIS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

# Cold starts for setup_s besides the measuring workers, half before and half
# after the measuring phase, so that their median spans the whole run.
SETUP_STARTS = 6
RUN_LIMIT_S = 170.0  # a run that is not done by then is abandoned

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

LAYER_OF = {
    "cli.main": "cli",
    "bounds.evaluate_all": "bounds",
    "simulate.estimate_pfail": "simulate",
    "simulate.exact_pfail": "simulate.exact",
    "linalg.rank_batch": "linalg",
    "fields.make_field": "fields",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------- workers

def _spawn(args: list[str], deadline: float) -> tuple[float, dict, dict | None]:
    """Run one worker; return (seconds until its ready line, ready, result)."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    env = dict(os.environ, **THREAD_ENV)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    try:
        ready = json.loads(first)
        result = json.loads(rest.splitlines()[-1]) if rest.strip() else None
    except (json.JSONDecodeError, IndexError) as exc:
        raise BenchError(f"worker {' '.join(args)} printed no result") from exc
    return ready_s, ready, result


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    base = ["--workload", workload.name, "--seed", str(seed)]

    def cold_starts(n: int) -> list:
        return [_spawn(base + ["--setup-only"], deadline)[:2] for _ in range(n)]

    _spawn(base + ["--setup-only"], deadline)  # primes the bytecode cache; not counted
    starts = cold_starts(SETUP_STARTS // 2)
    runs = []
    if workload.fresh_interpreter:
        t0 = perf_counter()
        while True:
            pattern = "t" if trace and len(runs) % 2 else "u"
            ready_s, ready, result = _spawn(
                base + ["--pattern", pattern, "--max-passes", "1"], deadline)
            starts.append((ready_s, ready))
            runs.append(result)
            typical = (perf_counter() - t0) / len(runs)
            if len(runs) >= 1 + trace and perf_counter() - t0 + typical > seconds:
                break
    else:
        ready_s, ready, result = _spawn(
            base + ["--pattern", "ut" if trace else "u", "--seconds", str(seconds)], deadline)
        starts.append((ready_s, ready))
        runs.append(result)
    starts += cold_starts(SETUP_STARTS - SETUP_STARTS // 2)
    return {"starts": starts, "runs": runs}


# ---------------------------------------------------------------- metrics

def percentile(samples, p: float) -> float:
    xs = sorted(samples)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(samples) -> float | None:
    """The highest usual percentile with at least ten samples beyond it."""
    fit = [p for p in (50, 75, 90, 95, 99, 99.9) if len(samples) * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def pass_layers(spans: list) -> dict[int, dict]:
    """Per-layer sums for each traced pass of one worker.

    Every span contributes its self time (duration minus the spans it
    directly caused) to its layer, so the layers plus the time outside all
    spans add up to the pass's wall time.
    """
    dur = [end - start for _, start, end, *_ in spans]
    inner = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent is not None:
            inner[parent] += dur[i]
    out: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, _, _, parent, pid, counts) in enumerate(spans):
        v = out[pid]
        layer = LAYER_OF[name]
        v[f"{layer}.self_s"] += dur[i] - inner[i]
        if parent is None:
            v["spans_s"] += dur[i]
        if name == "bounds.evaluate_all":
            v["bounds.calls"] += 1
            v.setdefault("point_ms", []).append(dur[i] * 1e3)
        elif name == "simulate.estimate_pfail":
            v["simulate.trials"] += counts["trials"]
            v["simulate.failures"] += counts["failures"]
            v[f"sim_trials.{counts['q']}"] += counts["trials"]
            v[f"sim_busy.{counts['q']}"] += dur[i]
        elif name == "simulate.exact_pfail":
            v["simulate.exact.busy_s"] += dur[i]
            v["simulate.exact.states"] += counts["states"]
        elif name == "linalg.rank_batch":
            v["linalg.matrices"] += counts["matrices"]
            v["linalg.deficient"] += counts["deficient"]
            v["linalg.bytes"] += counts["bytes"]
            v[f"linalg.q{counts['q']}.busy_s"] += dur[i]
            if parent is not None and spans[parent][0] == "simulate.estimate_pfail":
                v["simulate.matrices"] += counts["matrices"]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(layers: list[dict], traced: list[dict], untraced: list[dict],
                      starts: list) -> dict:
    """Per-layer metrics: medians over traced passes of each pass's values."""
    def med(fn):
        return _median([fn(v) for v in layers])

    m = {
        "cli.self_s": med(lambda v: v["cli.self_s"]),
        "cli.rows": _median([p["rows"] for p in traced]),
        "bounds.busy_s": med(lambda v: v["bounds.self_s"]),
        "bounds.calls": med(lambda v: v["bounds.calls"]),
        "simulate.self_s": med(lambda v: v["simulate.self_s"]),
        "simulate.trials": med(lambda v: v["simulate.trials"]),
        "simulate.failures": med(lambda v: v["simulate.failures"]),
        "simulate.viable_frac": med(lambda v: _ratio(v["simulate.matrices"],
                                                     v["simulate.trials"])),
        "simulate.exact.busy_s": med(lambda v: v["simulate.exact.busy_s"]),
        "simulate.exact.self_s": med(lambda v: v["simulate.exact.self_s"]),
        "simulate.exact.states": med(lambda v: v["simulate.exact.states"]),
        "simulate.exact.states_per_s": med(lambda v: _ratio(v["simulate.exact.states"],
                                                            v["simulate.exact.busy_s"])),
        "linalg.busy_s": med(lambda v: v["linalg.self_s"]),
        "linalg.matrices": med(lambda v: v["linalg.matrices"]),
        "linalg.matrices_per_s": med(lambda v: _ratio(v["linalg.matrices"],
                                                      v["linalg.self_s"])),
        "linalg.deficient_frac": med(lambda v: _ratio(v["linalg.deficient"],
                                                      v["linalg.matrices"])),
        "linalg.input_mb": med(lambda v: v["linalg.bytes"] / 1e6),
        "fields.busy_s": med(lambda v: v["fields.self_s"]),
        "fields.cold_s": _median([ready["fields_s"] for _, ready in starts]),
        "fields.table_mb": starts[0][1]["table_mb"],
        "trace.wall_s": _median([p["wall_s"] for p in traced]),
        "trace.outside_s": _median([p["wall_s"] - v["spans_s"]
                                    for p, v in zip(traced, layers)]),
        "trace.overhead_s": (_median([p["wall_s"] for p in traced])
                             - _median([p["wall_s"] for p in untraced])),
        "trace.passes": len(traced),
    }
    points = [ms for v in layers for ms in v.get("point_ms", [])]
    for p in (50, 90):
        m[f"bounds.ms_per_point_p{p}"] = percentile(points, p) if points else 0.0
    for q in Q_AXIS:
        m[f"simulate.q{q}.trials_per_s"] = med(
            lambda v: _ratio(v[f"sim_trials.{q}"], v[f"sim_busy.{q}"]))
        m[f"linalg.q{q}.busy_s"] = med(lambda v: v[f"linalg.q{q}.busy_s"])
    return m


def summarize(workload, measured: dict, trace: bool) -> dict:
    starts, runs = measured["starts"], measured["runs"]
    passes = [p for r in runs for p in r["passes"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # a traced pass must write the bytes of an untraced one
    reference_sha = untraced[0]["csv_sha256"]
    attempted = sum(p["rows"] + p["invocations"] for p in passes)
    failed = sum(p["failed_rows"] + p["failed_invocations"]
                 + (p["rows"] if p["csv_sha256"] != reference_sha else 0) for p in passes)
    setup = [s for s, _ in starts]
    walls = [p["wall_s"] for p in untraced]
    rows = untraced[0]["rows"]
    out = {
        "attempted": attempted, "failed": failed,
        "samples": {"setup_s": setup, "wall_s": walls},
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "points_per_s": rows / statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        },
    }
    # reported for a reader only: they would be 0 on the other workloads
    if workload.trials:
        out["end_to_end"]["trials_per_s"] = workload.trials / statistics.median(walls)
    if workload.states:
        out["end_to_end"]["states_per_s"] = workload.states / statistics.median(walls)
    if trace:
        layers = []
        for r in runs:
            by_pass = pass_layers(r["spans"])
            layers += [by_pass[i] for i, p in enumerate(r["passes"]) if p["traced"]]
        out["per_layer"] = per_layer_metrics(layers, traced, untraced, starts)
    return out


# ---------------------------------------------------------------- output

def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, ready: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "python": ready["python"], "numpy": ready["numpy"],
        "git_sha": git_sha(), "src_sha256": src_sha256(), "threads": THREAD_ENV,
    }


def _describe(name: str, samples) -> str:
    p = tail_percentile(samples)
    tail = (f", p{p:g} {percentile(samples, p):.6g}" if p is not None
            else ", too few for a tail percentile")
    return f"median of {len(samples)} {name}{tail}"


def report(summary: dict, spec: dict, trace: bool) -> dict:
    """Print the readable lines and return the metrics for the result line."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = summary["per_layer"] if trace else summary["end_to_end"]
    notes = {"setup_s": _describe("cold starts", summary["samples"]["setup_s"]),
             "wall_s": _describe("passes", summary["samples"]["wall_s"])}
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        if m["unit"] == "count":
            value = int(value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<28} {value:>14.6g} {m['unit']:<6} {notes.get(m['name'], '')}")
    extra = sorted(set(values) - {m["name"] for m in listed})
    for name in extra:
        print(f"{name:<28} {values[name]:>14.6g}        (not in BENCHMARK.json)")
    frac = summary["failed"] / summary["attempted"]
    print(f"{'mismatch_frac':<28} {frac:>14.6g}        "
          f"{summary['failed']} of {summary['attempted']} rows and invocations failed")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rlnc_bounds" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/rlnc_bounds to benchmark", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    try:
        measured = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(workload, measured, bool(args.trace))
    prov = provenance(args, measured["starts"][0][1])
    print("# provenance " + json.dumps(prov))
    metrics = report(summary, spec, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    record = {"provenance": prov, **summary, "runs": measured["runs"]}
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
