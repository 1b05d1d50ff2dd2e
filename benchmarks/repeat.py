"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/repeat.py --seeds 1-10 [--seconds S] [--trace 0|1]
        [--output FILE] [WORKLOAD ...]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  An end-to-end
metric whose spread exceeds a third of its bound in ``BENCHMARK.json`` is
flagged.  ``--output`` writes the same summary, with every run's values,
as JSON.  Runs one benchmark at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import seed_range

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = "# provenance "


def run_one(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.splitlines()
    prov = next(json.loads(line[len(PROVENANCE):]) for line in lines
                if line.startswith(PROVENANCE))
    return {"provenance": prov, **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--output")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    summary = {}
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seed_range(args.seeds):
            res = run_one(spec, workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                      if k in bounds and bounds[k] is not None), file=sys.stderr)
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spr = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spr}
            flag = " WIDE" if bound is not None and name != "setup_s" and spr > bound / 3 else ""
            print(f"{workload:<13} {name:<28} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spr:.4f}{flag}")
        summary[workload] = {"stats": stats, "runs": runs,
                             "all_correct": all(r["correct"] for r in runs)}
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"seconds": seconds, "trace": args.trace, "workloads": summary}, fh,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
