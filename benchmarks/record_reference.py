"""Record the reference CSV content the benchmark checks its outputs against.

    python3 benchmarks/record_reference.py [--seeds 0-31] [PART ...]

Writes ``benchmarks/reference/<part>.json``, for each part of each workload
(or for the parts named), with

* ``static``: per invocation, the CSV lines with the simulation columns
  blanked, which must not depend on the seed;
* ``digests`` (simulation parts only): per recorded seed, per
  invocation, a digest of every full CSV row.

Run it only on a commit whose CSV bytes are known good: later commits must
reproduce these bytes exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from worker import load_package, run_pass
from workloads import (REFERENCE_DIR, WORKLOADS, Workload, check_output, row_digest,
                       seed_range, static_lines)


def record(cli, workload: Workload, seeds: list[int]) -> dict:
    """Record a workload of one part."""
    static = None
    digests = {}
    for seed in seeds if workload.simulated else seeds[:1]:
        _, outputs = run_pass(cli, workload.argvs(seed))
        if any(rc != 0 for rc, _ in outputs):
            raise SystemExit(f"error: {workload.name} seed {seed}: an invocation failed")
        lines = [static_lines(text) for _, text in outputs]
        if static is not None and lines != static:
            raise SystemExit(f"error: {workload.name}: seed-independent columns changed "
                             f"with seed {seed}")
        static = lines
        for i, (_, text) in enumerate(outputs):
            if check_output(workload, {"static": static}, i, seed, text)[1]:
                raise SystemExit(f"error: {workload.name} seed {seed}: invocation {i} "
                                 "fails the output check")
        digests[str(seed)] = [[row_digest(r) for r in text.splitlines()[1:]]
                              for _, text in outputs]
        print(f"{workload.name} seed {seed}: {sum(len(s) - 1 for s in static)} rows",
              file=sys.stderr)
    out = {"static": static}
    if workload.simulated:
        out["digests"] = digests
    return out


def write_reference(ref: dict, name: str) -> None:
    """One CSV line per line of the file, and one seed's digests per line."""
    text = '{"static": ' + json.dumps(ref["static"], indent=1)
    if "digests" in ref:
        text += ',\n"digests": {\n' + ",\n".join(
            f"{json.dumps(seed)}: {json.dumps(lists)}" for seed, lists in ref["digests"].items())
        text += "\n}"
    (REFERENCE_DIR / f"{name}.json").write_text(text + "}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parts", nargs="*")
    ap.add_argument("--seeds", default="0-31", help="seed range, e.g. 0-31")
    args = ap.parse_args(argv)
    cli = load_package()["cli"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for part in workload.parts:
            if args.parts and part.name not in args.parts:
                continue
            alone = dataclasses.replace(workload, name=part.name, parts=(part,))
            write_reference(record(cli, alone, seed_range(args.seeds)), part.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
