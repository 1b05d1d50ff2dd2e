"""One workload process of the rlnc-bounds benchmark.

Started by ``bench.py``; not meant to be run by hand.  It imports the
package from the checkout's ``src/``, builds the fields the workload uses,
prints one ``ready`` line, then (unless ``--setup-only``) runs passes of the
workload through ``rlnc_bounds.cli.main`` and prints one result line.

``--pattern`` gives the passes' tracing in turn, repeated: ``u`` runs a pass
untraced, ``t`` runs it with spans around the calls into each layer.  Passes
stop when the next one would end after ``--seconds``, once every letter of
the pattern has run, or after ``--max-passes``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, check_output, load_reference

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute, span name): the calls into each layer that a traced
# pass wraps.  The CLI and the simulator call these through their own
# module globals, so patching there catches every call.
WRAPPED = (
    ("cli", "evaluate_all", "bounds.evaluate_all"),
    ("cli", "estimate_pfail", "simulate.estimate_pfail"),
    ("cli", "exact_pfail", "simulate.exact_pfail"),
    ("simulate", "rank_batch", "linalg.rank_batch"),
    ("simulate", "make_field", "fields.make_field"),
)


def load_package() -> dict:
    """Import rlnc_bounds from the checkout, never from an installed copy."""
    if not (SRC / "rlnc_bounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no rlnc_bounds package under {SRC}")
    sys.path.insert(0, str(SRC))
    from rlnc_bounds import cli, fields, simulate
    if Path(cli.__file__).resolve().parent != (SRC / "rlnc_bounds").resolve():
        raise SystemExit(f"error: rlnc_bounds imported from {cli.__file__}, not {SRC}")
    return {"cli": cli, "fields": fields, "simulate": simulate}


def build_fields(fields, workload) -> float:
    """Build the workload's fields and tables; return their size in MB."""
    nbytes = 0
    for q in workload.fields:
        f = fields.make_field(q)
        if f.exp_table is not None:
            nbytes += f.exp_table.nbytes + f.log_table.nbytes
        if workload.tables:
            nbytes += fields._inv_table(f).nbytes
            if q <= fields._DENSE_LIMIT:
                nbytes += sum(t.nbytes for t in fields._dense_tables(f))
    return nbytes / 1e6


class Tracer:
    """Spans around the calls into each layer, kept in memory.

    A span is ``[name, start, end, parent index, pass id, counts]``; the
    counts are taken from the returned value after the clock stops.
    """

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.pass_id = None
        self._stack: list[int] = []
        self._modules = modules
        self._saved: list[tuple] = []

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.pass_id, {}]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        span[5] = _counts(name, args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def __enter__(self):
        for mod_name, attr, name in WRAPPED:
            mod = self._modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def _counts(name: str, args, result) -> dict:
    if name == "linalg.rank_batch":
        field, mats = args[0], args[1]
        return {"q": field.q, "matrices": int(result.size),
                "deficient": int((result < mats.shape[2]).sum()), "bytes": int(mats.nbytes)}
    if name == "simulate.estimate_pfail":
        return {"q": result.params.q, "trials": result.trials, "failures": result.failures}
    if name == "simulate.exact_pfail":
        return {"states": result.state_count}
    return {}


def run_pass(cli, argvs, tracer: Tracer | None = None) -> tuple[float, list]:
    """Run one pass; return its wall time and (exit code, CSV text) per argv.

    An invocation that raises gets exit code None; its traceback goes to
    stderr and the pass goes on.
    """
    outputs = []
    t0 = perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, (argv,), {})
            except Exception:  # counted as a failed invocation
                traceback.print_exc()
                rc = None
        outputs.append((rc, buf.getvalue()))
    return perf_counter() - t0, outputs


def check_pass(workload, reference, seed: int, outputs) -> dict:
    rows = failed_rows = failed_invocations = 0
    digest = hashlib.sha256()
    for i, (rc, text) in enumerate(outputs):
        expected, failed = check_output(workload, reference, i, seed, text)
        rows += expected
        failed_rows += failed
        failed_invocations += rc != 0
        digest.update(text.encode())
    return {"rows": rows, "failed_rows": failed_rows, "invocations": len(outputs),
            "failed_invocations": failed_invocations, "csv_sha256": digest.hexdigest()}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--pattern", default="u")
    ap.add_argument("--max-passes", type=int, default=0, help="0 means no limit")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = perf_counter()
    modules = load_package()
    t1 = perf_counter()
    table_mb = build_fields(modules["fields"], workload)
    t2 = perf_counter()
    import numpy
    _emit({"ready": True, "import_s": t1 - t0, "fields_s": t2 - t1, "table_mb": table_mb,
           "python": platform.python_version(), "numpy": numpy.__version__})
    if args.setup_only:
        return 0

    reference = load_reference(workload)
    argvs = workload.argvs(args.seed)
    tracer = Tracer(modules)
    passes = []
    start = perf_counter()
    while True:
        traced = args.pattern[len(passes) % len(args.pattern)] == "t"
        if traced:
            tracer.pass_id = len(passes)
            with tracer:
                wall, outputs = run_pass(modules["cli"], argvs, tracer)
        else:
            wall, outputs = run_pass(modules["cli"], argvs)
        passes.append({"traced": traced, "wall_s": wall,
                       **check_pass(workload, reference, args.seed, outputs)})
        if len(passes) == args.max_passes:
            break
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= len(args.pattern) and perf_counter() - start + typical > args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({"passes": passes, "spans": tracer.spans, "peak_rss_mb": peak_kib * 1024 / 1e6})
    return 0


if __name__ == "__main__":
    sys.exit(main())
