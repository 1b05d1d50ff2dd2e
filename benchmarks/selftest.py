"""Self-tests of the benchmark's tracing, output check and metric names.

    python3 benchmarks/selftest.py

They drive one small preset (fig4 at the benchmark's trial count) through
the CLI, so they take a few seconds.
"""

from __future__ import annotations

import csv
import json
import re
import sys
import unittest

import bench
from worker import WRAPPED, Tracer, check_pass, load_package, run_pass
from workloads import WORKLOADS, load_reference, plausible

MODULES = load_package()
ORIGINALS = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr, _ in WRAPPED}
PRESETS = WORKLOADS["sim-sweeps"]
FIG4 = 2                   # index of the fig4 invocation in sim-sweeps
SEED = 0                   # has recorded reference rows
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _fig4_pass(tracer=None):
    argvs = PRESETS.argvs(SEED)
    return run_pass(MODULES["cli"], argvs[FIG4:FIG4 + 1], tracer)


def _check(reference, text, seed=SEED):
    """check_pass on one fig4 CSV, with fig4 the only invocation."""
    one = {"static": reference["static"][FIG4:FIG4 + 1],
           "digests": {k: v[FIG4:FIG4 + 1] for k, v in reference.get("digests", {}).items()}}
    return check_pass(PRESETS, one, seed, [(0, text)])


def _edit_row(text: str, row: int, **changes) -> str:
    rows = list(csv.reader(text.splitlines()))
    header = rows[0]
    for col, value in changes.items():
        rows[row][header.index(col)] = value
    return "".join(",".join(r) + "\n" for r in rows)


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = load_reference(PRESETS)
        cls.untraced_wall, cls.untraced = _fig4_pass()
        cls.tracer = Tracer(MODULES)
        cls.tracer.pass_id = 0
        with cls.tracer:
            cls.traced_wall, cls.traced = _fig4_pass(cls.tracer)

    def test_traced_pass_writes_untraced_bytes(self):
        self.assertEqual(self.traced, self.untraced)
        self.assertEqual(self.untraced[0][0], 0)

    def test_tracer_restores_the_wrapped_functions(self):
        for (mod, attr), fn in ORIGINALS.items():
            self.assertIs(getattr(MODULES[mod], attr), fn)

    def test_layer_self_times_add_up_to_the_spans(self):
        spans = self.tracer.spans
        self.assertEqual({s[0] for s in spans}, set(bench.LAYER_OF) - {"simulate.exact_pfail"})
        layers = bench.pass_layers(spans)[0]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(total, layers["spans_s"], delta=1e-9)
        self.assertLessEqual(layers["spans_s"], self.traced_wall)

    def test_reference_output_passes(self):
        result = _check(self.reference, self.untraced[0][1])
        self.assertEqual((result["rows"], result["failed_rows"]), (42, 0))

    def test_corrupted_bound_fails(self):
        text = self.untraced[0][1]
        ub = next(csv.DictReader(text.splitlines()))["ub_new"]
        bad = _edit_row(text, 1, ub_new=ub[:-1] + str((int(ub[-1]) + 1) % 10))
        self.assertEqual(_check(self.reference, bad)["failed_rows"], 1)

    def test_wrong_failure_count_fails(self):
        text = self.untraced[0][1]
        row = next(csv.DictReader(text.splitlines()))
        trials = int(row["trials"])
        wrong = (round(float(row["sim_estimate"]) * trials) + 1) / trials
        bad = _edit_row(text, 1, sim_estimate=format(wrong, ".12g"))
        self.assertEqual(_check(self.reference, bad)["failed_rows"], 1)

    def test_unrecorded_seed_uses_the_tail_check(self):
        text = self.untraced[0][1]
        unrecorded = {"static": self.reference["static"]}
        self.assertEqual(_check(unrecorded, text)["failed_rows"], 0)
        # every trial failing is far outside [lb_new, ub_new] at fig4's
        # largest relay count
        bad = _edit_row(text, 21, sim_estimate="1")
        self.assertEqual(_check(unrecorded, bad)["failed_rows"], 1)
        self.assertEqual(_check(unrecorded, text, seed=SEED + 1)["failed_rows"], 42)

    def test_tail_check(self):
        # fig5 at M = 29, seed 4 of the 2000-trial presets: an honest rare count
        self.assertTrue(plausible(3, 2000, 2.18e-8, 7.69e-5))
        self.assertFalse(plausible(30, 2000, 2.18e-8, 7.69e-5))
        self.assertFalse(plausible(0, 2000, 0.05, 0.1))
        self.assertTrue(plausible(0, 10, 0.0, 0.0))
        self.assertFalse(plausible(1, 10, 0.0, 0.0))

    def test_failures_raise_mismatch_frac(self):
        good = {"traced": False, "wall_s": 1.0, **_check(self.reference, self.untraced[0][1])}
        broken = check_pass(PRESETS, self.reference, SEED, [(0, "")] + [(2, "")] * 3)
        measured = {"starts": [(0.1, {"fields_s": 0.0, "table_mb": 0.0})],
                    "runs": [{"passes": [good, {"traced": False, "wall_s": 1.0, **broken}],
                              "spans": [], "peak_rss_mb": 1.0}]}
        summary = bench.summarize(PRESETS, measured, trace=False)
        self.assertGreater(summary["failed"] / summary["attempted"], 0)
        self.assertGreaterEqual(broken["failed_invocations"], 3)

    def test_metric_names(self):
        with open(bench.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        passes = [{"traced": False, "wall_s": self.untraced_wall,
                   **_check(self.reference, self.untraced[0][1])},
                  {"traced": True, "wall_s": self.traced_wall,
                   **_check(self.reference, self.traced[0][1])}]
        measured = {"starts": [(0.1, {"fields_s": 0.01, "table_mb": 0.1})],
                    "runs": [{"passes": passes, "spans": self._spans_as_pass(1),
                              "peak_rss_mb": 1.0}]}
        summary = bench.summarize(PRESETS, measured, trace=True)
        self.assertEqual(summary["failed"], 0)
        for key in ("end_to_end", "per_layer"):
            for m in spec[key]:
                self.assertIn(m["name"], summary[key])

    def _spans_as_pass(self, pass_id):
        return [s[:4] + [pass_id] + s[5:] for s in self.tracer.spans]


if __name__ == "__main__":
    sys.exit(unittest.main())
