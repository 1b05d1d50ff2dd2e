import concurrent.futures
import csv
import inspect
import io
import re
import sys
import threading
import time
import unittest
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rlnc_bounds import cli, fields, simulate
from rlnc_bounds.bounds import NetworkParams
from rlnc_bounds.cli import COLUMNS, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import selftest  # noqa: E402  (the benchmark's own self-tests)
import worker  # noqa: E402  (the names the benchmark reads from the package)
import workloads  # noqa: E402  (the benchmark's workloads and reference bytes)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# bounds command


def test_bounds_row_single_source_pinch():
    code, out, _ = run_cli("bounds", "--sources", "1", "--relays", "5",
                           "--field", "2", "--eps-sr", "0.3", "--eps-rd", "0.2")
    assert code == 0
    header, rows = parse(out)
    assert header == COLUMNS
    row = dict(zip(header, rows[0]))
    want = 0.44**5
    assert float(row["ub_new"]) == pytest.approx(want, abs=1e-12)
    assert float(row["lb_new"]) == pytest.approx(want, abs=1e-12)
    assert row["sim_estimate"] == "" and row["trials"] == ""


def test_bounds_rejects_non_prime_power_field():
    code, _, err = run_cli("bounds", "--sources", "2", "--relays", "3",
                           "--field", "6", "--eps-sr", "0.1", "--eps-rd", "0.1")
    assert code == 2
    assert "field order must be a prime power" in err


def test_bounds_rejects_bad_probability():
    code, _, err = run_cli("bounds", "--sources", "2", "--relays", "3",
                           "--field", "2", "--eps-sr", "1.5", "--eps-rd", "0.1")
    assert code == 2
    assert "eps_sr" in err


def test_bounds_warns_when_relays_are_scarce():
    for sources in ("5", "6", "8"):  # up to twice as many sources as relays
        code, out, err = run_cli("bounds", "--sources", sources, "--relays", "3",
                                 "--field", "2", "--eps-sr", "0.1", "--eps-rd", "0.1")
        assert code == 0
        assert "fewer relays than sources" in err
        _, rows = parse(out)
        assert float(dict(zip(COLUMNS, rows[0]))["lb_new"]) == 1.0


def test_large_network_bound_columns():
    code, out, _ = run_cli("bounds", "--sources", "30", "--relays", "35",
                           "--field", "2", "--eps-sr", "0.9", "--eps-rd", "0.1")
    assert code == 0
    _, rows = parse(out)
    row = dict(zip(COLUMNS, rows[0]))
    assert float(row["ub_old_raw"]) > 1.0
    assert float(row["ub_old_clamped"]) == 1.0
    assert float(row["ub_new"]) <= 1.0


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_preset_shape_and_probability_columns():
    code, out, _ = run_cli("sweep", "--preset", "fig3", "--no-sim")
    assert code == 0
    header, rows = parse(out)
    assert header == COLUMNS
    assert len(rows) == 18  # q in {4, 64} x nine eps_sr values
    for r in rows:
        d = dict(zip(header, r))
        assert d["n"] == "20" and d["m"] == "25" and d["eps_rd"] == "0.1"
        for col in ("lb_old", "lb_new", "ub_new", "ub_old_clamped"):
            assert 0.0 <= float(d[col]) <= 1.0
        float(d["ub_old_raw"])  # parses; may exceed 1


def test_sweep_axis_endpoints():
    code, out, _ = run_cli("sweep", "--axis", "eps-sr", "--values", "0,1",
                           "--sources", "2", "--relays", "6", "--field", "64",
                           "--eps-sr", "0.5", "--eps-rd", "0", "--trials", "4000",
                           "--seed", "3")
    assert code == 0
    _, rows = parse(out)
    lo = dict(zip(COLUMNS, rows[0]))
    hi = dict(zip(COLUMNS, rows[1]))
    assert float(lo["sim_estimate"]) < 1e-3 and float(lo["ub_new"]) < 1e-3
    assert float(hi["sim_estimate"]) == 1.0 and float(hi["lb_new"]) == 1.0


def test_sweep_includes_simulation_by_default_and_is_seeded():
    a = run_cli("sweep", "--axis", "relays", "--values", "2,3", "--sources", "2",
                "--relays", "2", "--field", "2", "--eps-sr", "0.2",
                "--eps-rd", "0.1", "--trials", "2000")
    b = run_cli("sweep", "--axis", "relays", "--values", "2,3", "--sources", "2",
                "--relays", "2", "--field", "2", "--eps-sr", "0.2",
                "--eps-rd", "0.1", "--trials", "2000")
    assert a == b
    _, rows = parse(a[1])
    d = dict(zip(COLUMNS, rows[0]))
    assert d["trials"] == "2000" and d["seed"] == "0"
    assert d["sim_ci_low"] <= d["sim_estimate"] <= d["sim_ci_high"]


def test_sweep_byte_identical_to_file(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run_cli("sweep", "--preset", "fig3", "--trials", "500",
                             "--seed", "7", "--output", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_exact_column():
    code, out, _ = run_cli("sweep", "--axis", "eps-rd", "--values", "0,0.5",
                           "--sources", "2", "--relays", "3", "--field", "2",
                           "--eps-sr", "0.2", "--eps-rd", "0", "--no-sim", "--exact")
    assert code == 0
    header, rows = parse(out)
    assert header == COLUMNS + ["exact_pfail"]
    for r in rows:
        d = dict(zip(header, r))
        assert float(d["lb_new"]) - 1e-9 <= float(d["exact_pfail"]) <= float(d["ub_new"]) + 1e-9


def test_sweep_argument_validation():
    assert run_cli("sweep")[0] == 2
    assert run_cli("sweep", "--axis", "eps-sr", "--values", "0.1", "--sources", "2",
                   "--relays", "3", "--field", "2", "--eps-sr", "0.1")[0] == 2
    code, _, err = run_cli("sweep", "--axis", "q", "--values", "2,6", "--sources", "2",
                           "--relays", "3", "--field", "2", "--eps-sr", "0.1",
                           "--eps-rd", "0.1")
    assert code == 2 and "prime power" in err
    code, _, err = run_cli("sweep", "--axis", "eps-sr", "--values", "0.1,2.0",
                           "--sources", "2", "--relays", "3", "--field", "2",
                           "--eps-sr", "0.1", "--eps-rd", "0.1")
    assert code == 2


@pytest.mark.parametrize("axis, base, good, bad", [
    ("relays", ("--relays", "0", "--field", "2"), "5,6", "0,5"),
    ("q", ("--relays", "3", "--field", "131072"), "2,4", "2,131072"),
])
def test_sweep_validates_the_points_not_the_base_value_they_replace(axis, base, good, bad):
    argv = ("sweep", "--axis", axis, "--sources", "2", *base, "--eps-sr", "0.1",
            "--eps-rd", "0.1", "--no-sim")
    code, out, _ = run_cli(*argv, "--values", good)
    assert code == 0 and len(parse(out)[1]) == 2
    code, out, err = run_cli(*argv, "--values", bad)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_out_of_range_field_is_rejected_before_it_is_factored(monkeypatch):
    # the range check comes first, so the error names the limit
    real = cli.NetworkParams

    def params(**kw):
        assert kw["q"] <= fields.MAX_ORDER, f"NetworkParams built for q = {kw['q']}"
        return real(**kw)

    monkeypatch.setattr(cli, "NetworkParams", params)
    base = ("--sources", "2", "--relays", "3", "--eps-sr", "0.1", "--eps-rd", "0.1")
    for argv in (("bounds", "--field", "2305843009213693951", *base),
                 ("sweep", "--axis", "q", "--values", "2,2305843009213693951",
                  "--field", "2", "--no-sim", *base)):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err == f"error: field order must be at most {fields.MAX_ORDER}, " \
                      "got 2305843009213693951\n"


# ---------------------------------------------------------------------------
# concurrent simulation of a sweep's points

FIG3_SIM = ("sweep", "--preset", "fig3", "--trials", "5000", "--seed", "9")
FIG3_POINTS = [NetworkParams(**kw) for kw in cli._PRESETS["fig3"]]


def test_sweep_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    # 5000 trials span several batches at every worker count (4096 trials a
    # batch with one worker, 1024 with four)
    outs = []
    for cores in (1, 2, 4):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        code, out, _ = run_cli(*FIG3_SIM)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    _, rows = parse(outs[0])
    assert len(rows) == len(FIG3_POINTS) == 18
    for row, p in zip(rows, FIG3_POINTS):
        serial = simulate.estimate_pfail(p, 5000, 9)
        assert round(float(dict(zip(COLUMNS, row))["sim_estimate"]) * 5000) == serial.failures


# one (N, M) group that mixes every per-point parameter, with a point of
# another size among them; 5000 trials reach past the BATCH_TRIALS a group
# shares into batches drawn for each point
SAME_SIZE = [NetworkParams(3, 5, q, esr, erd) for q in (2, 3, 4, 256)
             for esr in (0.0, 0.3, 1.0) for erd in (0.1, 0.4)]
MIXED_POINTS = SAME_SIZE[:12] + [NetworkParams(2, 4, 3, 0.3, 0.25)] + SAME_SIZE[12:]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_shared_draws_keep_every_estimate(monkeypatch, seed):
    want = [simulate.estimate_pfail(p, 5000, seed) for p in MIXED_POINTS]
    for cores in (1, 2, 4):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        assert cli._simulate_points(MIXED_POINTS, 5000, seed) == want, cores


FIG4_POINTS = [NetworkParams(**kw) for kw in cli._PRESETS["fig4"]]


@pytest.mark.parametrize("points", [FIG4_POINTS, MIXED_POINTS], ids=["fig4", "mixed"])
def test_every_shared_batch_is_released_by_the_end_of_a_run(monkeypatch, points):
    # a group told to await more readers than it has would keep its batches
    # for the rest of the run
    made = []

    def recording(*args, **kw):
        made.append(simulate.TrialDraws(*args, **kw))
        return made[-1]

    monkeypatch.setattr(cli, "TrialDraws", recording)
    for cores in (1, 2, 4):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        made.clear()
        cli._simulate_points(points, 5000, 3)
        assert len(made) == len({(p.n_sources, p.n_relays) for p in points}), cores
        assert all(not draws._open for draws in made), cores


def test_each_group_draws_once_and_is_submitted_in_one_run(monkeypatch, draw_sizes):
    # one batch a group, not one a point; a group's points are submitted one
    # after another, which bounds how many groups' draws are held at once
    submitted = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, p, *args):
            submitted.append((p.n_sources, p.n_relays))
            return super().submit(fn, p, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    for preset, points, groups in (("fig4", 42, 21), ("fig3", 18, 1)):
        draw_sizes.clear()
        submitted.clear()
        assert run_cli("sweep", "--preset", preset, "--trials", "1000")[0] == 0
        assert len(draw_sizes) == groups, preset
        runs = [k for i, k in enumerate(submitted) if i == 0 or k != submitted[i - 1]]
        assert len(submitted) == points and len(runs) == len(set(runs)) == groups, preset


def test_every_point_is_simulated_once_through_the_cli_global(monkeypatch):
    # benchmarks/worker.py traces the simulate layer by wrapping this name
    calls = []
    real = cli.estimate_pfail

    def counting(p, *args, **kw):
        calls.append(p)
        return real(p, *args, **kw)

    monkeypatch.setattr(cli, "estimate_pfail", counting)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 4)
    code, _, _ = run_cli("sweep", "--preset", "fig3", "--trials", "50")
    assert code == 0
    assert Counter(calls) == Counter(FIG3_POINTS)


def test_no_pool_is_started_when_nothing_is_simulated(monkeypatch):
    def no_pool(*args, **kw):
        raise AssertionError("started a simulation pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert run_cli("sweep", "--preset", "fig3", "--no-sim")[0] == 0
    assert run_cli("bounds", "--sources", "2", "--relays", "3", "--field", "2",
                   "--eps-sr", "0.1", "--eps-rd", "0.1")[0] == 0
    assert run_cli("exact", "--sources", "2", "--relays", "3", "--field", "2",
                   "--eps-sr", "0.2", "--eps-rd", "0.1")[0] == 0


def test_a_failing_point_ends_the_sweep_and_cancels_the_queued_ones(tmp_path, monkeypatch):
    # two workers; point 0 fails while every other point that starts waits
    # for `release`, which is set only once shutdown has cancelled the queue,
    # so no point queued at the failure can start
    release = threading.Event()
    started = []

    class ReleasingPool(concurrent.futures.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    def stub(p, *args):
        i = FIG3_POINTS.index(p)
        started.append(i)
        if i == 0:
            raise RuntimeError("point 0 failed")
        assert release.wait(timeout=60), "the pool was never shut down"
        return simulate.estimate_pfail(p, *args)

    monkeypatch.setattr(cli, "estimate_pfail", stub)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", ReleasingPool)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    target = tmp_path / "out.csv"
    target.write_bytes(b"earlier results\n")
    with pytest.raises(RuntimeError, match="point 0 failed"):
        run_cli("sweep", "--preset", "fig3", "--trials", "10", "--output", str(target))
    assert target.read_bytes() == b"earlier results\n"
    # points 1 and 2 may start beside point 0 before its failure is read: one
    # on the second worker, one on the worker point 0 freed
    assert 0 in started and set(started) <= {0, 1, 2}, started


# ---------------------------------------------------------------------------
# exact command


def test_exact_command_reports_value_and_bounds():
    code, out, _ = run_cli("exact", "--sources", "2", "--relays", "3",
                           "--field", "2", "--eps-sr", "0.2", "--eps-rd", "0.1")
    assert code == 0
    header, rows = parse(out)
    assert header == COLUMNS + ["exact_pfail"]
    d = dict(zip(header, rows[0]))
    ex = float(d["exact_pfail"])
    assert ex == pytest.approx(0.399817216, abs=1e-12)
    assert float(d["lb_new"]) - 1e-9 <= ex <= float(d["ub_new"]) + 1e-9
    assert float(d["lb_old"]) - 1e-9 <= ex <= float(d["ub_old_clamped"]) + 1e-9


def test_exact_command_saturated_erasure():
    code, out, _ = run_cli("exact", "--sources", "2", "--relays", "2",
                           "--field", "2", "--eps-sr", "1", "--eps-rd", "0")
    assert code == 0
    header, rows = parse(out)
    assert float(dict(zip(header, rows[0]))["exact_pfail"]) == 1.0


def test_exact_guard_stops_a_sweep_before_any_simulation(monkeypatch):
    def no_sim(*args):
        raise AssertionError("simulated before the oracle's guard")

    monkeypatch.setattr(cli, "estimate_pfail", no_sim)
    code, out, err = run_cli("sweep", "--axis", "eps-rd", "--values", "0.1,0.2",
                             "--sources", "3", "--relays", "20", "--field", "64",
                             "--eps-sr", "0.2", "--eps-rd", "0.1", "--trials", "10",
                             "--exact")
    assert code == 3 and out == "" and "state space" in err


def test_exact_guard_exit_code():
    code, _, err = run_cli("exact", "--sources", "3", "--relays", "20",
                           "--field", "64", "--eps-sr", "0.2", "--eps-rd", "0.1")
    assert code == 3
    assert "state space" in err


@pytest.mark.parametrize("size", [120, 30000])
def test_exact_guard_refuses_huge_instances_in_one_short_line(size):
    # q^(M*N) * 2^M has 14,520 bits at 120 and 9*10^8 at 30000: the guard
    # must neither print nor build it
    start = time.perf_counter()
    code, out, err = run_cli("exact", "--sources", str(size), "--relays", str(size),
                             "--field", "2", "--eps-sr", "0.3", "--eps-rd", "0.1")
    elapsed = time.perf_counter() - start
    assert code == 3 and out == ""
    assert err.startswith("error: state space 2^") and err.count("\n") == 1
    assert len(err) < 200, err
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# generic argument handling


def test_unknown_command_exits_with_usage_error():
    assert run_cli("frobnicate")[0] == 2


def test_nonpositive_trials_exit_with_usage_error():
    code, _, err = run_cli("sweep", "--preset", "fig3", "--trials", "0")
    assert code == 2 and "trials" in err


def test_missing_required_flags_exit_with_usage_error():
    assert run_cli("bounds", "--sources", "2")[0] == 2


def test_a_reused_parser_keeps_every_output(monkeypatch):
    point = ["--sources", "2", "--relays", "3", "--field", "3", "--eps-sr", "0.2",
             "--eps-rd", "0.1"]
    argvs = [["sweep", "--preset", "fig2", "--no-sim"], ["bounds", *point],
             ["bounds", "--sources", "2"], ["exact", *point], ["--help"],
             ["sweep", "--preset", "fig2", "--no-sim"]]
    got = [run_cli(*argv) for argv in argvs]  # one parser for all six runs
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    want = [run_cli(*argv) for argv in argvs]  # a fresh parser a run
    assert [code for code, _, _ in want] == [0, 0, 2, 0, 0, 0]
    assert got == want


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_with_usage_error(seed):
    code, out, err = run_cli("sweep", "--preset", "fig3", "--trials", "10", "--seed", seed)
    assert code == 2 and "seed" in err and out == ""


@pytest.mark.parametrize("want_code, argv", [
    (2, ["sweep", "--preset", "fig2", "--seed", "-1"]),
    (3, ["exact", "--sources", "3", "--relays", "20", "--field", "64",
         "--eps-sr", "0.2", "--eps-rd", "0.1"]),
])
def test_rejected_run_leaves_the_output_file_untouched(tmp_path, want_code, argv):
    target = tmp_path / "out.csv"
    target.write_bytes(b"earlier results\n")
    code, out, _ = run_cli(*argv, "--output", str(target))
    assert code == want_code and out == ""
    assert target.read_bytes() == b"earlier results\n"


@pytest.mark.parametrize("argv", [
    ["bounds", "--sources", "2", "--relays", "3", "--field", "2",
     "--eps-sr", "0.1", "--eps-rd", "0.1"],
    ["sweep", "--preset", "fig2", "--trials", "20000"],
])
def test_unwritable_output_is_rejected_before_any_point(tmp_path, monkeypatch, argv):
    def no_points(p):
        raise AssertionError(f"computed {p} before checking --output")

    monkeypatch.setattr(cli, "evaluate_all", no_points)
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(*argv, "--output", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# byte identity with the benchmark's recorded reference


@pytest.mark.parametrize("part", [workloads.BOUNDS_GRID, workloads.EXACT_ORACLE,
                                  workloads.PRESETS_SIM, workloads.Q_AXIS_SIM],
                         ids=lambda part: part.name)
def test_output_bytes_match_the_benchmark_reference(part):
    ref = workloads.load_part_reference(part)
    want = ref["static"]
    # full-row digests of the recorded seed 0 pin the simulated failure counts
    digests = ref["digests"]["0"] if part.trials else None
    argvs = part.argvs(0)
    assert len(argvs) == len(want)
    for i, (argv, lines) in enumerate(zip(argvs, want)):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert workloads.static_lines(out) == lines, argv
        if digests is not None:
            rows = out.splitlines()[1:]
            assert [workloads.row_digest(row) for row in rows] == digests[i], argv


def test_the_names_the_benchmark_reads_exist():
    # benchmarks/worker.py wraps these calls and sizes these field tables;
    # dropping one should fail here, not only in the benchmark
    modules = {"cli": cli, "fields": fields, "simulate": simulate}
    for mod, attr, _ in worker.WRAPPED:
        assert callable(getattr(modules[mod], attr, None)), (mod, attr)
    read = set(re.findall(r"\bfields\.(\w+)", inspect.getsource(worker.build_fields)))
    assert {"_inv_table", "_dense_tables", "_DENSE_LIMIT"} <= read
    for name in read:
        assert hasattr(fields, name), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_benchmark_set_up_builds_its_fields(name):
    # the set-up reads the field tables' attributes, not only their names
    assert worker.build_fields(fields, workloads.WORKLOADS[name]) > 0


def test_the_benchmark_selftest_passes():
    # traced and untraced passes write the same bytes, corrupted bounds and
    # counts are caught, and the metric names are valid
    suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun > 0
    assert result.wasSuccessful(), result.failures + result.errors
