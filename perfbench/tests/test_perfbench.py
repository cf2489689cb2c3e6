"""Tests of the benchmark itself: its committed table, its determinism, and
its exit codes.  Each run uses the tiny point lists, so the module takes
seconds."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402


def _run(*args, cwd=ROOT, run=RUN):
    done = subprocess.run([sys.executable, run, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def _result(*args):
    code, lines, err = _run(*args)
    assert code == 0, err
    return json.loads(lines[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_expected_table_matches_independent_closed_forms():
    for (kind, q, m, n), value in wl.EXPECTED.items():
        assert wl.expected_value(kind, q, m, n) == value, (kind, q, m, n)


def test_every_point_has_an_expected_value():
    for points in wl.POINTS.values():
        for point in points:
            assert point in wl.EXPECTED


def test_own_arithmetic_on_known_values():
    assert wl.gauss_binom(4, 2, 2) == 35
    assert wl.gauss_binom(8, 4, 2) == 200787
    assert wl.irreducible_count(6, 2) == 9
    assert wl.primitive_count(6, 2) == 6
    assert wl.candidates("PFC", (2, 2, 3)) == 6 * (4096 + 4096)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result("--workload", workload, "--size", "tiny", "--seconds", "0", "--seed", "5")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = [metric["name"] for metric in _spec()["end_to_end"]]
    assert sorted(res["metrics"]) == sorted(names)
    assert all(res["metrics"][name]["value"] > 0 for name in names)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_runs_repeat_every_count(workload):
    args = ("--workload", workload, "--size", "tiny", "--trace", "1", "--seed", "5")
    first, second = _result(*args), _result(*args)
    assert first["correct"] and second["correct"]
    names = [metric["name"] for metric in _spec()["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    counts = [name for name, unit, _ in bench_trace.PER_LAYER
              if unit in ("count", "ratio") and name != "trace.overhead_ratio"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload.startswith("ssc-"):
        # Subspace scans are all the ssc-* candidates the benchmark counts.
        yielded = first["metrics"]["linalg.enumerate_subspaces.yielded"]["value"]
        cands = sum(wl.candidates(kind, (q, m, n))
                    for kind, q, m, n in wl.POINTS[(workload, "tiny")])
        assert yielded == cands


def test_speed_probes_run_inside_an_item_and_their_time_is_counted():
    with bench_speed.SpeedLog() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.2:
            pass
        t1 = time.perf_counter()
    inside = [t for t in speed.times if t0 < t < t1]
    assert len(inside) >= 2
    assert 0 < speed.spent_wall < t1 - t0
    assert speed.factor(t0, t1) > 0


def test_verify_reports_repeat_byte_for_byte_across_passes():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import splitlab as sl

    inputs = wl.build_inputs(sl, "verify-defaults", "full", 0)
    first = wl.run_pass(sl, inputs)
    second = wl.run_pass(sl, inputs)
    assert first.failures == [] and second.failures == []
    assert len(inputs.report_digests) == len(sl.statement_ids())


def test_wrong_value_fails_the_gate(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import splitlab as sl

    monkeypatch.setitem(wl.EXPECTED, ("SSC", 2, 2, 2), 21)
    inputs = wl.build_inputs(sl, "ssc-f2", "tiny", 0)
    checks = wl.run_pass(sl, inputs)
    assert checks.attempted == 3 and len(checks.failures) == 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    code, lines, err = _run("--workload", "census", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path,
                            run=str(tmp_path / "perfbench" / "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
    assert "splitlab" in err
