"""Tests of the benchmark itself: oracles, failure counting, tracer coverage.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_cagekit()

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

import cagekit  # noqa: E402
from cagekit import linalg, verify  # noqa: E402
from cagekit.errors import SingularNodeError  # noqa: E402

# one cheap slot of every operation kind of each workload
SMALL_ROUNDS = {
    "supra-certify": (("verify", 2, 3, 1), ("verify", 3, 3, 1)),
    "hilbert-tables": (("hilbert", 2, 3, 1), ("fubini", 2, 4, 1),
                       ("cb", 2, 3, 1)),
    "inscribe-numberfield": (("inscribe", 2, 3, 1), ("inscribe", 3, 2, 1),
                             ("demo", 3, 3, 1)),
}


@pytest.fixture
def small_rounds(monkeypatch):
    monkeypatch.setitem(wl.ROUNDS, "supra-certify",
                        SMALL_ROUNDS["supra-certify"])
    monkeypatch.setitem(wl.ROUNDS, "hilbert-tables",
                        SMALL_ROUNDS["hilbert-tables"])
    monkeypatch.setitem(wl.ROUNDS, "inscribe-numberfield",
                        SMALL_ROUNDS["inscribe-numberfield"])


def test_grid_hilbert_series_matches_seed_tables():
    assert wl.grid_hilbert(2, 3, 5) == [1, 3, 6, 8, 9, 9]
    assert wl.grid_hilbert(2, 5, 9) == [1, 3, 6, 10, 15, 19, 22, 24, 25, 25]
    assert wl.grid_hilbert(3, 3, 7) == [1, 4, 10, 17, 23, 26, 27, 27]


def test_fraction_rank():
    assert wl.fraction_rank([[1, 2], [2, 4]]) == 1
    assert wl.fraction_rank([[0, 1, 2], [1, 0, 3], [1, 1, 5]]) == 2
    assert wl.fraction_rank([[1, 0], [0, 1]]) == 2


def test_same_seed_same_inputs(small_rounds):
    for workload in run.WORKLOADS:
        first = wl.build_round(workload, 3)
        assert first == wl.build_round(workload, 3)
    payloads = [op.payload for op in wl.build_round("supra-certify", 3)]
    assert payloads != [op.payload
                        for op in wl.build_round("supra-certify", 4)]


def test_wrong_oracle_value_is_counted(small_rounds):
    ops = wl.build_round("supra-certify", 5)
    wrong = dict(ops[0].expect, supra_rank=ops[0].expect["supra_rank"] + 1)
    ops[0] = replace(ops[0], expect=wrong)
    failures = []
    _, answers = run.run_ops(ops, failures)
    assert len(failures) == 1 and failures[0][1].startswith("oracle:")
    assert answers[0] is None and all(a is not None for a in answers[1:])


@pytest.mark.parametrize("exc", [AssertionError("kernel vector check"),
                                 RuntimeError("separating form"),
                                 SingularNodeError("singular")])
def test_program_exception_is_counted(small_rounds, monkeypatch, exc):
    ops = wl.build_round("supra-certify", 5)

    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(verify, "run_suite", broken)
    failures = []
    latencies, _ = run.run_ops(ops, failures)
    assert len(failures) == len(ops) == len(latencies)
    assert failures[0][1].startswith(type(exc).__name__)


def test_tracer_wraps_every_binding_and_restores():
    original = linalg.rank
    with Tracer() as tr:
        assert tr.unwrapped() == []
        assert verify.rank is not original and cagekit.rank is not original
    assert verify.rank is original and cagekit.rank is original


def test_tracer_guard_reports_a_missed_binding():
    original = linalg.kernel_basis
    with Tracer() as tr:
        wrapped = verify.kernel_basis
        verify.kernel_basis = original
        try:
            assert tr.unwrapped() == ["cagekit.verify.kernel_basis"]
        finally:
            verify.kernel_basis = wrapped


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_agrees_with_untraced(small_rounds, workload):
    # trace() runs the round untraced and traced and reports a problem when
    # the answers or the failure counts differ, or no linalg span was seen
    metrics, attempted, failures, problems = run.trace(workload, 2)
    assert attempted == len(wl.build_round(workload, 2))
    assert failures == [] and problems == []
    assert metrics["linalg.kernel_basis.calls"][0] > 0
    assert set(run.PER_LAYER) <= set(metrics)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_measure_reports_every_end_to_end_metric(small_rounds, monkeypatch,
                                                 workload):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    metrics, attempted, failures, info = run.measure(workload, 2, 0, 0.01)
    assert failures == [] and info["fail_ratio"] == 0
    assert attempted == len(wl.build_round(workload, 2))
    for name, unit in run.END_TO_END.items():
        value, got_unit = metrics[name]
        assert value > 0 and got_unit == unit


def test_timings_are_scaled_to_the_reference_speed(small_rounds,
                                                   monkeypatch):
    # a machine at half the reference speed: reported times are halved
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "reference_probe", lambda: 2 * run.REFERENCE_S)
    metrics, _, _, info = run.measure("supra-certify", 2, 0, 0.01)
    unscaled = info["unscaled"]
    assert metrics["op_p50_s"][0] == pytest.approx(unscaled["op_p50_s"] / 2)
    assert metrics["certs_per_s"][0] == pytest.approx(
        2 * unscaled["certs_per_s"])


def test_benchmark_json_matches_the_result_lines():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "supra-certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
