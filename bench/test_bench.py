"""Tests of the benchmark itself; they never assert timings.

Run from the repository root:  python3 -m pytest bench
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "name": sid, "cycle": 1, "start": start, "end": end}


def test_self_times_subtract_the_union_of_child_spans():
    spans = [
        span("a", None, 0.0, 10.0),
        span("b", "a", 1.0, 4.0),
        span("c", "a", 5.0, 9.0),
        span("d", "c", 6.0, 7.0),
        span("e", "a", 3.0, 6.0),       # overlaps b and c: covered time counts once
        span("f", "d", 6.5, 8.0),       # runs past its parent: clipped to it
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"a": 2.0, "b": 3.0, "c": 3.0, "d": 0.5, "e": 3.0, "f": 1.5})


def test_install_wraps_every_namespace_and_uninstall_restores(tmp_path):
    run.import_program()
    from krylovlab import experiments, krylov_dynamics, spectral
    original = spectral.eig_dense
    tracer = tracing.Tracer(tmp_path)
    tracer.install({"spectral.eig_dense": None, "krylov_dynamics.build_tfd_krylov": None},
                   "krylovlab")
    try:
        assert krylov_dynamics.eig_dense is spectral.eig_dense is experiments.eig_dense
        assert spectral.eig_dense is not original
        experiments.build_tfd_krylov(np.diag([1.0, 2.0, 3.0]), 0.0)
    finally:
        tracer.uninstall()
    assert spectral.eig_dense is original and krylov_dynamics.eig_dense is original
    spans = {s["name"]: s for s in tracer.collect()}
    outer, inner = spans["krylov_dynamics.build_tfd_krylov"], spans["spectral.eig_dense"]
    assert inner["parent"] == outer["id"]
    assert tracing.self_times(list(spans.values()))[outer["id"]] < outer["end"] - outer["start"]


def test_failure_accounting_does_not_rely_on_verify(tmp_path):
    experiments = run.import_program()
    from krylovlab import runio
    m = experiments.RunManifest(experiment="dos", gamma_grid=(0.5, 3.0), N_grid=(16,),
                                realizations=2, output_dir=str(tmp_path))
    ok, bad = (runio.cell_stem("dos", g, 16) for g in m.gamma_grid)

    def write(failures, check_value):
        runio.write_cell(tmp_path, ok, ["x"], [[1]],
                         {"status": "ok", "checks": {"c": {"value": check_value, "tol": 0.1}}})
        runio.finalize_manifest(tmp_path, {"failures": failures} if failures else {})

    write([f"{bad}: FitError: no fit"], 0.0)
    assert run.failed_cells(runio, m, 1) == {bad}
    write([], 0.5)                       # check beyond its tolerance, summary of `bad` missing
    assert run.failed_cells(runio, m, 0) == {ok, bad}
    write(["post: FitError: no fit"], 0.0)
    assert run.failed_cells(runio, m, 1) == {ok, bad}
    write([], 0.0)
    assert run.failed_cells(runio, m, 1) == {ok, bad}


def tiny(workload: run.Workload) -> run.Workload:
    """The workload's shape at N = 16, 32, ... with 2 realizations and at most 10 gammas."""
    def shrink(gammas):
        return gammas if len(gammas) <= 10 else gammas[:5] + gammas[-5:]
    return replace(workload, sweeps=tuple(
        (exp, shrink(g), tuple(16 * (i + 1) for i in range(len(sizes))), 2)
        for exp, g, sizes, _ in workload.sweeps))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_named_metric_with_its_unit(name, trace, tmp_path):
    names = [w["name"] for w in SPEC["workloads"]]
    assert name in names
    result = run.measure(tiny(run.WORKLOADS[name]), seed=3, seconds=0.1, trace=trace,
                         work=tmp_path / "work")
    assert not (tmp_path / "work").exists()
    last = json.loads(run.report(result).splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())


def test_benchmark_json_names_the_workloads_and_this_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert Path(run.BENCH_DIR.name) == Path(SPEC["paths"][0])
