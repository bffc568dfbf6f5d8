import json
import os
import platform
import subprocess
import sys
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

import krylovlab
from krylovlab import _openblas, experiments, krylov_dynamics
from krylovlab.cli import MANIFEST_FIELDS, build_parser, main
from krylovlab.ensembles import generate_rp
from krylovlab.experiments import EXPERIMENTS, RunManifest
from krylovlab.runio import format_float, format_row, output_files, write_csv

from oracles import read_csv


def read_aggregate(out_dir):
    header, rows = read_csv(out_dir / "aggregate.csv")
    return header, [[float(v) for v in row] for row in rows]


def test_rstat_sweep_end_to_end(tmp_path):
    out = tmp_path / "r"
    code = main(["rstat", "--gamma", "0.5", "3.0", "--sizes", "256",
                 "--reals", "200", "--seed", "20260815", "--out", str(out)])
    assert code == 0
    header, rows = read_aggregate(out)
    assert header == ["gamma", "N", "r_mean", "r_stderr", "rescaled_gamma"]
    by_gamma = {row[0]: row for row in rows}
    assert 0.50 < by_gamma[0.5][2] < 0.56      # GOE-like plateau
    assert 0.36 < by_gamma[3.0][2] < 0.42      # Poisson-like plateau
    assert by_gamma[0.5][2] > by_gamma[3.0][2]
    # the run is verifiable as written
    assert main(["verify", "--out", str(out)]) == 0


def test_spread_sweep_localized_phase(tmp_path):
    out = tmp_path / "s"
    code = main(["spread", "--gamma", "3.0", "--sizes", "500",
                 "--reals", "24", "--seed", "20260815", "--out", str(out)])
    assert code == 0
    _, rows = read_aggregate(out)
    gamma, N, peak_value, peak_time, plateau, has_peak, fraction = rows[0]
    assert has_peak == 0
    assert fraction < 0.1
    assert peak_value == plateau               # no peak: value collapses to plateau


TINY_GRIDS = {
    "profile": ["--gamma", "0.5", "2.0", "--sizes", "16", "32", "--reals", "3"],
    "fit": ["--gamma", "0.5", "1.0", "--sizes", "64", "--reals", "3"],
    "rstat": ["--gamma", "1.0", "--sizes", "128", "--reals", "20"],
    "dos": ["--gamma", "0.5", "1.0", "--sizes", "64", "--reals", "3"],
    "spread": ["--gamma", "0.0", "3.0", "--sizes", "64", "--reals", "3", "--beta", "0.5"],
    "ipr": ["--gamma", "0.5", "3.0", "--sizes", "16", "32", "64", "--reals", "3"],
    "logvar": ["--gamma", "1.2", "1.4", "1.6", "1.8", "2.0", "--sizes", "32", "--reals", "3"],
    "sm5": ["--gamma", "0.5", "2.0", "--sizes", "32", "64", "--reals", "3"],
}


def output_bytes(out_dir):
    return {p.relative_to(out_dir): p.read_bytes() for p in output_files(out_dir)}


def child_env(**extra):
    """This environment for a child interpreter that imports the krylovlab under test."""
    src = str(Path(krylovlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                **extra)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_repeated_runs_write_identical_bytes(tmp_path, experiment):
    base = [experiment, *TINY_GRIDS[experiment], "--seed", "7"]
    assert main(base + ["--out", str(tmp_path / "r1")]) == 0
    assert main(base + ["--out", str(tmp_path / "r2")]) == 0
    a, b = output_bytes(tmp_path / "r1"), output_bytes(tmp_path / "r2")
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    cells = len(manifest["gamma_grid"]) * len(manifest["N_grid"])
    assert sum(p.parts[0] == "cells" for p in a) == 2 * cells     # a CSV and a summary each
    assert any(p.name == "aggregate.csv" for p in a)
    assert a == b


def test_repeated_runs_at_n256_write_identical_bytes(tmp_path):
    # sytrd's output bits depend on the BLAS thread count above
    # _openblas.SERIAL_BLAS_MAX_N, so every cell's map pins the count by N:
    # sweeps in processes that inherit another OPENBLAS_NUM_THREADS write the same bytes
    base = ["profile", "--gamma", "0.5", "2.0", "--sizes", "128", "256", "--reals", "3",
            "--seed", "4"]
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"r{run}"
        assert main(base + ["--out", str(out)]) == 0
        outputs.append(output_bytes(out))
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "krylovlab", *base, "--out", str(out)],
                       env=child_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=300)
        outputs.append(output_bytes(out))
    assert sum(p.parts[0] == "cells" for p in outputs[0]) == 8
    assert any(p.name == "aggregate.csv" for p in outputs[0])
    assert all(out == outputs[0] for out in outputs[1:])


def test_cells_run_at_the_blas_thread_count_of_their_size(monkeypatch, tmp_path):
    try:
        lib = _openblas._library()
    except RuntimeError as err:
        pytest.skip(f"no cell is computed here: {err}")
    counts = []

    def recording_generate_rp(config, out=None):
        counts.append((config.N, lib.scipy_openblas_get_num_threads()))
        return generate_rp(config, out=out)
    monkeypatch.setattr(experiments, "generate_rp", recording_generate_rp)
    cut = _openblas.SERIAL_BLAS_MAX_N
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(3)
    try:
        assert main(["profile", "--gamma", "1.0", "--sizes", "16", str(cut), str(cut + 1),
                     "--reals", "2", "--out", str(tmp_path / "p")]) == 0
        assert lib.scipy_openblas_get_num_threads() == 3            # restored after each cell
    finally:
        lib.scipy_openblas_set_num_threads(before)
    assert counts == [(16, 1)] * 2 + [(cut, 1)] * 2 + [(cut + 1, 2)] * 2
    environment = json.loads((tmp_path / "p" / "manifest.json").read_text())["environment"]
    assert environment["blas_threads"] == {"serial_max_n": cut, "threads": 2}
    assert environment["openblas_config"].startswith("OpenBLAS")
    assert environment["openblas_corename"]
    # without the library no cell is computed, and the manifest says why
    def no_library():
        raise RuntimeError("no scipy OpenBLAS: none here")
    monkeypatch.setattr(_openblas, "_library", no_library)
    assert main(["profile", "--gamma", "1.0", "--sizes", "16", "--reals", "2",
                 "--out", str(tmp_path / "u")]) == 1
    manifest = json.loads((tmp_path / "u" / "manifest.json").read_text())
    assert manifest["failures"] == ["profile_g01000_N16: RuntimeError: no scipy OpenBLAS: none here"]
    assert not (tmp_path / "u" / "cells").exists()
    environment = manifest["environment"]
    assert environment["blas_threads"] == "no scipy OpenBLAS: none here"
    assert not {"openblas_config", "openblas_corename"} & set(environment)


def test_a_direct_cell_call_writes_the_same_bits_at_any_inherited_thread_count():
    # the fixtures and AC tests call cells without `run`: the cells' own map pins the count
    code = ("import json\n"
            "from krylovlab.experiments import RunManifest, _cell_ipr, mean_profile_cell\n"
            "_, rows, summary = _cell_ipr(RunManifest('ipr', (1.5,), (256,), 2), 1.5, 256)\n"
            "profile = mean_profile_cell(RunManifest('profile', (0.5,), (256,), 2), 0.5, 256)\n"
            "print(json.dumps([rows, summary, [v.tolist() for v in profile]]))")
    outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(OPENBLAS_NUM_THREADS=threads), check=True,
                              timeout=300).stdout for threads in ("1", "2")]
    rows, summary, profile = json.loads(outputs[0])
    assert len(rows) == 2 and summary["checks"]["krylov_residual"]["value"] < 1e-10
    assert len(profile[2]) == 255
    assert outputs[1] == outputs[0]


def test_manifest_records_its_environment_outside_the_hashed_bytes(monkeypatch, tmp_path):
    base = ["ipr", "--gamma", "0.5", "--sizes", "16", "24", "32", "--reals", "2", "--out"]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(base + [str(tmp_path / "unset")]) == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert main(base + [str(tmp_path / "set")]) == 0
    unset, set_ = (json.loads((tmp_path / d / "manifest.json").read_text())
                   for d in ("unset", "set"))
    facts = {"python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, "cpus": len(os.sched_getaffinity(0))}
    for manifest, threads in ((unset, (None, None)), (set_, ("1", "3"))):
        environment = manifest["environment"]
        assert {key: environment[key] for key in facts} == facts
        assert (environment["OPENBLAS_NUM_THREADS"], environment["OMP_NUM_THREADS"]) == threads
    # cell files, aggregate.csv and the hashes do not see the environment block
    assert unset["hashes"] == set_["hashes"]
    assert output_bytes(tmp_path / "unset") == output_bytes(tmp_path / "set")
    assert sorted(unset["hashes"]) == sorted(str(p.relative_to(tmp_path / "unset"))
                                             for p in output_files(tmp_path / "unset"))


def test_import_loads_neither_scipy_optimize_nor_the_blas_library():
    code = ("import sys; import krylovlab.experiments; from krylovlab import _openblas; "
            "print('scipy.optimize' in sys.modules, _openblas._library.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.split() == ["False", "0"]


def test_import_verify_and_a_no_op_resume_load_neither_scipy_linalg_nor_scipy_special(tmp_path):
    out = tmp_path / "ipr"
    args = ["ipr", "--gamma", "0.5", "--sizes", "16", "24", "32", "--reals", "2", "--out", str(out)]
    assert main(args) == 0
    # then a computing run of every experiment, which loads no scipy.linalg either
    runs = [[experiment, *grid, "--seed", "7", "--out", str(tmp_path / experiment)]
            for experiment, grid in TINY_GRIDS.items()]
    code = ("import json, sys; import krylovlab, krylovlab.cli as cli\n"
            "def loaded(prefixes=('scipy.linalg', 'scipy.special')):\n"
            "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
            "seen = [loaded(), cli.main(['verify', '--out', sys.argv[1]]), loaded(),\n"
            "        cli.main(sys.argv[2:]), loaded()]\n"
            f"seen += [[cli.main(run) for run in {runs!r}], loaded('scipy.linalg')]\n"
            "print(json.dumps(seen), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, str(out), *args], env=child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stderr.splitlines()[-1]) == [[], 0, [], 0, [], [0] * len(runs), []]


def test_manifest_records_the_run_wall_seconds(tmp_path):
    out = tmp_path / "r"
    args = ["rstat", "--gamma", "0.5", "--sizes", "16", "--reals", "2", "--out", str(out)]
    assert main(args) == 0
    wall_s = json.loads((out / "manifest.json").read_text())["environment"]["wall_s"]
    assert 0.0 < wall_s < 60.0
    assert main(args) == 0      # a resume with every cell done keeps the computing run's time
    assert json.loads((out / "manifest.json").read_text())["environment"]["wall_s"] == wall_s
    (out / "cells" / "rstat_g00500_N16.csv").unlink()
    assert main(args) == 0      # a resume that computes a cell records its own
    assert json.loads((out / "manifest.json").read_text())["environment"]["wall_s"] != wall_s
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps({**manifest, "environment": []}))
    assert main(args) == 0      # a no-op resume over a malformed record times itself
    assert 0.0 < json.loads((out / "manifest.json").read_text())["environment"]["wall_s"] < 60.0


def test_realizations_run_on_the_calling_thread(monkeypatch, tmp_path):
    threads = []

    def recording_generate_rp(config, out=None):
        threads.append(threading.get_ident())
        return generate_rp(config, out=out)
    monkeypatch.setattr(experiments, "generate_rp", recording_generate_rp)
    assert main(["rstat", "--gamma", "0.5", "3.0", "--sizes", "64", "--reals", "6",
                 "--out", str(tmp_path / "r")]) == 0
    assert threads == [threading.get_ident()] * 12


def test_an_unsaturated_spread_cell_is_written_and_fails_verify(monkeypatch, tmp_path):
    # a time grid that ends while K_S still rises: the final window drifts
    monkeypatch.setattr(experiments, "build_time_grid",
                        lambda b1, N: np.geomspace(1e-2 / b1, 1.0 / b1, 400))
    out = tmp_path / "s"
    assert main(["spread", "--gamma", "0.0", "--sizes", "64", "--reals", "2",
                 "--out", str(out)]) == 1
    summary = json.loads(next((out / "cells").glob("*.json")).read_text())
    assert summary["status"] == "ok"
    assert summary["checks"]["plateau_drift"]["value"] > 0.01
    assert main(["verify", "--out", str(out)]) == 1


def test_a_non_unitary_spread_cell_is_written_and_fails_verify(monkeypatch, tmp_path):
    # eigenvectors scaled by 1 + 1e-6 break unitarity at ~2e-6, far above the 1e-9 check
    eig_tridiagonal = krylov_dynamics.eig_tridiagonal

    def stretched(t, want_vectors=False):
        lam, U = eig_tridiagonal(t, want_vectors)
        return lam, U * (1.0 + 1e-6)
    monkeypatch.setattr(krylov_dynamics, "eig_tridiagonal", stretched)
    out = tmp_path / "s"
    assert main(["spread", "--gamma", "0.0", "--sizes", "64", "--reals", "2",
                 "--out", str(out)]) == 1
    summary = json.loads(next((out / "cells").glob("*.json")).read_text())
    assert summary["status"] == "ok"
    assert summary["checks"]["unitarity_residual"]["value"] > 1e-9
    assert main(["verify", "--out", str(out)]) == 1


def test_a_failed_check_names_its_cell_and_fails_every_resume(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "build_time_grid",
                        lambda b1, N: np.geomspace(1e-2 / b1, 1.0 / b1, 400))
    out = tmp_path / "s"
    args = ["spread", "--gamma", "0.0", "0.5", "--sizes", "64", "--reals", "2",
            "--out", str(out)]
    assert main(args) == 1
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert [f.split(": ", 1)[0] for f in failures] == ["spread_g00000_N64", "spread_g00500_N64"]
    assert all(f.split(": ", 1)[1].startswith("check plateau_drift ") for f in failures)
    first = output_bytes(out)
    assert main(args) == 1          # resumed from disk, reported the same way
    assert json.loads((out / "manifest.json").read_text())["failures"] == failures
    assert output_bytes(out) == first


@pytest.mark.parametrize("drift, code", [(float("nan"), 1), (0.01, 0), (-0.01, 0),
                                         (np.nextafter(0.01, 1.0), 1)])
def test_a_check_passes_iff_its_value_is_within_tol(monkeypatch, capsys, tmp_path, drift, code):
    # plateau_drift has tol 0.01; a NaN value is beyond every tol, a value at tol passes
    monkeypatch.setattr(experiments, "plateau_drift", lambda times, ks_mean: drift)
    out = tmp_path / "s"
    args = ["spread", "--gamma", "0.0", "--sizes", "64", "--reals", "2", "--out", str(out)]
    failures = [f"spread_g00000_N64: check plateau_drift {drift} > 0.01"] if code else []
    for _ in ("computed", "resumed"):
        assert main(args) == code
        assert json.loads((out / "manifest.json").read_text()).get("failures", []) == failures
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == code
    verdict = "FAIL" if code else "pass"
    assert f"{verdict} check  spread_g00000_N64.plateau_drift" in capsys.readouterr().out


@pytest.mark.parametrize("residual, line", [
    (2.5e-11, "pass check  ipr_g01500_N16.krylov_residual: |value|/tol 0.25"),
    (2e-10, "FAIL check  ipr_g01500_N16.krylov_residual: |2e-10| > 1e-10, |value|/tol 2")])
def test_verify_prints_how_much_of_its_bound_each_check_uses(monkeypatch, capsys, tmp_path,
                                                             residual, line):
    # krylov_residual has tol 1e-10; lanczos_truncations has tol 0 and a value of 0
    monkeypatch.setattr(experiments, "_krylov_residual", lambda *args: residual)
    out = tmp_path / "s"
    main(["ipr", "--gamma", "1.5", "--sizes", "16", "--reals", "2", "--out", str(out)])
    capsys.readouterr()
    main(["verify", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert "pass check  ipr_g01500_N16.lanczos_truncations: |value|/tol 0" in lines


def test_dense_kernels_of_the_ipr_spread_and_rstat_cells_avoid_numpy_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")
    for name in ("eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    H = experiments.generate_rp(experiments.EnsembleConfig(64, 1.0, seed=3))
    last, mid, dim, orth = experiments._w_ipr(H)
    assert dim == 64 and orth < 1e-12
    spread = experiments.RunManifest("spread", (1.0,), (64,), 1)
    _, rows, summary = experiments._cell_spread(spread, 1.0, 64)
    assert rows and all(len(row) == 3 for row in rows)      # (t, K_S mean, K_S stderr)
    assert summary["checks"]["unitarity_residual"]["value"] < 1e-12
    assert 0.0 < experiments._w_rstat(H) < 1.0
    a, b, identity = experiments._w_profile(H.copy())     # reduces its matrix in place
    assert len(a) == 64 and len(b) == 63 and identity < 1e-12
    assert experiments._w_logvar(H) > 0.0


@pytest.mark.parametrize("N", [2, 3, 127, 128, 129, 255, 256, 257, 511, 512, 777, 1000,
                               1023, 1024, 1025])
def test_the_frobenius_sum_has_the_bits_of_the_full_square(N):
    H = np.random.default_rng(N).standard_normal((N, N))
    for A in (H, H.T):      # C and Fortran order: np.sum sums in memory order
        assert experiments._sum_of_squares(A) == float(np.sum(A * A))


def test_a_profile_cell_allocates_no_matrix_on_the_traced_heap():
    # a fresh draw and H * H per realization peaked at 4.03 MiB here; the cell's
    # mmap buffer is outside the heap, and the rest peaks at 0.37 MiB
    import tracemalloc
    m = RunManifest("profile", (1.0,), (512,), 4)
    experiments.mean_profile_cell(m, 1.0, 512)      # scipy loaded outside the trace
    tracemalloc.start()
    try:
        experiments.mean_profile_cell(m, 1.0, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_an_sm5_cell_whose_b_vanish_fails_and_names_them(tmp_path, capsys):
    # at gamma = 3000 the sm5 off-diagonal variance is 0, so every b is 0 and the
    # relative error |b_pred - b_emp| / b_emp has no value
    out = tmp_path / "s"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no division by zero on the way
        assert main(["sm5", "--gamma", "3000", "--sizes", "16", "--reals", "2",
                     "--out", str(out)]) == 1
    assert "empirical b_n vanishes at 14 of n = 1..14" in capsys.readouterr().out
    assert main(["verify", "--out", str(out)]) == 1


def test_a_post_table_of_an_earlier_grid_is_removed_not_hashed(tmp_path):
    out = tmp_path / "d"
    ipr = ["ipr", "--gamma", "0.5", "--reals", "2", "--out", str(out)]
    assert main(ipr + ["--sizes", "16", "24", "32"]) == 0
    assert (out / "d2.csv").exists()
    assert main(ipr + ["--sizes", "16", "24", "--seed", "3"]) == 0     # two sizes: no D2 fit
    assert not (out / "d2.csv").exists()
    assert "d2.csv" not in json.loads((out / "manifest.json").read_text())["hashes"]
    assert main(["verify", "--out", str(out)]) == 0


def test_interrupted_sweep_resumes_without_recompute(tmp_path):
    out = tmp_path / "resume"
    args = ["rstat", "--gamma", "1.0", "2.0", "--sizes", "64", "--reals", "10",
            "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    cell = next((out / "cells").glob("*.csv"))
    stamp = cell.stat().st_mtime_ns
    agg_before = (out / "aggregate.csv").read_bytes()
    (out / "aggregate.csv").unlink()
    assert main(args) == 0
    assert cell.stat().st_mtime_ns == stamp            # cell was not rewritten
    assert (out / "aggregate.csv").read_bytes() == agg_before


def test_verify_detects_tampering(tmp_path):
    out = tmp_path / "v"
    assert main(["rstat", "--gamma", "1.0", "--sizes", "64", "--reals", "5",
                 "--seed", "1", "--out", str(out)]) == 0
    assert main(["verify", "--out", str(out)]) == 0
    target = next((out / "cells").glob("*.csv"))
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0xFF
    target.write_bytes(bytes(data))
    assert main(["verify", "--out", str(out)]) == 1


def test_verify_detects_missing_files(tmp_path):
    out = tmp_path / "m"
    assert main(["rstat", "--gamma", "1.0", "--sizes", "64", "--reals", "5",
                 "--seed", "1", "--out", str(out)]) == 0
    next((out / "cells").glob("*.json")).unlink()
    assert main(["verify", "--out", str(out)]) == 1
    assert main(["verify", "--out", str(tmp_path / "nowhere")]) == 1


def test_verify_reports_unreadable_json_by_name(tmp_path, capsys):
    out = tmp_path / "u"
    args = ["rstat", "--gamma", "1.0", "--sizes", "64", "--reals", "5", "--out", str(out)]
    assert main(args) == 0
    summary = next((out / "cells").glob("*.json"))
    summary.write_text(summary.read_text()[:20])            # truncated
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert f"FAIL cell   {summary.name}: unreadable" in capsys.readouterr().out
    assert main(args) == 0                                  # run recomputes the cell
    assert main(["verify", "--out", str(out)]) == 0
    summary.write_bytes(b"\xff\xfe")                        # not even UTF-8
    assert main(["verify", "--out", str(out)]) == 1
    assert main(args) == 0
    for text in ("[]", "5"):                                # JSON, but not an object
        summary.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert f"FAIL cell   {summary.name}: not a JSON object" in capsys.readouterr().out
        assert main(args) == 0
    good = json.loads(summary.read_text())
    for checks in ([], {"c": {"value": 0.0}}, {"c": 1.0}):  # checks not {value, tol} records
        summary.write_text(json.dumps({**good, "checks": checks}))
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert f"FAIL cell   {summary.name}: checks not {{value, tol}} records" in \
            capsys.readouterr().out
        assert main(args) == 0
        assert json.loads(summary.read_text()) == good      # run recomputed the cell
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text()[:20])
    assert main(["verify", "--out", str(out)]) == 1
    assert "FAIL manifest" in capsys.readouterr().out
    manifest.write_text("[]")
    assert main(["verify", "--out", str(out)]) == 1
    assert "not a JSON object" in capsys.readouterr().out
    assert main(args) == 0
    record = json.loads(manifest.read_text())
    for bad in ({**record, "gamma_grid": 5}, {**record, "N_grid": [64.5]},
                {k: v for k, v in record.items() if k != "experiment"},
                {**record, "hashes": []}, {**record, "failures": 5}):
        manifest.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and printed[0].startswith(f"FAIL manifest: {manifest} ")


def test_verify_checks_the_grid_of_the_run_and_only_hashes_other_cells(tmp_path):
    out = tmp_path / "r"
    grid = ["rstat", "--sizes", "16", "--reals", "2", "--out", str(out)]
    assert main(grid + ["--gamma", "0.5", "1.0"]) == 0
    assert main(grid + ["--gamma", "0.5", "--seed", "5"]) == 0
    assert main(["verify", "--out", str(out)]) == 0     # the seed-0 cell at 1.0 is not this run's
    stray = out / "cells" / "rstat_g01000_N16.json"
    stray.write_text(stray.read_text() + " ")
    assert main(["verify", "--out", str(out)]) == 1     # but its bytes are hashed


def test_verify_fails_a_run_with_a_failed_cell(tmp_path):
    out = tmp_path / "f"
    assert main(["logvar", "--gamma", "1.5", "--sizes", "2", "16", "--reals", "2",
                 "--out", str(out)]) == 1
    assert main(["verify", "--out", str(out)]) == 1
    # without the recorded failure, the grid cell that has no files still fails it
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["failures"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", "--out", str(out)]) == 1


def test_a_rerun_with_other_parameters_recomputes_every_cell(tmp_path):
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    grid = ["logvar", "--gamma", "1.5", "--sizes", "32"]
    second = ["--reals", "6", "--seed", "5", "--norm", "unit-bandwidth"]
    assert main(grid + ["--reals", "2", "--seed", "1", "--out", str(out)]) == 0
    assert main(grid + second + ["--out", str(out)]) == 0
    assert main(grid + second + ["--out", str(fresh)]) == 0
    assert output_bytes(out) == output_bytes(fresh)
    assert main(["verify", "--out", str(out)]) == 0
    # a summary without the recorded fields is recomputed, not reused
    summary_path = next((out / "cells").glob("*.json"))
    summary = json.loads(summary_path.read_text())
    summary_path.write_text(json.dumps({k: v for k, v in summary.items() if k != "normalization"}))
    assert main(grid + second + ["--out", str(out)]) == 0
    assert output_bytes(out) == output_bytes(fresh)
    # verify fails cells whose summaries disagree with the manifest
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["seed"] = 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", "--out", str(out)]) == 1


def test_gammas_sharing_a_cell_tag_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        RunManifest("rstat", (1.0001, 1.0004), (16,), 2)
    with pytest.raises(ValueError):
        RunManifest("rstat", (1.0, 1.0), (16,), 2)
    RunManifest("rstat", (1.0001, 1.002), (16,), 2)
    out = tmp_path / "c"
    assert main(["rstat", "--gamma", "1.0001", "1.0004", "--sizes", "16", "--reals", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_a_size_grid_with_a_repeated_n_is_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"matrix sizes \[16\] repeat"):
        RunManifest("ipr", (0.5,), (16, 16, 24, 32), 2)
    out = tmp_path / "ipr"
    assert main(["ipr", "--gamma", "0.5", "--sizes", "16", "16", "24", "32", "--reals", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_grids_are_usage_errors(tmp_path):
    assert main(["rstat", "--gamma", "1.0", "--out", str(tmp_path / "x")]) == 2
    assert main(["rstat", "--sizes", "64", "--out", str(tmp_path / "y")]) == 2


def test_guardrails_refuse_oversized_runs(tmp_path):
    code = main(["rstat", "--gamma", "1.0", "--sizes", "16384",
                 "--reals", "1", "--out", str(tmp_path / "big")])
    assert code == 2
    code = main(["rstat", "--gamma", "1.0", "--sizes", "8192",
                 "--reals", "200", "--out", str(tmp_path / "big2")])
    assert code == 2
    assert not (tmp_path / "big").exists()
    with pytest.raises(ValueError):
        RunManifest("rstat", (1.0,), (16384,), 1)
    RunManifest("rstat", (1.0,), (16384,), 1, allow_large=True)


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": [1.0], "sizes": [64], "reals": 4,
                               "seed": 11, "out": str(tmp_path / "from_cfg")}))
    assert main(["rstat", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "from_cfg" / "manifest.json").read_text())
    assert manifest["realizations"] == 4 and manifest["seed"] == 11

    assert main(["rstat", "--config", str(cfg), "--reals", "2",
                 "--out", str(tmp_path / "flagged")]) == 0
    manifest = json.loads((tmp_path / "flagged" / "manifest.json").read_text())
    assert manifest["realizations"] == 2 and manifest["seed"] == 11


def test_unknown_config_keys_are_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    for bad in ({"gammas": [1.0], "sizes": [64]}, {"gamma": [1.0], "sizes": [64], "workers": 2},
                [], {"gamma": [1.0], "sizes": 64},
                # values of the wrong type reach RunManifest untouched, which refuses them
                {"gamma": [1.0], "sizes": [16], "force_large": "false"},
                {"gamma": [1.0], "sizes": [16], "reals": 2.9}):
        cfg.write_text(json.dumps(bad))
        assert main(["rstat", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 2
    assert main(["rstat", "--gamma", "1.0", "--sizes", "64", "--workers", "2",
                 "--out", str(tmp_path / "z")]) == 2
    assert not (tmp_path / "z").exists()


def test_manifest_validation():
    with pytest.raises(ValueError):
        RunManifest("nonsense", (1.0,), (64,), 5)
    with pytest.raises(ValueError):
        RunManifest("rstat", (), (64,), 5)
    with pytest.raises(ValueError):
        RunManifest("rstat", (-1.0,), (64,), 5)
    with pytest.raises(ValueError):
        RunManifest("rstat", (1.0,), (64,), 0)
    for gamma in (np.inf, np.nan):
        with pytest.raises(ValueError):
            RunManifest("rstat", (gamma,), (64,), 5)
    for beta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            RunManifest("spread", (1.0,), (64,), 5, beta=beta)
    with pytest.raises(ValueError):
        RunManifest("rstat", (1.0,), (64,), 5, beta=0.5)
    # counts are integers and allow_large a bool: refused, never truncated or cast
    for bad in ({"N_grid": (16.7,)}, {"realizations": 2.5}, {"realizations": True},
                {"seed": 3.7}, {"allow_large": "false"}, {"output_dir": 5}):
        with pytest.raises(ValueError):
            RunManifest(**{"experiment": "rstat", "gamma_grid": (1.0,), "N_grid": (16,), **bad})
    m = RunManifest("rstat", (np.float64(1.0),), (np.int64(16),), np.int64(2), seed=np.int64(3))
    assert (m.N_grid, m.realizations, m.seed) == ((16,), 2, 3)
    assert json.loads(json.dumps(m.to_dict()))["version"] == krylovlab.__version__
    assert RunManifest("rstat", (1.0,), (16,)).realizations == 10
    assert "version" not in {f.name for f in fields(RunManifest)}


def test_cli_flags_and_manifest_fields_map_one_to_one():
    assert sorted(MANIFEST_FIELDS.values()) == \
        sorted(f.name for f in fields(RunManifest) if f.name != "experiment")
    assert set(vars(build_parser().parse_args(["rstat"]))) - {"command", "config"} == \
        set(MANIFEST_FIELDS)


def test_a_refused_manifest_exits_2_and_writes_nothing(tmp_path):
    for argv in (["rstat", "--gamma", "inf"], ["spread", "--gamma", "1.0", "--beta", "-1"]):
        out = tmp_path / argv[0]
        done = subprocess.run([sys.executable, "-m", "krylovlab", *argv, "--sizes", "16",
                               "--reals", "2", "--out", str(out)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert not out.exists()
        assert "Traceback" not in done.stderr


def test_csv_floats_use_eight_significant_digits(tmp_path):
    assert format_float(0.123456789123) == "0.12345679"
    assert format_float(1234567891.0) == "1.2345679e+09"
    assert format_float(True) == "1"
    assert format_float(42) == "42"
    assert format_row([1.0, "tag", 0.5]) == "1,tag,0.5"
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[np.float64(1/3), 2]])
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows == [["0.33333333", "2"]]
