"""Benchmark of krylovlab: seeded sweep workloads run back to back by one client.

Run from the repository root:

    python3 bench/run.py --workload krylov-chain --seed 1 --seconds 37 --trace 0

A run is a closed loop: one process runs a workload's sweeps one after
another through `experiments.run`, each into a fresh directory, and after
each sweep re-runs it (resume), checks it (`experiments.verify`) and times a
fresh interpreter's set-up, until `--seconds` are spent.  With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it runs untraced cycles for
half the time, then wraps the package's functions in spans and prints
per-layer metrics.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
give the machine facts and a readable table.  The BLAS thread environment is
left as inherited and reported.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True      # keep the checkout free of generated files

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_CYCLES = 2              # sweeps per timed phase, whatever --seconds says
MIN_PROBES = 3              # set-up is timed in a fresh interpreter after each sweep, and at least this often
PASS_SECONDS = 0.5          # resume and verify passes take milliseconds, so after each
                            # sweep they alternate for this long

# the 35-point fractal + localized grid of tests/conftest.py::LOGVAR_GAMMAS
LOGVAR_GAMMAS = tuple(round(1.05 + 0.05 * i, 10) for i in range(20)) + \
    tuple(round(2.2 + 0.2 * i, 10) for i in range(15))
THREE_GAMMAS = (0.5, 1.5, 3.0)


@dataclass(frozen=True)
class Workload:
    """Sweeps run back to back: (experiment, gamma grid, N grid, realizations)."""
    name: str
    workers: int
    sweeps: tuple


# Realization counts are a quarter of the manifests they were scaled from, so
# that several sweeps fit in one run; the grids are kept.  profile-dos keeps
# all 8: its profile fits fail on more seeds the fewer realizations a mean
# profile has (4 in 10 seeds at 2, 1 in 20 at 4, 1 in 31 at 5, 1 in 64 at 8).
WORKLOADS = {w.name: w for w in (
    # Lanczos with full reorthogonalization, dense eigh and propagation of the
    # TFD chain; three sizes so the D2 post-fit runs.
    Workload("krylov-chain", 1, (
        ("ipr", THREE_GAMMAS, (256, 512, 1024), 1),
        ("spread", (0.5, 3.0), (512,), 2))),
    # Householder (sytrd), eigvalsh, fits, DOS quadrature and the sm5 oracle
    # on shared seeded matrices; Lanczos never runs.
    Workload("profile-dos", 1, tuple(
        (exp, THREE_GAMMAS, (1024,), 8) for exp in ("fit", "dos", "sm5"))),
    # 70 small cells at 2 workers: per-cell pool start-up, BLAS threads in
    # the forked workers and file output dominate, not LAPACK.
    Workload("many-cells", 2, (
        ("logvar", LOGVAR_GAMMAS, (128,), 4),
        ("rstat", LOGVAR_GAMMAS, (128,), 8))),
)}


def import_program():
    """Import krylovlab from this checkout's src/, never from an installed copy."""
    if not (SRC / "krylovlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no krylovlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import krylovlab
    from krylovlab import experiments
    if Path(krylovlab.__file__).resolve().parent != SRC / "krylovlab":
        raise SystemExit(f"error: krylovlab was imported from {krylovlab.__file__}")
    return experiments


def build_manifests(workload: Workload, seed: int, out_dir: Path) -> list:
    experiments = import_program()
    return [experiments.RunManifest(experiment=exp, gamma_grid=gammas, N_grid=sizes,
                                    realizations=reals, seed=seed,
                                    output_dir=str(Path(out_dir) / exp))
            for exp, gammas, sizes, reals in workload.sweeps]


def in_dir(manifests, out_dir: Path) -> list:
    return [replace(m, output_dir=str(Path(out_dir) / m.experiment)) for m in manifests]


# ---------------------------------------------------------------------------
# measurements

def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # ru_maxrss is in KiB on Linux


def setup_seconds(workload: Workload, seed: int) -> float:
    """Launch of a fresh interpreter until its manifests are built."""
    code = ("import sys, time; sys.path.insert(0, {bench!r}); import run; "
            "run.build_manifests(run.WORKLOADS[{name!r}], {seed}, {out!r}); "
            "print(repr(time.time()))").format(
                bench=str(BENCH_DIR), name=workload.name, seed=seed,
                out=str(BENCH_DIR / ".work" / "probe"))
    launched = time.time()
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - launched


def run_all(experiments, manifests, workers) -> list:
    """Run the sweeps back to back; the cell failure lines they print are not needed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return [experiments.run(m, workers=workers) for m in manifests]


def verify_all(experiments, manifests) -> list:
    with contextlib.redirect_stdout(io.StringIO()):
        return [experiments.verify(m.output_dir) for m in manifests]


def table_hashes(manifests) -> dict:
    """SHA-256 of every output file except manifest.json, which names its directory."""
    out = {}
    for m in manifests:
        base = Path(m.output_dir)
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                out[f"{m.experiment}/{path.relative_to(base)}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def cell_stems(runio, manifest) -> list:
    return [runio.cell_stem(manifest.experiment, g, n)
            for g in manifest.gamma_grid for n in manifest.N_grid]


def failed_cells(runio, manifest, rc: int) -> set:
    """Cells of one finished sweep that count as failed, without asking `verify`.

    A cell fails when the manifest lists it, when its summary is missing, not
    "ok", or has a check beyond its tolerance.  A recorded failure that names
    no cell (post-processing), a missing manifest, or a non-zero return with
    nothing recorded fails every cell of the sweep.
    """
    out = Path(manifest.output_dir)
    stems = cell_stems(runio, manifest)
    try:
        recorded = json.loads((out / "manifest.json").read_text()).get("failures", [])
    except (OSError, json.JSONDecodeError):
        return set(stems)
    failed = set()
    for entry in recorded:
        stem = entry.split(":", 1)[0]
        if stem not in stems:
            return set(stems)
        failed.add(stem)
    if rc != 0 and not failed:
        return set(stems)
    for stem in set(stems) - failed:
        try:
            summary = json.loads(runio.cell_paths(out, stem)[1].read_text())
        except (OSError, json.JSONDecodeError):
            failed.add(stem)
            continue
        checks = summary.get("checks", {}).values()
        if summary.get("status") != "ok" or any(abs(c["value"]) > c["tol"] for c in checks):
            failed.add(stem)
    return failed


@dataclass
class Sweep:
    manifests: list
    wall: float
    cpu: float
    failed: set
    hashes: dict


class Session:
    """One benchmark run: a workload, a seed and a scratch directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.experiments = import_program()
        from krylovlab import runio
        self.runio = runio
        self.workload = workload
        self.seed = seed
        self.manifests = build_manifests(workload, seed, work)
        self.work = Path(work)
        self.cells = sum(len(cell_stems(runio, m)) for m in self.manifests)
        self.reference = None
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._sweeps = 0

    def note(self, text: str):
        if text not in self.notes:
            self.notes.append(text)

    def reference_run(self):
        """Same sweeps at 1 worker, outside the timed region: the tables to match."""
        ref = in_dir(self.manifests, self.work / "reference")
        run_all(self.experiments, ref, 1)
        self.reference = table_hashes(ref)
        shutil.rmtree(self.work / "reference")

    def sweep(self) -> Sweep:
        """One timed sweep into a fresh directory, checked against the reference tables."""
        self._sweeps += 1
        ms = in_dir(self.manifests, self.work / f"sweep-{self._sweeps}")
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        rcs = run_all(self.experiments, ms, self.workload.workers)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        failed = set()
        for m, rc in zip(ms, rcs):
            failed |= {(m.experiment, s) for s in failed_cells(self.runio, m, rc)}
        hashes = table_hashes(ms)
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            self.correct = False
            self.note("a sweep's tables differ from the reference run")
            failed = {(m.experiment, s) for m in ms for s in cell_stems(self.runio, m)}
        self.attempted += self.cells
        self.failed += len(failed)
        return Sweep(ms, wall, cpu, failed, hashes)

    def resume(self, sweep: Sweep) -> float:
        """One no-op re-run of a finished sweep."""
        t0 = time.perf_counter()
        run_all(self.experiments, sweep.manifests, self.workload.workers)
        return time.perf_counter() - t0

    def check_unchanged(self, sweep: Sweep):
        if table_hashes(sweep.manifests) != sweep.hashes:
            self.correct = False
            self.note("a no-op resume changed the output tables")

    def verify(self, sweep: Sweep) -> float:
        t0 = time.perf_counter()
        rcs = verify_all(self.experiments, sweep.manifests)
        seconds = time.perf_counter() - t0
        for m, rc in zip(sweep.manifests, rcs):
            bad = any(exp == m.experiment for exp, _ in sweep.failed)
            if rc != 0 and not bad:
                self.correct = False
                self.note(f"verify rejected a clean {m.experiment} sweep")
            elif rc == 0 and bad:
                self.note(f"verify passed a {m.experiment} sweep that has failed cells")
        return seconds

    def discard(self, sweep: Sweep):
        shutil.rmtree(Path(sweep.manifests[0].output_dir).parent)


def cycles(fn, seconds: float) -> int:
    """Call fn until the next call would end past `seconds`, at least MIN_CYCLES times."""
    took, start = [], time.perf_counter()
    while len(took) < MIN_CYCLES or \
            time.perf_counter() - start + statistics.median(took) <= seconds:
        t0 = time.perf_counter()
        fn()
        took.append(time.perf_counter() - t0)
    return len(took)


def alternate(first, second, seconds: float):
    """Call `first` and `second` in turn for `seconds`, at least once: their times."""
    a, b, start = [], [], time.perf_counter()
    while not a or time.perf_counter() - start < seconds:
        a.append(first())
        b.append(second())
    return a, b


def plain_cycles(session: Session, seconds: float, probes: bool) -> dict:
    """Untraced cycles: a sweep, resume and verify passes on it, and a set-up probe.

    The machine's speed drifts over seconds, so every kind of sample is
    spread over the whole run instead of taken in one block.  Returns the
    median of each kind.
    """
    samples = {"setup_s": [], "sweep_s": [], "cpu_s": [], "resume_s": [], "verify_s": []}

    def cycle():
        sweep = session.sweep()
        samples["sweep_s"].append(sweep.wall)
        samples["cpu_s"].append(sweep.cpu)
        r, v = alternate(lambda: session.resume(sweep), lambda: session.verify(sweep),
                         PASS_SECONDS)
        samples["resume_s"] += r
        samples["verify_s"] += v
        session.check_unchanged(sweep)
        session.discard(sweep)
        if probes:
            samples["setup_s"].append(setup_seconds(session.workload, session.seed))

    n = cycles(cycle, seconds)
    while probes and len(samples["setup_s"]) < MIN_PROBES:
        samples["setup_s"].append(setup_seconds(session.workload, session.seed))
    session.note(f"{n} untraced sweeps, {len(samples['resume_s'])} resume and verify passes"
                 + (f", {len(samples['setup_s'])} set-up probes" if probes else "")
                 + "; medians reported")
    return {k: statistics.median(v) for k, v in samples.items() if v}


def end_to_end(session: Session, seconds: float):
    """End-to-end metrics, and those only shown: resume and verify passes take
    milliseconds and their medians drift between runs by more than any bound
    a later change could be held to."""
    if session.workload.workers > 1:
        session.reference_run()
    m = plain_cycles(session, seconds, probes=True)
    metrics = {"setup_s": (m["setup_s"], "s"), "sweep_s": (m["sweep_s"], "s"),
               "cpu_s": (m["cpu_s"], "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    return metrics, {"resume_s": (m["resume_s"], "s"), "verify_s": (m["verify_s"], "s")}


# ---------------------------------------------------------------------------
# traced run

# Every function whose calls and self time are reported, as module.function.
TRACED = (
    "experiments.run",
    "ensembles.generate_rp",
    "tridiag.householder_tridiagonalize",
    "tridiag.lanczos_tridiagonalize",
    "spectral.eig_dense",
    "spectral.r_statistics",
    "spectral.dos_from_lanczos",
    "lanczos_stats.fit_ansatz",
    "lanczos_stats.log_variance",
    "sm5_oracle.predict_lanczos_profile",
    "krylov_dynamics.build_tfd_krylov",
    "krylov_dynamics.propagate",
    "krylov_ipr.krylov_ipr",
    "krylov_ipr.fit_d2",
    "runio.write_cell",
    "runio.finalize_manifest",
    "runio.cell_complete",
    "runio.load_summary",
    "runio.verify_outputs",
)


def _dim(H) -> int:
    return int(H.entries.shape[0] if hasattr(H, "entries") else len(H))


def span_attrs(runio) -> dict:
    """Fields recorded per call, from which operation counts and bytes are computed."""
    def write_cell(args, kwargs, result):
        return {"bytes": sum(p.stat().st_size for p in runio.cell_paths(args[0], args[1]))}

    def eig_dense(args, kwargs, result):
        vectors = args[1] if len(args) > 1 else kwargs.get("want_vectors", False)
        return {"n": _dim(args[0]), "kind": "eigh" if vectors else "eigvalsh"}

    return {
        "runio.write_cell": write_cell,
        "spectral.eig_dense": eig_dense,
        "tridiag.householder_tridiagonalize": lambda a, k, r: {"n": _dim(a[0])},
        "tridiag.lanczos_tridiagonalize": lambda a, k, r: {"n": _dim(a[0]), "m": len(r.a)},
    }


# Operation counts per call, labelled "computed": they come from N, not from
# hardware counters.  sytrd and eigvalsh ~ 4N^3/3 and eigh ~ 9N^3 (Golub & Van
# Loan, symmetric QR); Lanczos with m steps does m matvecs (2N^2 each) and two
# Gram-Schmidt passes against k vectors at step k (8Nk each).
def span_flops(span) -> float:
    n = span.get("n")
    if n is None:
        return 0.0
    if span["name"] == "tridiag.lanczos_tridiagonalize":
        m = span["m"]
        return 2.0 * m * n * n + 4.0 * n * m * (m - 1)
    if span.get("kind") == "eigh":
        return 9.0 * n ** 3
    return 4.0 * n ** 3 / 3.0


def tail_percentile(samples):
    """(q, value): the highest percentile q <= 90 with ten samples above it, else the median."""
    n = len(samples)
    q = max(50, min(90, int(100 * (1 - 10 / n))))
    if n < 2:
        return q, samples[0]
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def per_layer(spans, plain: dict, traced_wall: float, nproc: int) -> dict:
    """Per-layer metrics from the spans of the traced cycles and the medians
    of the untraced ones."""
    from tracing import self_times
    selfs = self_times(spans)
    cycles = sorted({s["cycle"] for s in spans})
    metrics = {}

    def per_cycle(pred, value):
        return statistics.median(sum(value(s) for s in spans if s["cycle"] == c and pred(s))
                                 for c in cycles)

    for name in TRACED:
        mine = lambda s, name=name: s["name"] == name
        metrics[f"{name}.calls"] = (per_cycle(mine, lambda s: 1), "count")
        metrics[f"{name}.self_s"] = (per_cycle(mine, lambda s: selfs[s["id"]]), "s")

    def rate(prefix, pred):
        chosen = [s for s in spans if pred(s)]
        flops = sum(span_flops(s) for s in chosen)
        busy = sum(selfs[s["id"]] for s in chosen)
        metrics[f"{prefix}.computed_gflop_per_call"] = (
            flops / len(chosen) / 1e9 if chosen else 0.0, "GFLOP")
        metrics[f"{prefix}.computed_gflop_s"] = (flops / busy / 1e9 if busy > 0 else 0.0, "GFLOP/s")

    rate("tridiag.householder_tridiagonalize",
         lambda s: s["name"] == "tridiag.householder_tridiagonalize")
    rate("tridiag.lanczos_tridiagonalize",
         lambda s: s["name"] == "tridiag.lanczos_tridiagonalize")
    for kind in ("eigvalsh", "eigh"):
        rate(f"spectral.eig_dense.{kind}",
             lambda s, kind=kind: s["name"] == "spectral.eig_dense" and s.get("kind") == kind)
    metrics["runio.write_cell.bytes"] = (
        per_cycle(lambda s: s["name"] == "runio.write_cell", lambda s: s.get("bytes", 0)), "B")

    # a cell's time: from its sweep's start, or the previous cell's write, to its own write
    cell_s = []
    by_parent = {}
    for s in spans:
        if s["name"] == "runio.write_cell":
            by_parent.setdefault(s["parent"], []).append(s["end"])
    for s in spans:
        if s["name"] == "experiments.run" and s["id"] in by_parent:
            marks = [s["start"]] + sorted(by_parent[s["id"]])
            cell_s += [b - a for a, b in zip(marks, marks[1:])]
    samples = len(cell_s)
    cell_s = cell_s or [0.0]            # no cell written: every one failed
    q, tail = tail_percentile(cell_s)
    metrics["experiments.cell_s.p50"] = (statistics.median(cell_s), "s")
    metrics["experiments.cell_s.tail"] = (tail, "s")
    metrics["experiments.cell_s.tail_pct"] = (q, "%")
    metrics["experiments.cell_s.samples"] = (samples, "count")
    metrics["experiments.cpu_util"] = (plain["cpu_s"] / (plain["sweep_s"] * nproc), "ratio")
    metrics["experiments.run.resume_s"] = (plain["resume_s"], "s")
    metrics["experiments.verify.wall_s"] = (plain["verify_s"], "s")
    metrics["trace.overhead_s"] = (traced_wall - plain["sweep_s"], "s")
    return metrics


def traced(session: Session, seconds: float, nproc: int):
    """Untraced cycles for half the time, then traced cycles of one sweep, one
    resume and one verify pass each; per-layer metrics, and none only shown."""
    from tracing import Tracer
    if session.workload.workers > 1:
        session.reference_run()
    plain = plain_cycles(session, seconds / 2, probes=False)
    spill = session.work / "spans"
    spill.mkdir()
    tracer = Tracer(spill)
    tracer.install({name: None for name in TRACED} | span_attrs(session.runio), "krylovlab")
    traced_walls = []

    def cycle():
        tracer.cycle += 1
        sweep = session.sweep()
        traced_walls.append(sweep.wall)
        session.resume(sweep)
        session.check_unchanged(sweep)
        session.verify(sweep)
        session.discard(sweep)

    try:
        cycles(cycle, seconds / 2)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    metrics = per_layer(spans, plain, statistics.median(traced_walls), nproc)
    session.note(f"{len(traced_walls)} traced cycles, {len(spans)} spans; "
                 "per-layer figures are medians per traced cycle")
    busy = sum(metrics[f"{name}.self_s"][0] for name in TRACED)
    shares = sorted(((metrics[f"{name}.self_s"][0] / busy, name) for name in TRACED), reverse=True)
    session.note("self-time shares of traced time: " +
                 ", ".join(f"{name} {share:.0%}" for share, name in shares[:5]))
    return metrics, {}


# ---------------------------------------------------------------------------
# machine facts and output

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def machine_facts(workload: Workload) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workers": workload.workers,
        "commit": git_commit(),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one benchmark in `work` (removed afterwards) and return its result."""
    work.mkdir(parents=True)
    try:
        session = Session(workload, seed, work)
        facts = machine_facts(workload)
        if trace:
            metrics, shown = traced(session, seconds, facts["nproc"])
        else:
            metrics, shown = end_to_end(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    shown["fail_frac"] = (session.failed / session.attempted, "ratio")
    session.note(f"{session.failed} of {session.attempted} cells failed")
    return {"facts": facts, "notes": session.notes, "correct": session.correct,
            "attempted": session.attempted, "failed": session.failed, "metrics": metrics,
            "shown": shown}


def report(result: dict) -> str:
    lines = ["facts " + json.dumps(result["facts"], sort_keys=True)]
    lines += [f"note  {n}" for n in result["notes"]]
    for name, (value, unit) in (result["metrics"] | result["shown"]).items():
        lines.append(f"{name:58s} {value:14.6g} {unit}")
    lines.append(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_program()
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        with contextlib.suppress(OSError):      # left in place while another run uses it
            work.parent.rmdir()
    print(report(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
