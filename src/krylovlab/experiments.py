"""Seeded experiment sweeps over (gamma, N) grids with resumable file output.

Every sweep is fully determined by its RunManifest: per-realization seeds are
derived from (seed, gamma-tag, N), realizations are aggregated in index
order, and floats are written at fixed precision, so two runs of the same
manifest produce byte-identical tables.  A cell's realizations run one after
another on the calling thread, so every realization sees the same BLAS
configuration, whose thread count changes LAPACK's output bits.  Threads would
not help: scipy's f2py LAPACK wrappers hold the GIL, and two callers would
fight over one OpenBLAS pool.  Dense kernels go through `scipy.linalg`,
so one OpenBLAS thread pool serves them all (numpy bundles a second one, whose
pool would fight the first for the cores).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, runio
from .ensembles import (EnsembleConfig, Normalization, generate_rp, heteroskedastic_equiv,
                        realization_seeds, tag_from_gamma)
from .krylov_dynamics import (build_tfd_krylov, build_time_grid, peak_fields, plateau_drift,
                              propagate, smoothed_peak_flag)
from .krylov_ipr import KRule, KrylovIprRecord, fit_d2, krylov_ipr, pick_k
from .lanczos_stats import AnsatzForm, FitError, fit_ansatz, fit_logvar_powerlaw, log_variance
from .sm5_oracle import predict_lanczos_profile
from .spectral import (DosModel, dos_closed_form, dos_from_lanczos, eig_dense, eig_tridiagonal,
                       ks_distance, r_statistics)
from .tridiag import (TridiagonalForm, basis_orthogonality_residual, householder_tridiagonalize,
                     lanczos_dimension)

EXPERIMENTS = ("profile", "fit", "rstat", "dos", "spread", "ipr", "logvar", "sm5")
MAX_N = 8192
MAX_WORK = 1e14


class GuardrailError(RuntimeError):
    """Raised when a manifest asks for more than a desk-scale run."""


@dataclass(frozen=True)
class RunManifest:
    experiment: str
    gamma_grid: tuple
    N_grid: tuple
    realizations: int
    seed: int = 0
    normalization: str = Normalization.PAPER_MAIN.value
    output_dir: str = "runs"
    beta: float = 0.0               # spread: TFD inverse temperature
    allow_large: bool = False
    version: str = __version__

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; pick from {EXPERIMENTS}")
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        object.__setattr__(self, "N_grid", tuple(int(n) for n in self.N_grid))
        if not self.gamma_grid or not self.N_grid:
            raise ValueError("gamma_grid and N_grid must be non-empty")
        if any(g < 0 for g in self.gamma_grid):
            raise ValueError("gamma values must be non-negative")
        tags = [tag_from_gamma(g) for g in self.gamma_grid]
        shared = [g for g, tag in zip(self.gamma_grid, tags) if tags.count(tag) > 1]
        if shared:      # the tag names a cell's files and seeds its realizations
            raise ValueError(f"gamma values {shared} agree to 3 decimals and would share cells")
        if any(n < 2 for n in self.N_grid):
            raise ValueError("matrix sizes must be >= 2")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        Normalization(self.normalization)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gamma_grid"] = list(self.gamma_grid)
        d["N_grid"] = list(self.N_grid)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown manifest keys: {sorted(extra)}")
        return cls(**d)


def check_guardrails(manifest: RunManifest) -> None:
    n_max = max(manifest.N_grid)
    if manifest.allow_large:
        return
    if n_max > MAX_N:
        raise GuardrailError(f"N = {n_max} exceeds the desk-scale limit {MAX_N}; pass the override flag")
    work = manifest.realizations * float(n_max) ** 3
    if work > MAX_WORK:
        raise GuardrailError(
            f"realizations x N^3 = {work:.3g} exceeds {MAX_WORK:.0g}; pass the override flag")


# ---------------------------------------------------------------------------
# per-realization maps H -> observables

def _tridiag_identity_residual(H, t):
    """Max of the trace and Frobenius invariant residuals (both relative)."""
    tr = float(np.trace(H))
    fro2 = float(np.sum(H * H))
    res_tr = abs(t.a.sum() - tr) / (abs(tr) + 1.0)
    res_fro = abs(np.sum(t.a**2) + 2.0 * np.sum(t.b**2) - fro2) / (fro2 + 1.0)
    return max(res_tr, res_fro)


def _w_profile(H):
    t = householder_tridiagonalize(H)
    return t.a, t.b, _tridiag_identity_residual(H, t)


def _w_rstat(H):
    return r_statistics(eig_dense(H))


def _w_spread(H, beta, times=None):
    """(K_S(t), unitarity residual, times) of the TFD chain; times=None builds them from b_1."""
    t = build_tfd_krylov(H, beta)
    if times is None:
        times = build_time_grid(t.b[0], len(H))
    return (*propagate(t, times), times)


def _w_ipr(H):
    t = householder_tridiagonalize(H, accumulate_basis=True)
    # keep the e1 Krylov vectors the Lanczos recursion would have produced;
    # ||H||_F^2 = sum a^2 + 2 sum b^2 is invariant under the reduction
    dim = lanczos_dimension(t.b, np.sqrt(np.sum(t.a**2) + 2.0 * np.sum(t.b**2)))
    basis = t.basis[:, :dim]
    last = krylov_ipr(basis, dim - 1, 2)
    mid = krylov_ipr(basis, pick_k(dim, KRule.MID_VECTOR), 2)
    return last, mid, dim, basis_orthogonality_residual(basis)


def _w_logvar(H):
    return log_variance(householder_tridiagonalize(H).b)


def _per_realization(manifest: RunManifest, gamma: float, N: int, fn, *extra, part=slice(None)):
    """fn(H, *extra) over the cell's seeded realizations H (those in `part`), in
    realization order on the calling thread."""
    seeds = realization_seeds(manifest.seed, manifest.realizations, tag_from_gamma(gamma), N)[part]
    return [fn(generate_rp(EnsembleConfig(N, gamma, manifest.normalization, int(seed))), *extra)
            for seed in seeds]


def _stderr(samples: np.ndarray):
    """Standard error of the mean over realizations (axis 0); zero for one realization."""
    if len(samples) < 2:
        return np.zeros(samples.shape[1:])
    return samples.std(axis=0, ddof=1) / np.sqrt(len(samples))


# ---------------------------------------------------------------------------
# cells

def _profile_stats(out, N: int):
    A, B, res = (np.stack(v) for v in zip(*out))
    return np.arange(1, N) / N, A.mean(axis=0)[: N - 1], B.mean(axis=0), _stderr(B), res.max()


def mean_profile_cell(manifest: RunManifest, gamma: float, N: int):
    """Ensemble-mean Householder profile: (x, mean_a, mean_b, stderr_b, residual)."""
    return _profile_stats(_per_realization(manifest, gamma, N, _w_profile), N)


_IDENTITY_CHECK = "tridiag_identity_residual"


def _profile_rows(x, mean_a, mean_b, stderr_b):
    return [(x[i], mean_a[i], mean_b[i], stderr_b[i]) for i in range(len(x))]


def _cell_profile(manifest, gamma, N):
    x, mean_a, mean_b, stderr_b, res = mean_profile_cell(manifest, gamma, N)
    imax = int(np.argmax(mean_b))
    summary = {
        "aggregate": [[gamma, N, manifest.realizations, float(mean_b[imax]), float(x[imax])]],
        "checks": {_IDENTITY_CHECK: {"value": res, "tol": 1e-8}},
    }
    return ("x,mean_a,mean_b,stderr_b".split(","),
            _profile_rows(x, mean_a, mean_b, stderr_b), summary)


def _cell_fit(manifest, gamma, N):
    x, mean_a, mean_b, stderr_b, res = mean_profile_cell(manifest, gamma, N)
    prof = np.column_stack([x, mean_b])
    rows = []
    for form in (AnsatzForm.QLOG, AnsatzForm.SUPERPOSITION):
        f = fit_ansatz(prof, form)
        rows.append([gamma, N, f.p, f.q, f.dp, f.dq, f.epsilon, form.value])
    summary = {"aggregate": rows,
               "checks": {_IDENTITY_CHECK: {"value": res, "tol": 1e-8}}}
    return ("x,mean_a,mean_b,stderr_b".split(","),
            _profile_rows(x, mean_a, mean_b, stderr_b), summary)


def _cell_rstat(manifest, gamma, N):
    rs = np.array(_per_realization(manifest, gamma, N, _w_rstat))
    rescaled = (gamma - 2.0) * np.log(N)
    summary = {"aggregate": [[gamma, N, float(rs.mean()), float(_stderr(rs)), float(rescaled)]]}
    return ["realization", "r"], [(i, v) for i, v in enumerate(rs)], summary


def _cell_dos(manifest, gamma, N):
    out = _per_realization(manifest, gamma, N, _w_profile)
    pooled = np.sort(np.concatenate(
        [eig_tridiagonal(TridiagonalForm(a, b)) for a, b, _ in out]))
    x, mean_a, mean_b, _, identity_res = _profile_stats(out, N)

    fit = fit_ansatz(np.column_stack([x, mean_b]), AnsatzForm.QLOG)
    p_raw = fit.p * fit.scale
    # the closed form lives on 0 <= q < 1; clamp small ergodic undershoots to the
    # semicircle end and localized overshoots into the log-limit branch
    q_eff = float(np.clip(fit.q, 0.0, 1.0 - 5e-4))
    model = DosModel(p_raw, q_eff)

    span = pooled[-1] - pooled[0]
    E = np.linspace(pooled[0] - 0.02 * span, pooled[-1] + 0.02 * span, 401)
    profile = np.column_stack([x, mean_a, mean_b])
    rho_quad = dos_from_lanczos(profile, E)
    rho_closed = dos_closed_form(model, E)
    ks_quad = ks_distance(rho_quad, E, pooled)
    ks_closed = ks_distance(rho_closed, E, pooled)
    norm_quad = float(np.trapezoid(rho_quad, E))
    rows = [(E[i], rho_quad[i], rho_closed[i]) for i in range(len(E))]
    summary = {
        "aggregate": [[gamma, N, p_raw, fit.q, ks_quad, ks_closed]],
        "checks": {"dos_norm_deviation": {"value": norm_quad - 1.0, "tol": 0.02},
                   _IDENTITY_CHECK: {"value": identity_res, "tol": 1e-8}},
    }
    return ["E", "rho_quadrature", "rho_closed"], rows, summary


def _cell_spread(manifest, gamma, N):
    # realization 0 fixes the time grid that every other realization shares
    out = _per_realization(manifest, gamma, N, _w_spread, manifest.beta, part=slice(1))
    times = out[0][2]
    out += _per_realization(manifest, gamma, N, _w_spread, manifest.beta, times,
                            part=slice(1, None))
    KS = np.stack([ks for ks, _, _ in out])
    unit_dev = max(u for _, u, _ in out)
    ks_mean = KS.mean(axis=0)
    stderr = _stderr(KS)
    # a curve that has not saturated, or a non-unitary evolution, is written and
    # fails its plateau_drift or unitarity_residual check
    has_peak, peak_value, peak_time, plateau = peak_fields(times, ks_mean)
    fraction = float(np.mean([smoothed_peak_flag(times, row) for row in KS]))
    summary = {
        "aggregate": [[gamma, N, peak_value, peak_time, plateau, int(has_peak), fraction]],
        "checks": {"plateau_drift": {"value": plateau_drift(times, ks_mean), "tol": 0.01},
                   "unitarity_residual": {"value": unit_dev, "tol": 1e-9}},
    }
    rows = [(times[i], ks_mean[i], stderr[i]) for i in range(len(times))]
    return ["t", "Ks_mean", "Ks_stderr"], rows, summary


def _cell_ipr(manifest, gamma, N):
    out = _per_realization(manifest, gamma, N, _w_ipr)
    last, mid, dims, orths = map(np.array, zip(*out))
    truncated = int(np.count_nonzero(dims != N))
    summary = {
        "aggregate": [
            [gamma, N, N - 1, 2, float(last.mean()), float(_stderr(last))],
            [gamma, N, N // 2, 2, float(mid.mean()), float(_stderr(mid))],
        ],
        "checks": {"lanczos_truncations": {"value": truncated, "tol": 0},
                   "orthogonality_residual": {"value": float(orths.max()), "tol": 1e-10}},
    }
    rows = [(i, last[i], mid[i]) for i in range(len(last))]
    return ["realization", "ipr_last", "ipr_mid"], rows, summary


def _cell_logvar(manifest, gamma, N):
    sig = np.array(_per_realization(manifest, gamma, N, _w_logvar))
    summary = {"aggregate": [[gamma, N, float(sig.mean()), float(_stderr(sig))]]}
    return ["realization", "sigma_b"], [(i, v) for i, v in enumerate(sig)], summary


def _cell_sm5(manifest, gamma, N):
    _, _, mean_b, _, identity_res = mean_profile_cell(manifest, gamma, N)
    alpha, beta = heteroskedastic_equiv(N, gamma, manifest.normalization)
    pred = predict_lanczos_profile(N, alpha, beta)      # rows (x, 0, b) for n = 1..N-2
    x = pred[:, 0]
    b_pred = pred[:, 2]
    b_emp = mean_b[: N - 2]
    rel = np.abs(b_pred - b_emp) / np.abs(b_emp)
    mid = (x >= 0.1) & (x <= 0.9)
    summary = {
        "aggregate": [[gamma, N, float(rel[mid].max()), float(rel[mid].mean())]],
        "checks": {_IDENTITY_CHECK: {"value": identity_res, "tol": 1e-8}},
    }
    rows = [(x[i], b_pred[i], b_emp[i], rel[i]) for i in range(len(x))]
    return ["x", "b_predicted", "b_empirical", "rel_error"], rows, summary


_CELL_FNS = {
    "profile": _cell_profile,
    "fit": _cell_fit,
    "rstat": _cell_rstat,
    "dos": _cell_dos,
    "spread": _cell_spread,
    "ipr": _cell_ipr,
    "logvar": _cell_logvar,
    "sm5": _cell_sm5,
}

_AGG_HEADERS = {
    "profile": ["gamma", "N", "realizations", "b_max", "x_at_max"],
    "fit": ["gamma", "N", "p", "q", "dp", "dq", "epsilon", "form"],
    "rstat": ["gamma", "N", "r_mean", "r_stderr", "rescaled_gamma"],
    "dos": ["gamma", "N", "p_raw", "q", "ks_quadrature", "ks_closed"],
    "spread": ["gamma", "N", "peak_value", "peak_time", "plateau", "has_peak", "has_peak_fraction"],
    "ipr": ["gamma", "N", "k", "ell", "ipr", "stderr"],
    "logvar": ["gamma", "N", "sigma_b", "stderr"],
    "sm5": ["gamma", "N", "max_rel_mid", "mean_rel_mid"],
}


def _post_ipr(manifest: RunManifest, summaries: dict, out_dir: Path):
    """Regress D2 per gamma whenever the sweep covers >= 3 sizes."""
    if len(manifest.N_grid) < 3:
        return
    rows = []
    for gamma in manifest.gamma_grid:
        for rule in (KRule.LAST_VECTOR, KRule.MID_VECTOR):
            recs = []
            for N in manifest.N_grid:
                agg = summaries[(gamma, N)]["aggregate"]
                k = pick_k(N, rule)
                for row in agg:
                    if int(row[2]) == k:
                        recs.append(KrylovIprRecord(gamma, N, k, 2, float(row[4]),
                                                    manifest.realizations))
            exponent = fit_d2(recs, rule)
            rows.append([gamma, rule.value, exponent.d2, exponent.fit_stderr])
    runio.write_csv(Path(out_dir) / "d2.csv", ["gamma", "k_rule", "D2", "stderr"], rows)


def _post_logvar(manifest: RunManifest, summaries: dict, out_dir: Path):
    """Power-law fits per N when a phase region holds >= 5 gamma points."""
    g = np.array(manifest.gamma_grid)
    covered = {"fractal": np.count_nonzero((g > 1.0) & (g <= 2.0)),
               "localized": np.count_nonzero(g > 2.0)}
    keep = [phase for phase, hits in covered.items() if hits >= 5]
    if not keep:
        return
    def in_kept(gamma):
        if "fractal" in keep and 1.0 < gamma <= 2.0:
            return True
        return "localized" in keep and gamma > 2.0

    rows = []
    for N in manifest.N_grid:
        points = np.array([[gamma, summaries[(gamma, N)]["aggregate"][0][2]]
                           for gamma in manifest.gamma_grid if in_kept(gamma)])
        fits = fit_logvar_powerlaw(points, N)
        for phase in keep:
            rows.append([N, phase, *fits[phase]])
    runio.write_csv(Path(out_dir) / "logvar_powerlaw.csv",
                    ["N", "phase", "a", "n", "c"], rows)


_POST_FNS = {"ipr": _post_ipr, "logvar": _post_logvar}


def run(manifest: RunManifest, workers: int | None = None) -> int:
    """Execute a sweep; returns 0 when every cell (and post-processing) succeeded.
    A cell fails when it raises or when a check in its summary, new or resumed, is beyond tol.
    `workers` is ignored (realizations run in order on the calling thread); it is kept
    only because the benchmark's `bench/run.py` passes it, and goes with the next
    change to the benchmark."""
    check_guardrails(manifest)
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cell_fn = _CELL_FNS[manifest.experiment]
    payload = manifest.to_dict()
    provenance = {key: payload[key] for key in runio.PROVENANCE_KEYS}
    failures = []
    summaries = {}
    for gamma in manifest.gamma_grid:
        for N in manifest.N_grid:
            stem = runio.cell_stem(manifest.experiment, gamma, N)
            if runio.cell_complete(out_dir, stem, provenance):
                summary = runio.load_summary(out_dir, stem)
            else:
                try:
                    header, rows, summary = cell_fn(manifest, gamma, N)
                except Exception as err:  # noqa: BLE001 - record and keep sweeping
                    failures.append((stem, f"{type(err).__name__}: {err}"))
                    continue
                summary.update(status="ok", gamma=gamma, N=N, **provenance)
                runio.write_cell(out_dir, stem, header, rows, summary)
            summaries[(gamma, N)] = summary
            failures += [(stem, f"check {name} {rec['value']} > {rec['tol']}")
                         for name, rec in sorted(summary.get("checks", {}).items())
                         if not abs(rec["value"]) <= rec["tol"]]
    agg_rows = []
    for gamma in manifest.gamma_grid:
        for N in manifest.N_grid:
            if (gamma, N) in summaries:
                agg_rows.extend(summaries[(gamma, N)]["aggregate"])
    runio.write_csv(out_dir / runio.AGGREGATE_NAME, _AGG_HEADERS[manifest.experiment], agg_rows)
    post = _POST_FNS.get(manifest.experiment)
    if post is not None and len(summaries) == len(manifest.gamma_grid) * len(manifest.N_grid):
        try:
            post(manifest, summaries, out_dir)
        except Exception as err:  # noqa: BLE001
            failures.append(("post", f"{type(err).__name__}: {err}"))
    if failures:
        payload["failures"] = [f"{stem}: {msg}" for stem, msg in failures]
    runio.finalize_manifest(out_dir, payload)
    for stem, msg in failures:
        print(f"FAIL {stem}: {msg}")
    return 1 if failures else 0


def verify(output_dir) -> int:
    ok, lines = runio.verify_outputs(Path(output_dir))
    for line in lines:
        print(line)
    print("VERIFY:", "pass" if ok else "FAIL")
    return 0 if ok else 1
