"""End-to-end acceptance checks for the package.

Each test here exercises one headline capability at production scale,
consuming the shared session fixtures, and prints a single summary line
with the measured numbers when it passes.  Run with ``-rA`` (or ``-s``)
to see the lines.
"""

import numpy as np
import pytest

from conftest import RSTAT_GAMMAS
from krylovlab import (
    AnsatzForm,
    DosModel,
    Normalization,
    TridiagonalForm,
    dos_closed_form,
    fit_ansatz,
    fit_d2,
    householder_tridiagonalize,
    lanczos_tridiagonalize,
    xi_from_maximum,
)
from krylovlab.experiments import heteroskedastic_equiv
from krylovlab.krylov_ipr import (
    KRule,
    pick_k,
)
from krylovlab.sm5_oracle import householder_moment_sums, predict_lanczos_profile
from krylovlab.spectral import eig_tridiagonal
from oracles import (analytic_goe_b, overlap_recurrence, overlaps_by_projection, reflector_matrix,
                     sturm_eigenvalues, syevd_eigh)


def _qlog_fit(profile):
    return fit_ansatz(profile, form=AnsatzForm.QLOG)


def test_ac1_goe_profile_and_fit(mean_profiles):
    x, _, mean_b, _, _ = mean_profiles[0.0]
    window = (x >= 0.05) & (x <= 0.95)
    xs, bs = x[window], mean_b[window]
    target = np.sqrt(1.0 - xs)
    c = float(np.dot(bs, target) / np.dot(target, target))
    rel_rms = float(np.sqrt(np.mean((bs / (c * target) - 1.0) ** 2)))
    assert rel_rms < 0.03

    fit = _qlog_fit(np.column_stack([x, mean_b]))
    assert abs(fit.q) < 0.1
    assert abs(fit.p - 1.0) < 0.1
    print(
        f"AC1 PASS: sqrt-law rel RMS {rel_rms:.4f} < 3%, "
        f"fit p={fit.p:.4f}, q={fit.q:.4f}"
    )


def test_ac2_deep_localized_fit(mean_profiles):
    x, _, mean_b, _, _ = mean_profiles[4.0]
    profile = np.column_stack([x, mean_b])
    fit = _qlog_fit(profile)
    assert fit.q > 0.85
    assert abs(fit.p - 0.125) < 0.03
    xi = xi_from_maximum(profile, fit)
    assert abs(xi - 0.5) < 0.05
    print(
        f"AC2 PASS: q={fit.q:.4f} > 0.85, p={fit.p:.4f} = 0.125 +/- 0.03, "
        f"xi={xi:.4f} = 0.5 +/- 0.05"
    )


def test_ac3_fit_quality_across_sweep(mean_profiles):
    epsilons = {}
    for gamma in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        x, _, mean_b, _, _ = mean_profiles[gamma]
        fit = _qlog_fit(np.column_stack([x, mean_b]))
        epsilons[gamma] = fit.epsilon
        assert fit.epsilon < 10.0, f"gamma={gamma}: epsilon={fit.epsilon}"
    worst = max(epsilons, key=epsilons.get)
    print(
        f"AC3 PASS: epsilon < 10% for gamma in {sorted(epsilons)}, "
        f"worst {epsilons[worst]:.3f}% at gamma={worst}"
    )


def test_ac4_level_statistics_crossover(rstat_curves, rstat_collapse):
    for N in (128, 512):
        for gamma in (0.5, 1.0, 1.5):
            r = rstat_curves[(N, gamma)][0]
            assert abs(r - 0.53) < 0.02, f"N={N} gamma={gamma}: r={r}"
        for gamma in (3.5, 4.0):
            r = rstat_curves[(N, gamma)][0]
            assert abs(r - 0.386) < 0.02, f"N={N} gamma={gamma}: r={r}"

    # The curves for different N cross close to gamma = 2: the values there
    # agree across sizes, and rescaling gamma -> (gamma - 2) ln N collapses
    # the two sweep curves onto each other.
    at_two = [rstat_collapse[N] for N in (128, 512, 1024)]
    spread = max(at_two) - min(at_two)
    assert spread < 0.02

    gammas = np.array(RSTAT_GAMMAS)
    r128 = np.array([rstat_curves[(128, g)][0] for g in gammas])
    r512 = np.array([rstat_curves[(512, g)][0] for g in gammas])
    x128 = (gammas - 2.0) * np.log(128)
    x512 = (gammas - 2.0) * np.log(512)
    inside = (x128 >= x512[0]) & (x128 <= x512[-1])
    diffs = np.abs(r128[inside] - np.interp(x128[inside], x512, r512))
    assert diffs.max() < 0.02

    level = 0.5 * (0.53 + 0.386)
    crossings = {}
    for N, curve in ((128, r128), (512, r512)):
        below = np.nonzero(curve < level)[0][0]
        g_hi, g_lo = gammas[below], gammas[below - 1]
        frac = (curve[below - 1] - level) / (curve[below - 1] - curve[below])
        crossings[N] = g_lo + frac * (g_hi - g_lo)
        assert 1.7 < crossings[N] < 2.7
    print(
        f"AC4 PASS: plateaus at 0.53/0.386 within 0.02; r(gamma=2) spread over "
        f"N=128/512/1024 is {spread:.4f}; rescaled curves agree to "
        f"{diffs.max():.4f}; midpoint crossings at gamma="
        f"{crossings[128]:.2f}, {crossings[512]:.2f}"
    )


def test_ac5_ergodic_spread_plateau(spread_cells):
    _, _, summary = spread_cells[0.0]
    row = summary["aggregate"][0]
    N = int(row[1])
    plateau = row[4]
    target = (N - 1) / (2.0 * N)
    rel = abs(plateau / N / target - 1.0)
    assert rel < 0.02
    print(
        f"AC5 PASS: mean spread plateau / N = {plateau / N:.6f} vs "
        f"(N-1)/(2N) = {target:.6f}, rel dev {rel:.4f} < 2%"
    )


def test_ac6_spread_peak_across_phases(spread_cells):
    rows = {g: spread_cells[g][2]["aggregate"][0] for g in (0.5, 1.5, 3.0)}
    assert rows[0.5][5] == 1
    assert rows[1.5][5] == 1
    assert rows[3.0][5] == 0
    peaks = [rows[g][2] for g in (0.5, 1.5, 3.0)]
    assert peaks[0] >= peaks[1] >= peaks[2]
    print(
        f"AC6 PASS: has_peak = 1/1/0 at gamma = 0.5/1.5/3; peak values "
        f"{peaks[0]:.2f} >= {peaks[1]:.2f} >= {peaks[2]:.2f}"
    )


def test_ac7_fractal_dimension_from_last_vector(ipr_summaries):
    sizes = (256, 512, 1024, 2048)
    results = {}
    for gamma, d2_target, tol in ((0.5, 1.0, 0.15), (1.5, 0.5, 0.15), (3.0, 0.0, 0.1)):
        iprs = [ipr_summaries[(gamma, N, pick_k(N, KRule.LAST_VECTOR))][0] for N in sizes]
        d2, _ = fit_d2(sizes, iprs)
        results[gamma] = d2
        assert abs(d2 - d2_target) < tol, (
            f"gamma={gamma}: D2={d2} not within {tol} of {d2_target}"
        )
    print(
        f"AC7 PASS: D2(0.5)={results[0.5]:.4f} (1 +/- 0.15), "
        f"D2(1.5)={results[1.5]:.4f} (0.5 +/- 0.15), "
        f"D2(3)={results[3.0]:.4f} (0 +/- 0.1)"
    )


def test_ac8_density_of_states(dos_summaries):
    worst_norm = 0.0
    for p, q in ((1.0, 0.0), (0.25, 0.5), (0.125, 0.95)):
        model = DosModel(p=p, q=q)
        es = np.linspace(-model.half_width, model.half_width, 200_001)
        norm = float(np.trapezoid(dos_closed_form(model, es), es))
        worst_norm = max(worst_norm, abs(norm - 1.0))
        assert abs(norm - 1.0) < 1e-6
    ks = {}
    for gamma in (0.0, 3.0):
        ks[gamma] = dos_summaries[gamma][1]["aggregate"][0][4]
        assert ks[gamma] < 0.05
    print(
        f"AC8 PASS: closed-form norm within {worst_norm:.2e} of 1; spectral KS "
        f"vs quadrature {ks[0.0]:.4f} (gamma=0), {ks[3.0]:.4f} (gamma=3), both < 0.05"
    )


def test_ac9_variance_recursion_limits():
    # Ergodic fixed point: the predicted profile must match the closed-form
    # chi-distributed mean for a pure Wigner variance state.
    N, beta = 1024, 0.5
    predicted = predict_lanczos_profile(N, 2.0 * beta, beta)
    window = predicted[:, 0] <= 0.9
    xs = predicted[window, 0]
    rel_fp = np.abs(predicted[window, 2] / analytic_goe_b(N, beta, xs) - 1.0)
    assert rel_fp.max() < 0.02

    # Deep-localized collapse: sqrt(N) * b(x) curves for different N agree.
    xs = np.linspace(0.02, 0.98, 97)
    curves = []
    for N in (256, 1024):
        prof = predict_lanczos_profile(N, *heteroskedastic_equiv(N, 4.0, Normalization.SM5))
        curves.append(np.sqrt(N) * np.interp(xs, prof[:, 0], prof[:, 2]))
    rel_col = np.abs(curves[0] - curves[1]) / curves[1]
    assert rel_col.max() < 0.05

    # Quartic moment sums of sampled reflector columns against the
    # closed-form O(1/N) correction.
    N = 64
    rng = np.random.default_rng(1234)
    _, mu, _, _ = householder_moment_sums(N)
    stats = []
    for _ in range(12):
        v = rng.standard_normal(N - 1)
        M = reflector_matrix(v)
        stats.append(float((M[1:, 2] ** 4).sum()))
    mean = float(np.mean(stats))
    stderr = float(np.std(stats, ddof=1) / np.sqrt(len(stats)))
    dev = abs(mean - (1.0 + mu))
    assert dev < 3.0 * stderr
    print(
        f"AC9 PASS: Wigner fixed point within {rel_fp.max():.4f} (< 2%); "
        f"sqrt(N) collapse within {rel_col.max():.4f} (< 5%); quartic sum "
        f"dev {dev:.4f} < 3 stderr = {3 * stderr:.4f}"
    )


def test_ac10_internal_consistency(mean_profiles, dos_summaries, spread_cells):
    # Householder and Lanczos produce the same tridiagonal form.
    rng = np.random.default_rng(2024)
    worst_hh = 0.0
    for n in (4, 8, 12, 16, 20, 24):
        M = rng.standard_normal((n, n))
        H = (M + M.T) / 2.0
        th = householder_tridiagonalize(H)
        tl = lanczos_tridiagonalize(H)
        worst_hh = max(
            worst_hh,
            float(np.abs(th.a - tl.a).max()),
            float(np.abs(th.b - tl.b).max()),
        )
    assert worst_hh < 1e-8

    # Tridiagonal eigenvalues against Sturm bisection for tiny sizes.
    worst_sturm = 0.0
    for n in range(2, 9):
        for seed in range(3):
            gen = np.random.default_rng(100 * n + seed)
            a = gen.standard_normal(n)
            b = np.abs(gen.standard_normal(n - 1)) + 0.1
            eigs = eig_tridiagonal(TridiagonalForm(a=a, b=b))
            worst_sturm = max(
                worst_sturm, float(np.abs(eigs - sturm_eigenvalues(a, b)).max())
            )
    assert worst_sturm < 1e-10

    # Eigenvector overlaps from the three-term recurrence against direct
    # projection onto the stored basis.
    worst_rec = 0.0
    for seed in (5, 6):
        M = np.random.default_rng(seed).standard_normal((48, 48))
        H = (M + M.T) / 2.0
        t = lanczos_tridiagonalize(H)
        values, vectors = syevd_eigh(H, vectors=True)
        proj = overlaps_by_projection(t, vectors)
        for m in (16, 24, 31):
            rec = overlap_recurrence(t, values[m], proj[m, 0])
            worst_rec = max(worst_rec, float(np.abs(rec - proj[m]).max()))
    assert worst_rec < 1e-8

    # Every stored run carries its own consistency checks: trace/Frobenius
    # identities on the profiles, unitarity and norm checks on the rest.
    worst_identity = max(prof[4] for prof in mean_profiles.values())
    assert worst_identity <= 1e-8
    n_checks = 0
    for summary in [s for _, s in dos_summaries.values()] + [
        c[2] for c in spread_cells.values()
    ]:
        for name, check in summary["checks"].items():
            assert abs(check["value"]) <= check["tol"], (name, check)
            n_checks += 1
    assert n_checks > 0
    print(
        f"AC10 PASS: Householder vs Lanczos within {worst_hh:.2e}; eigenvalues vs "
        f"Sturm within {worst_sturm:.2e}; recurrence vs projection within "
        f"{worst_rec:.2e}; identity residual <= {worst_identity:.2e} and "
        f"{n_checks} stored-run checks all inside tolerance"
    )
