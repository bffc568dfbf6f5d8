import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from krylovlab import (EnsembleConfig, Normalization, VarianceState,
                       generate_rp, predict_lanczos_profile, step_variances)
from krylovlab.experiments import _cell_sm5, heteroskedastic_equiv
from krylovlab.sm5_oracle import householder_moment_sums, nakagami_mean

from conftest import make_manifest
from oracles import NakagamiSpec, analytic_goe_b, first_row_after_step, reflector_matrix


def test_variance_state_validation():
    with pytest.raises(ValueError):
        VarianceState(0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        VarianceState(10, 1.0, -0.1, 1.0, 1.0)
    s = VarianceState.initial(100, 0.5, 0.25)
    assert (s.a, s.b_diag, s.c, s.d_off) == (0.5, 0.5, 0.25, 0.25)


def test_wigner_state_is_exact_fixed_point():
    beta = 0.37
    s = VarianceState.initial(60, 2.0 * beta, beta)
    for _ in range(20):
        s = step_variances(s)
        assert (s.a, s.b_diag, s.c, s.d_off) == (2.0 * beta, 2.0 * beta, beta, beta)
    assert s.L == 40


def test_offdiagonals_regenerate_from_diagonal():
    s = step_variances(VarianceState(100, 1.0, 1.0, 0.0, 0.0))
    assert s.c == pytest.approx(0.02, rel=1e-14)


def test_deep_localized_first_step_norm_suppression():
    N = 1024
    alpha, beta = 1.0 / (2 * N), 1.0 / (4 * N**5.0)
    s = step_variances(VarianceState.initial(N, alpha, beta))
    # first-row variance is set by the diagonal alone: C ~ 2 alpha / L
    assert s.c / (2.0 * alpha / N) == pytest.approx(1.0, abs=1e-6)


def test_recursion_bottom_is_an_error():
    with pytest.raises(ValueError):
        step_variances(VarianceState(2, 1.0, 1.0, 1.0, 1.0))


def test_negative_variance_is_clamped_with_warning():
    with pytest.warns(UserWarning):
        s = step_variances(VarianceState(3, 0.0, 1.0, 1.0, 0.0))
    assert s.b_diag == 0.0


def test_nakagami_mean_small_orders():
    assert nakagami_mean(1, 1.0) == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-12)
    assert nakagami_mean(2, 2.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    assert nakagami_mean(3, 1.0) == pytest.approx(2.0 * np.sqrt(2.0 / np.pi), rel=1e-12)
    assert nakagami_mean(5, 0.0) == 0.0


def test_nakagami_spec_validation():
    spec = NakagamiSpec(12, 0.5)
    assert spec.mean > 0
    with pytest.raises(ValueError):
        NakagamiSpec(0, 1.0)
    with pytest.raises(ValueError):
        NakagamiSpec(3, 0.0)


def test_nakagami_mean_matches_sampled_norms():
    rng = np.random.default_rng(77)
    samples = np.linalg.norm(rng.normal(0.0, 0.3, size=(40000, 7)), axis=1)
    assert samples.mean() == pytest.approx(nakagami_mean(7, 0.09), rel=2e-3)


def test_predicted_profile_validation():
    with pytest.raises(ValueError):
        predict_lanczos_profile(2, 1.0, 0.5)
    with pytest.raises(ValueError):
        predict_lanczos_profile(64, 0.0, 0.5)
    with pytest.raises(ValueError):
        predict_lanczos_profile(64, 1.0, -0.1)


def test_predicted_profile_shape_and_diagonal():
    prof = predict_lanczos_profile(128, 1.0, 0.5)
    assert prof.shape == (126, 3)
    assert np.all(prof[:, 1] == 0.0)
    assert np.allclose(prof[:, 0], np.arange(1, 127) / 128.0)


def test_wigner_prediction_matches_chi_profile():
    # fixed point of the recursion must reproduce the analytic sqrt-law
    N, beta = 1024, 0.5
    prof = predict_lanczos_profile(N, 2.0 * beta, beta)
    x, b = prof[:, 0], prof[:, 2]
    keep = x <= 0.9
    ref = analytic_goe_b(N, beta, x[keep])
    assert np.max(np.abs(b[keep] - ref) / ref) < 0.02


def test_deep_localized_sqrtn_collapse():
    curves = {}
    for N in (256, 1024):
        alpha, beta = heteroskedastic_equiv(N, 4.0, Normalization.SM5)
        prof = predict_lanczos_profile(N, alpha, beta)
        curves[N] = (prof[:, 0], np.sqrt(N) * prof[:, 2])
    xg = np.linspace(0.02, 0.98, 97)
    small = np.interp(xg, *curves[256])
    large = np.interp(xg, *curves[1024])
    assert np.max(np.abs(small - large) / large) < 0.05


def test_predicted_overlay_tracks_empirical_profile():
    # the recursion is quantitative at the profile scale, not point-exact
    m = make_manifest("sm5", (4.0,), (1024,), 50)
    _, _, summary = _cell_sm5(m, 4.0, 1024)
    gamma, N, max_rel_mid, mean_rel_mid = summary["aggregate"][0]
    assert (gamma, N) == (4.0, 1024)
    assert max_rel_mid < 0.60
    assert mean_rel_mid < 0.40


def test_moment_sums_leading_order():
    omega, mu, nu, zeta = householder_moment_sums(10**6)
    assert abs(omega * 10**6 - 1.0) < 1e-2
    assert abs(nu * 10**6 - 1.0) < 1e-2
    with pytest.raises(ValueError):
        householder_moment_sums(7)


def test_moment_sums_against_sampled_reflectors():
    N = 64
    _, mu, _, _ = householder_moment_sums(N)
    rng = np.random.default_rng(1234)
    vals = np.array([(reflector_matrix(rng.standard_normal(N - 1))[1:, 2] ** 4).sum()
                     for _ in range(600)])
    small = vals[:12]
    assert abs(small.mean() - (1.0 + mu)) < 3.0 * small.std(ddof=1) / np.sqrt(12)
    assert abs(vals.mean() - (1.0 + mu)) < 8.0 * N**-1.5


def test_reflector_geometry():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(40)
    M = reflector_matrix(v)
    assert np.allclose(M @ v, np.linalg.norm(v) * np.eye(40)[0], atol=1e-12)
    assert np.allclose(M @ M.T, np.eye(40), atol=1e-12)
    assert np.allclose(M, M.T, atol=1e-12)
    assert np.array_equal(reflector_matrix(np.array([2.0, 0.0, 0.0])), np.eye(3))
    with pytest.raises(ValueError):
        reflector_matrix(np.zeros(5))


def test_first_row_matches_explicit_reflection():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((12, 12))
    H = (A + A.T) / 2.0
    M = reflector_matrix(H[1:, 0])
    expect = (M @ H[1:, 1:] @ M)[0, 1:]
    assert np.allclose(first_row_after_step(H), expect, atol=1e-12)
    with pytest.raises(ValueError):
        first_row_after_step(np.eye(3))


def test_first_row_variance_wigner_case_is_exact():
    # orthogonal invariance: reflecting a Wigner block leaves the off-diagonal
    # variance untouched, so the C-class fixed point is exact, not approximate
    pooled = np.concatenate([
        first_row_after_step(generate_rp(EnsembleConfig(512, 0.0, seed=90000 + i)))
        for i in range(8)])
    _, beta = heteroskedastic_equiv(512, 0.0, Normalization.PAPER_MAIN)
    assert pooled.var(ddof=1) == pytest.approx(beta, rel=0.05)


def test_first_row_variance_is_bracketed_by_recursion():
    # away from the Wigner point the leading-order map is an upper envelope of
    # the one-step variance: the regeneration term carries a conservative
    # coefficient, while the beta floor is a strict lower bound
    N, reals = 256, 60
    pooled = np.concatenate([
        first_row_after_step(generate_rp(EnsembleConfig(N, 1.0, seed=80000 + i)))
        for i in range(reals)])
    var = pooled.var(ddof=1)
    alpha, beta = heteroskedastic_equiv(N, 1.0, Normalization.PAPER_MAIN)
    predicted = step_variances(VarianceState.initial(N, alpha, beta)).c
    assert beta * 1.5 < var < predicted * 0.85


def test_first_row_entries_are_gaussian():
    ent = np.concatenate([
        first_row_after_step(generate_rp(EnsembleConfig(512, 0.0, seed=90000 + i)))
        for i in range(8)])
    assert stats.normaltest(ent).pvalue > 0.01


@settings(max_examples=40, deadline=None)
@given(N=st.integers(16, 400), gamma=st.floats(0.0, 6.0),
       norm=st.sampled_from([Normalization.PAPER_MAIN, Normalization.SM5]))
def test_propagated_variances_stay_nonnegative(N, gamma, norm):
    alpha, beta = heteroskedastic_equiv(N, gamma, norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # any clamp event would raise
        prof = predict_lanczos_profile(N, alpha, beta)
    assert np.all(prof[:, 2] >= 0.0)
