import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import comb

from krylovlab import (AnsatzForm, EnsembleConfig, fit_ansatz,
                       fit_logvar_powerlaw, generate_rp, lanczos_tridiagonalize,
                       log_variance, nib, q_log, shifted_binomial, xi_from_maximum)
from krylovlab.lanczos_stats import AnsatzFit, FitError, nib_asymptotic, _epsilon
from krylovlab.ensembles import realization_seeds, tag_from_gamma

from conftest import PROFILE_GAMMAS
from oracles import goodness_epsilon


def qlog_fit(mean_profiles, gamma, form=AnsatzForm.QLOG):
    x, _, b, _, _ = mean_profiles[gamma]
    return fit_ansatz(np.column_stack([x, b]), form)


def test_q_log_values():
    assert q_log(1.0, 0.7) == 0.0
    assert q_log(0.5, 1.0) == pytest.approx(np.log(0.5), rel=1e-12)
    assert q_log(0.5, 1.0 - 5e-9) == pytest.approx(np.log(0.5), rel=1e-6)
    assert q_log(0.25, 0.0) == pytest.approx(-0.75, rel=1e-14)
    with pytest.raises(ValueError):
        q_log(0.0, 0.5)
    with pytest.raises(ValueError):
        q_log(-1.0, 0.5)


def test_shifted_binomial_endpoints():
    assert shifted_binomial(0.0, 12.0) == pytest.approx(comb(12, 6) / 4096.0, rel=1e-12)
    assert shifted_binomial(0.5, 12.0) == pytest.approx(2.0**-12, rel=1e-12)
    assert shifted_binomial(-0.5, 12.0) == pytest.approx(2.0**-12, rel=1e-12)
    g = np.linspace(-0.5, 0.5, 101)
    vals = shifted_binomial(g, 12.0)
    assert np.argmax(vals) == 50
    with pytest.raises(ValueError):
        shifted_binomial(0.6, 12.0)


def test_nib_trivial_points():
    assert nib(shifted_binomial(0.0, 12.0), 12.0) == 0.0
    assert nib(2.0**-12, 12.0) == 0.5


def test_nib_frozen_value():
    assert nib(0.1, 12.0) == pytest.approx(0.1898052743, abs=1e-9)


def test_nib_monotone_decreasing():
    xs = np.geomspace(2.0**-12 * 1.01, 0.2255, 40)
    gs = [nib(float(x), 12.0) for x in xs]
    assert np.all(np.diff(gs) < 0)


def test_nib_entropic_asymptote():
    # the bare large-d rate is only reached deep in its validity regime
    x = float(np.exp(-100.0))
    g = nib(x, 1e4)
    assert abs(nib_asymptotic(x, 1e4) - g) / g < 0.03


def test_nib_domain_errors():
    with pytest.raises(ValueError):
        nib(0.0, 12.0)
    with pytest.raises(ValueError):
        nib(0.5, 12.0)          # above bin(0, 12)
    with pytest.raises(ValueError):
        nib(2.0**-13, 12.0)     # below bin(1/2, 12)
    with pytest.raises(ValueError):
        nib(0.1, 0.0)           # width d must be positive


@settings(max_examples=60, deadline=None)
@given(d=st.integers(4, 20), u=st.floats(0.01, 0.99))
def test_nib_bin_round_trip(d, u):
    lo, hi = 2.0**-d, shifted_binomial(0.0, float(d))
    x = lo * (hi / lo) ** u
    g = nib(x, float(d))
    assert 0.0 <= g <= 0.5
    assert abs(shifted_binomial(g, float(d)) - x) < 1e-10


def test_fit_ansatz_synthetic_round_trip():
    x = np.arange(1, 501) / 500.0
    b = np.sqrt(-0.5 * q_log(x, 0.3))
    fit = fit_ansatz(np.column_stack([x, b]))
    assert abs(fit.p - 0.5) < 1e-6
    assert abs(fit.q - 0.3) < 1e-6
    assert fit.scale == 1.0


def test_fit_ansatz_sqrt_limit_with_q_pinned():
    x = np.arange(1, 500) / 500.0
    prof = np.column_stack([x, np.sqrt(1.0 - x)])
    free = fit_ansatz(prof)
    assert abs(free.q) < 1e-8
    assert abs(free.p - 1.0) < 1e-10
    resid = np.max(np.abs(-free.p * q_log(x, free.q) - (1.0 - x)))
    assert resid < 1e-10


def test_fit_ansatz_goe_profile(mean_profiles):
    fit = qlog_fit(mean_profiles, 0.0)
    assert abs(fit.q) < 0.1
    assert abs(fit.p - 1.0) < 0.1


def test_fit_ansatz_localized_profile(mean_profiles):
    fit = qlog_fit(mean_profiles, 4.0)
    assert fit.q > 0.85
    assert fit.p == pytest.approx(0.125, abs=0.03)


def test_fit_ansatz_superposition_limits(mean_profiles):
    ergodic = qlog_fit(mean_profiles, 0.0, AnsatzForm.SUPERPOSITION)
    assert abs(ergodic.p - 1.0) < 0.05
    assert abs(ergodic.q) < 0.05
    localized = qlog_fit(mean_profiles, 4.0, AnsatzForm.SUPERPOSITION)
    assert abs(localized.p) < 0.05
    assert 0.1 < localized.q < 0.2


def test_fit_ansatz_is_deterministic(mean_profiles):
    a = qlog_fit(mean_profiles, 1.5)
    b = qlog_fit(mean_profiles, 1.5)
    assert (a.p, a.q, a.dp, a.dq) == (b.p, b.q, b.dp, b.dq)


def test_fitted_q_is_monotone_in_gamma(mean_profiles):
    qs = [qlog_fit(mean_profiles, g).q for g in PROFILE_GAMMAS]
    # non-decreasing up to the ~0.01 wobble of the saturated localized fits
    assert np.all(np.diff(qs) > -0.02)


def test_fit_sanity_bounds_hold_on_sweep(mean_profiles):
    for g in PROFILE_GAMMAS:
        fit = qlog_fit(mean_profiles, g)
        assert -0.2 <= fit.q <= 1.05
        assert fit.p > 0


@pytest.mark.parametrize("q_true", [1.5, -0.4])
def test_fit_ansatz_rejects_unphysical_q(q_true):
    x = np.arange(1, 501) / 500.0
    b = np.sqrt(-0.5 * q_log(x, q_true))
    with pytest.raises(FitError):
        fit_ansatz(np.column_stack([x, b]))


def test_fit_ansatz_validation():
    x = np.arange(1, 8) / 8.0
    with pytest.raises(ValueError):
        fit_ansatz(np.column_stack([x, np.sqrt(1 - x)]))      # < 10 points
    with pytest.raises(ValueError):
        fit_ansatz(np.ones((20, 3)))
    bad = np.column_stack([np.arange(1, 30) / 30.0, np.full(29, np.nan)])
    with pytest.raises(ValueError):
        fit_ansatz(bad)


def test_goodness_epsilon_formula():
    fit = AnsatzFit(AnsatzForm.QLOG, 1.0, 0.0, 0.0, 0.0, 0.0, 0.01, 1.0)
    assert goodness_epsilon(fit) == 0.0
    fit = AnsatzFit(AnsatzForm.QLOG, 1.0, 0.0, 0.0002, 0.0002, 2.0, 0.01, 1.0)
    assert goodness_epsilon(fit) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        _epsilon(-0.1, -0.3, 1e-4, 1e-4)


def test_epsilon_field_consistent_with_parameters(mean_profiles):
    for g in PROFILE_GAMMAS:
        fit = qlog_fit(mean_profiles, g)
        assert fit.epsilon == pytest.approx(goodness_epsilon(fit), rel=1e-12)


def test_epsilon_below_ten_percent_across_sweep(mean_profiles):
    for g in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        assert qlog_fit(mean_profiles, g).epsilon < 10.0


def test_xi_synthetic_log_profile():
    x = np.arange(1, 501) / 500.0
    b = 0.5 * np.sqrt(-0.5 * np.log(x))
    fit = fit_ansatz(np.column_stack([x, b]))
    assert fit.q == pytest.approx(1.0, abs=1e-6)
    assert fit.p == pytest.approx(0.125, abs=1e-6)
    assert xi_from_maximum(np.column_stack([x, b]), fit) == pytest.approx(0.5, abs=1e-6)


def test_xi_calibration_localized_sweep(mean_profiles):
    for g in (3.0, 4.0):
        x, _, b, _, _ = mean_profiles[g]
        prof = np.column_stack([x, b])
        fit = fit_ansatz(prof)
        assert xi_from_maximum(prof, fit) == pytest.approx(0.5, abs=0.05)


def test_log_variance_constant_profile():
    assert log_variance(np.ones(64)) == 0.0


def test_log_variance_validation():
    with pytest.raises(ValueError):
        log_variance(np.array([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        log_variance(np.array([1.0, 2.0]))


def test_log_variance_goe_mean_profile(mean_profiles):
    _, _, b, _, _ = mean_profiles[0.0]
    assert log_variance(b) < 0.05


def test_log_variance_grows_into_localized_phase():
    sig = {}
    for g in (1.0, 3.0):
        vals = []
        for s in realization_seeds(606, 16, tag_from_gamma(g), 512):
            t = lanczos_tridiagonalize(generate_rp(EnsembleConfig(512, g, seed=int(s))))
            vals.append(log_variance(t.b))
        sig[g] = np.mean(vals)
    assert sig[3.0] > 3.0 * sig[1.0]


def test_fit_logvar_powerlaw_round_trip():
    g = np.concatenate([np.linspace(1.1, 2.0, 10), np.linspace(2.2, 5.0, 15)])
    pts = np.column_stack([g, 0.1 * g**3 + 0.01])
    out = fit_logvar_powerlaw(pts)
    for phase in ("fractal", "localized"):
        a, n, c = out[phase]
        assert a == pytest.approx(0.1, abs=1e-4)
        assert n == pytest.approx(3.0, abs=1e-4)
        assert c == pytest.approx(0.01, abs=1e-4)


def test_fit_logvar_powerlaw_region_handling():
    g = np.linspace(1.1, 2.0, 10)
    out = fit_logvar_powerlaw(np.column_stack([g, 0.1 * g**3 + 0.01]))
    assert "fractal" in out and "localized" not in out
    # a region with fewer than 5 points is left out; none left gives {}
    assert fit_logvar_powerlaw(np.array([[1.5, 0.1], [1.7, 0.2]])) == {}
    assert fit_logvar_powerlaw(np.array([[0.5, 0.1], [0.9, 0.2]])) == {}


def test_logvar_amplitude_scaling_with_size(logvar_points):
    # amplitude of the per-phase power law falls off as a power of N
    fits = {N: fit_logvar_powerlaw(pts) for N, pts in logvar_points.items()}
    sizes = sorted(fits)
    ln_n = np.log(sizes)
    for phase, expect in (("fractal", -0.75), ("localized", -0.72)):
        ln_a = np.log([fits[N][phase][0] for N in sizes])
        slope = np.polyfit(ln_n, ln_a, 1)[0]
        assert slope == pytest.approx(expect, abs=0.1)
