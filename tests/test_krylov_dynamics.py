import numpy as np
import pytest

from krylovlab import (EnsembleConfig, TridiagonalForm,
                       build_tfd_krylov, generate_rp, lanczos_tridiagonalize, propagate)
from krylovlab.krylov_dynamics import (build_time_grid, peak_fields, plateau_drift,
                                       smoothed_peak_flag)
from krylovlab import krylov_dynamics
from krylovlab.spectral import eig_dense

from oracles import amplitudes_at, refine_peak, scaled_profile, tfd_matrix_four_temporaries


def two_level_chain():
    return TridiagonalForm(np.zeros(2), np.ones(1))


def tfd_state(H, beta):
    """Reference TFD state V w in the computational basis, w_m ~ e^(-beta (E_m - E_0) / 2)."""
    lam, V = np.linalg.eigh(H)
    w = np.exp(-0.5 * beta * (lam - lam[0]))
    v0 = V @ (w / np.linalg.norm(w))
    return v0 / np.linalg.norm(v0)


def test_zero_temperature_tfd_collapses_to_ground_state():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    H = (A + A.T) / 2.0
    t = build_tfd_krylov(H, beta=1e4)
    lam = eig_dense(H)
    # the Krylov chain of an eigenstate terminates immediately
    assert len(t.a) == 1
    assert t.a[0] == pytest.approx(lam[0], abs=1e-8)


@pytest.mark.parametrize("a0", [0.0, -1.3])
def test_a_one_vector_chain_never_spreads(a0):
    # the state stays on |K_0>: K_S is exactly 0, and |psi_0|^2 = cos^2 + sin^2 of
    # a0 t is 1 to one rounding (exactly 1 at a0 = 0)
    t = TridiagonalForm(np.array([a0]), np.zeros(0))
    ks, residual = propagate(t, build_time_grid(1.0, 64))
    assert np.all(ks == 0.0)
    assert residual <= (0.0 if a0 == 0.0 else np.finfo(float).eps)


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_tfd_chain_matches_lanczos_from_the_tfd_state(beta):
    H = generate_rp(EnsembleConfig(64, 0.0, seed=11))
    t = build_tfd_krylov(H, beta=beta)
    tl = lanczos_tridiagonalize(H, v0=tfd_state(H, beta))
    assert len(t.a) == len(tl.a) == 64
    assert np.max(np.abs(t.a - tl.a)) < 1e-10
    assert np.max(np.abs(t.b - tl.b)) < 1e-10


def test_tfd_chain_near_the_ground_state_keeps_its_small_couplings():
    # w = (1, 1e-9, 1e-18, 1e-27)/|w|: w[0] rounds to 1, yet the chain goes on
    H = np.diag([0.0, 1.0, 2.0, 3.0])
    beta = 2.0 * np.log(1e9)
    t = build_tfd_krylov(H, beta=beta)
    tl = lanczos_tridiagonalize(H, v0=tfd_state(H, beta))
    assert len(t.a) == len(tl.a) == 4
    assert np.allclose(t.b, tl.b, rtol=1e-12, atol=0.0)
    assert np.allclose(t.b, [1e-9, 2e-9, 3e-9], rtol=1e-12, atol=0.0)


def test_tfd_goe_profile_follows_sqrt_law():
    N, reals = 500, 20
    profs = []
    for s in range(7000, 7000 + reals):
        H = generate_rp(EnsembleConfig(N, 0.0, seed=s))
        t = build_tfd_krylov(H, beta=0.0)
        profs.append(scaled_profile(t)[:, 1])
    x = np.arange(1, N) / N
    mean_b = np.mean(profs, axis=0)
    win = (x >= 0.05) & (x <= 0.95)
    ref = np.sqrt(1.0 - x[win])
    c = float(mean_b[win] @ ref / (ref @ ref))
    rel_rms = np.sqrt(np.mean((mean_b[win] / (c * ref) - 1.0) ** 2))
    assert rel_rms < 0.03


def test_two_level_rabi_oscillation():
    # on two sites K_S is the occupation of |K_1>, and a unitary evolution
    # leaves the rest, cos^2 t, on |K_0>
    times = np.linspace(0.0, 3.0, 60)
    ks, residual = propagate(two_level_chain(), times)
    assert np.allclose(ks, np.sin(times) ** 2, atol=1e-12)
    assert residual <= 1e-13


def test_time_zero_returns_the_initial_state():
    ks, residual = propagate(two_level_chain(), np.array([0.0]))
    assert ks[0] == pytest.approx(0.0, abs=1e-15)
    assert residual <= 1e-13


def test_early_growth_is_quadratic_in_b1():
    H = generate_rp(EnsembleConfig(32, 0.0, seed=3))
    t = lanczos_tridiagonalize(H)
    psi0 = np.eye(32)[0]
    b1 = t.b[0]
    times = np.array([0.25, 0.5, 1.0]) * 1e-3 / b1
    ks = (np.abs(amplitudes_at(t, psi0, times)) ** 2) @ np.arange(32.0)
    assert np.allclose(ks / (b1**2 * times**2), 1.0, atol=1e-4)


def test_evolution_is_unitary_and_conserves_energy():
    H = generate_rp(EnsembleConfig(64, 1.0, seed=17))
    t = build_tfd_krylov(H, beta=0.0)
    dim = len(t.a)
    psi0 = np.zeros(dim)
    psi0[0] = 1.0
    times = np.geomspace(0.1, 5e4, 200)
    amps = amplitudes_at(t, psi0, times)
    norms = (np.abs(amps) ** 2).sum(axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    T = np.diag(t.a) + np.diag(t.b, 1) + np.diag(t.b, -1)
    energies = np.einsum("ti,ij,tj->t", amps.conj(), T, amps).real
    e0 = psi0 @ T @ psi0
    assert np.max(np.abs(energies - e0)) < 1e-9 * max(abs(e0), 1.0)


def test_spread_plateau_matches_maximal_mixing(spread_cells):
    # infinite-temperature saturation value (N-1)/(2N): the state forgets
    # everything except dimension
    _, _, summary = spread_cells[0.0]
    plateau = summary["aggregate"][0][4]
    N = 500
    target = (N - 1) / (2.0 * N)
    assert abs(plateau / N - target) / target < 0.02


def test_peak_presence_tracks_the_phase(spread_cells):
    for g, expect in ((0.5, True), (1.5, True), (3.0, False)):
        row = summary_row(spread_cells, g)
        assert bool(row[5]) is expect


def test_peak_fraction_is_sharp_across_realizations(spread_cells):
    assert summary_row(spread_cells, 0.5)[6] > 0.9
    assert summary_row(spread_cells, 1.5)[6] > 0.9
    assert summary_row(spread_cells, 3.0)[6] < 0.1


def test_peak_value_decreases_towards_localization(spread_cells):
    v05 = summary_row(spread_cells, 0.5)[2]
    v15 = summary_row(spread_cells, 1.5)[2]
    v30 = summary_row(spread_cells, 3.0)[2]
    assert v05 >= v15 >= v30


def test_saturation_time_grows_towards_localization(spread_cells):
    times = [summary_row(spread_cells, g)[3] for g in (0.0, 0.5, 1.5, 3.0)]
    assert times[0] < times[1] < times[2] < times[3]


def test_ensemble_means_reach_flat_plateaus(spread_cells):
    for g, (times, ks, _) in spread_cells.items():
        assert plateau_drift(times, ks) < 0.01


def summary_row(spread_cells, gamma):
    return spread_cells[gamma][2]["aggregate"][0]


def test_detect_peak_curve_on_synthetic_traces():
    times = np.arange(100.0)
    flat = np.ones(100)
    assert plateau_drift(times, flat) == 0.0
    has_peak, value, _, _ = peak_fields(times, flat)
    assert has_peak is False and value == 1.0
    bump = flat.copy()
    bump[30] = 1.5
    assert plateau_drift(times, bump) == 0.0
    has_peak, value, when, _ = peak_fields(times, bump)
    assert has_peak is True and value == 1.5 and when == 30.0


def test_detect_peak_curve_rejects_unsaturated_traces():
    times = np.arange(100.0)
    assert plateau_drift(times, np.linspace(0.0, 1.0, 100)) > 0.01   # still rising


def test_smoothed_peak_flag_ignores_noise():
    rng = np.random.default_rng(11)
    times = np.arange(400.0)
    flat = 1.0 + 0.005 * rng.standard_normal(400)
    assert smoothed_peak_flag(times, flat) is False
    bumped = flat.copy()
    bumped[90:140] += 0.2
    assert smoothed_peak_flag(times, bumped) is True


def test_refine_peak_sharpens_the_rabi_maximum():
    t = two_level_chain()
    times = np.linspace(0.5, 2.5, 21)
    ks, _ = propagate(t, times)
    has_peak, _, peak_time, _ = peak_fields(times, ks)
    assert has_peak
    value, when = refine_peak(t, times, peak_time)
    assert value == pytest.approx(1.0, abs=1e-3)
    assert when == pytest.approx(np.pi / 2.0, abs=5e-3)


def test_build_time_grid_brackets_the_dynamics():
    grid = build_time_grid(2.0, 500)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx(1e-2 * 500 / 4.0, rel=1e-12)
    assert grid[-1] == pytest.approx(10.0 * 2.0 * np.pi * 500 / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        build_time_grid(0.0, 500)


def test_input_validation():
    with pytest.raises(ValueError):
        propagate(two_level_chain(), np.array([1.0, 0.5]))         # not ascending
    with pytest.raises(ValueError):
        build_tfd_krylov(np.eye(4), beta=-1.0)


@pytest.mark.parametrize("gamma", [0.0, 1.5, 3.0])
def test_real_propagation_matches_the_complex_oracle(gamma):
    t = build_tfd_krylov(generate_rp(EnsembleConfig(128, gamma, seed=9)), beta=0.0)
    times = build_time_grid(t.b[0], 128)
    ks, residual = propagate(t, times)
    occ = np.abs(amplitudes_at(t, np.eye(len(t.a))[0], times)) ** 2
    ks_ref = occ @ np.arange(len(t.a), dtype=float)
    assert np.max(np.abs(ks - ks_ref) / ks_ref) < 1e-13
    unitarity = float(np.max(np.abs(occ.sum(axis=1) - 1.0)))
    assert residual <= 1e-13
    assert abs(residual - unitarity) <= 1e-13


@pytest.mark.parametrize("beta", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("N", [2, 3, 63, 64, 65, 129, 512])
def test_tfd_matrix_in_row_blocks_has_the_bits_of_the_whole_matrix_form(monkeypatch, N, beta):
    # sizes on both sides of the block edges; the matrix sytrd reduces is captured
    seen = []
    reduce = krylov_dynamics.householder_tridiagonalize
    monkeypatch.setattr(krylov_dynamics, "householder_tridiagonalize",
                        lambda M, **kw: (seen.append(M.copy()), reduce(M, **kw))[1])
    H = generate_rp(EnsembleConfig(N, 1.5, seed=N))
    build_tfd_krylov(H, beta=beta)
    assert seen[0].tobytes() == tfd_matrix_four_temporaries(eig_dense(H), beta).tobytes()


def test_tfd_matrix_is_built_without_n_by_n_temporaries():
    # the whole-matrix form peaked at 6.1 MiB at N = 512 (M and its N x N temporaries),
    # the row blocks at 3.0 MiB
    import tracemalloc
    H = generate_rp(EnsembleConfig(512, 1.5, seed=1))
    build_tfd_krylov(H, beta=0.0)                   # LAPACK wrappers resolved outside the trace
    tracemalloc.start()
    try:
        build_tfd_krylov(H, beta=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
