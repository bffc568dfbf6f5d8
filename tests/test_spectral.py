import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from krylovlab import (DosModel, EnsembleConfig, dos_closed_form, dos_from_lanczos,
                       eig_dense, eig_tridiagonal, generate_rp, householder_tridiagonalize,
                       r_statistics, spectral)
from krylovlab.spectral import ks_distance
from krylovlab.tridiag import TridiagonalForm
from krylovlab.experiments import _cell_rstat

from conftest import make_manifest
from oracles import sturm_eigenvalues, poisson_r_mean, surmise_r_mc


def test_eig_tridiagonal_1x1_returns_fresh_arrays():
    t = TridiagonalForm(np.array([0.7]), np.zeros(0))
    values = eig_tridiagonal(t)
    lam, U = eig_tridiagonal(t, want_vectors=True)
    assert values.tolist() == lam.tolist() == [0.7] and U.tolist() == [[1.0]]
    assert not np.shares_memory(values, t.a) and not np.shares_memory(lam, t.a)


def test_eig_tridiagonal_2x2():
    values = eig_tridiagonal(TridiagonalForm(np.zeros(2), np.array([1.0])))
    assert np.allclose(values, [-1.0, 1.0], atol=1e-14)


def test_eig_tridiagonal_3x3_chain():
    values = eig_tridiagonal(TridiagonalForm(np.zeros(3), np.ones(2)))
    assert np.allclose(values, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-14)


def test_eig_tridiagonal_against_sturm_8x8():
    rng = np.random.default_rng(77)
    a = rng.standard_normal(8)
    b = np.abs(rng.standard_normal(7)) + 0.1
    got = eig_tridiagonal(TridiagonalForm(a, b))
    assert np.max(np.abs(got - sturm_eigenvalues(a, b))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_tridiagonal_eigenvalues_match_sturm(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = np.abs(rng.standard_normal(n - 1)) + 1e-3
    t = TridiagonalForm(a, b)
    got = eig_tridiagonal(t)
    assert np.max(np.abs(got - sturm_eigenvalues(a, b))) < 1e-10
    # similarity invariance of the trace and of the Frobenius norm
    assert abs(np.sum(got) - np.sum(a)) < 1e-8 * n * (np.abs(a).max() + 2 * b.max())
    assert abs(np.sum(got**2) - (a @ a + 2 * b @ b)) < 1e-8 * (a @ a + 2 * b @ b + 1.0)


def test_eig_dense_vectors_are_orthonormal_eigenvectors():
    H = generate_rp(EnsembleConfig(32, 0.5, seed=9))
    values, V = eig_dense(H, want_vectors=True)
    assert np.max(np.abs(V.T @ V - np.eye(32))) < 1e-10
    resid = H @ V - V * values
    assert np.max(np.abs(resid)) < 1e-8 * np.linalg.norm(H, 2)


@pytest.mark.parametrize("N", [128, 512])
@pytest.mark.parametrize("gamma", [0.5, 3.0])
def test_eig_dense_equals_numpy_bit_for_bit(N, gamma):
    H = generate_rp(EnsembleConfig(N, gamma, seed=N + 1))
    assert np.array_equal(eig_dense(H), np.linalg.eigvalsh(H))
    vals, vecs = np.linalg.eigh(H)
    values, vectors = eig_dense(H, want_vectors=True)
    assert np.array_equal(values, vals)
    assert np.array_equal(vectors, vecs)


def test_r_statistics_equal_spacing():
    assert r_statistics(np.arange(5.0), window_fraction=1.0) == pytest.approx(1.0)


def test_r_statistics_central_window_excludes_edges():
    assert r_statistics(np.array([-100.0, 0.0, 1.0, 2.0, 100.0]), 0.5) == pytest.approx(1.0)


def test_r_statistics_degenerate_handling():
    assert r_statistics(np.array([0.0, 1.0, 1.0, 2.0]), 1.0) == 0.0
    with pytest.raises(ValueError):
        r_statistics(np.ones(6), 1.0)
    with pytest.raises(ValueError):
        r_statistics(np.arange(3.0), 0.5)


def test_r_statistics_poisson_spectrum():
    rng = np.random.default_rng(314)
    levels = np.cumsum(rng.exponential(size=1_000_001))
    assert r_statistics(levels, 1.0) == pytest.approx(poisson_r_mean(), abs=1e-3)


def test_r_statistics_goe_matches_surmise():
    m = make_manifest("rstat", (0.5,), (1000,), 500)
    _, _, summary = _cell_rstat(m, 0.5, 1000)
    r_mean = summary["aggregate"][0][2]
    assert r_mean == pytest.approx(surmise_r_mc(), abs=0.01)


def _profile(b_of_x, n=2000):
    x = np.arange(1, n) / n
    return np.column_stack([x, np.zeros(n - 1), b_of_x(x)])


def test_dos_quadrature_arcsine_law():
    prof = _profile(lambda x: np.full_like(x, 0.5))
    E = np.linspace(-0.9, 0.9, 181)
    rho = dos_from_lanczos(prof, E)
    expect = 1.0 / (np.pi * np.sqrt(1.0 - E**2))
    assert np.max(np.abs(rho - expect) / expect) < 0.01


def test_dos_quadrature_semicircle():
    prof = _profile(lambda x: np.sqrt(1.0 - x))
    E = np.linspace(-1.8, 1.8, 181)
    rho = dos_from_lanczos(prof, E)
    expect = np.sqrt(4.0 - E**2) / (2.0 * np.pi)
    assert np.max(np.abs(rho - expect) / expect) < 0.01


def test_dos_quadrature_gaussian():
    xi = 0.5
    prof = _profile(lambda x: xi * np.sqrt(-0.5 * np.log(x)), n=20000)
    E = np.linspace(-1.0, 1.0, 101)
    rho = dos_from_lanczos(prof, E)
    expect = np.exp(-(E**2) / (2.0 * xi**2)) / np.sqrt(2.0 * np.pi * xi**2)
    assert np.max(np.abs(rho - expect) / expect) < 0.02


def test_dos_quadrature_single_row_profile_held_constant():
    # one row has no slope to extrapolate: b stays 1 on [0, 1], an arcsine law
    rho = dos_from_lanczos(np.array([[0.5, 0.0, 1.0]]), np.array([0.0, 1.0]))
    assert rho[0] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-10)
    assert rho[1] == pytest.approx(0.18378, rel=1e-4)


def test_dos_quadrature_negative_extrapolation_is_clamped():
    # b^2 falls from 1 to 0.04 over the last step; extended linearly it would
    # reach -0.92 at x = 1, so the extension is clamped at 0
    prof = np.array([[0.25, 0.0, 1.0], [0.5, 0.0, 1.0], [0.75, 0.0, 0.2]])
    E = np.linspace(-2.5, 2.5, 51)
    rho = dos_from_lanczos(prof, E)
    assert np.all(np.isfinite(rho))
    assert np.all(rho >= 0.0)
    assert np.all(rho[np.abs(E) < 1.9] > 0.0)
    assert np.all(rho[np.abs(E) > 2.0] == 0.0)
    # at E = 0, rho = (1/pi) int dx / (2 b): 1/4 + 0.8/3.84 on the data and
    # 0.2/0.16 on the clamped extension, where b^2 falls from 0.04 to 0
    assert rho[25] == pytest.approx((0.25 + 0.8 / 3.84 + 1.25) / np.pi, rel=1e-3)


def _dos_nodes_per_call(profile, E_grid):
    """The DOS quadrature with its Gauss-Legendre nodes and sines computed on every
    call and every interval, as dos_from_lanczos did before it cached them."""
    xp, ap, b2p = profile[:, 0], profile[:, 1], profile[:, 2] ** 2
    b2_end = b2p[-1] + (b2p[-1] - b2p[-2]) * (1.0 - xp[-1]) / (xp[-1] - xp[-2])
    xp, ap, b2p = np.append(xp, 1.0), np.append(ap, ap[-1]), np.append(b2p, max(b2_end, 0.0))
    xs = np.linspace(0.0, 1.0, spectral.DOS_SCAN_POINTS)
    a_s, b2_s = np.interp(xs, xp, ap), np.interp(xs, xp, b2p)
    nodes, wts = np.polynomial.legendre.leggauss(spectral.DOS_THETA_NODES)
    theta = 0.5 * (nodes + 1.0) * (np.pi / 2.0)
    wts = wts * (np.pi / 4.0)
    out = np.zeros(len(E_grid))
    for iE, E in enumerate(E_grid):
        edges = spectral._interval_edges(xs, 4.0 * b2_s - (E - a_s) ** 2)
        for lo, hi in zip(edges[::2], edges[1::2]):
            x = lo + (hi - lo) * np.sin(theta) ** 2
            Wx = 4.0 * np.interp(x, xp, b2p) - (E - np.interp(x, xp, ap)) ** 2
            good = Wx > 0
            out[iE] += float(np.sum(wts[good] * (hi - lo) * np.sin(2.0 * theta[good])
                                    / np.sqrt(Wx[good])))
    return out / np.pi


@pytest.mark.parametrize("gamma", [0.5, 3.0])
def test_dos_quadrature_with_cached_nodes_gives_the_bits_of_nodes_computed_per_call(gamma):
    out = [householder_tridiagonalize(generate_rp(EnsembleConfig(256, gamma, seed=seed)))
           for seed in range(4)]
    x = np.arange(1, 256) / 256
    profile = np.column_stack([x, np.mean([t.a for t in out], axis=0)[:255],
                               np.mean([t.b for t in out], axis=0)])
    E = np.linspace(-4.0, 4.0, 401)
    assert np.array_equal(dos_from_lanczos(profile, E), _dos_nodes_per_call(profile, E))


def test_dos_quadrature_validation():
    with pytest.raises(ValueError):
        dos_from_lanczos(np.empty((0, 3)), np.array([0.0]))


def test_dos_closed_form_semicircle_center():
    assert dos_closed_form(DosModel(1.0, 0.0), 0.0) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_dos_closed_form_vanishes_at_edge():
    model = DosModel(0.25, 0.5)
    assert dos_closed_form(model, model.half_width) == 0.0
    assert dos_closed_form(model, -model.half_width) == 0.0
    assert dos_closed_form(model, model.half_width + 1.0) == 0.0


@pytest.mark.parametrize("p,q", [(1.0, 0.0), (0.25, 0.5), (0.125, 0.95)])
def test_dos_closed_form_normalization(p, q):
    model = DosModel(p, q)
    E = np.linspace(-model.half_width, model.half_width, 200_001)
    total = np.trapezoid(dos_closed_form(model, E), E)
    assert abs(total - 1.0) < 1e-6


def test_dos_closed_form_gaussian_branch():
    with pytest.raises(ValueError):
        DosModel(1.0, 1.0)
    with pytest.raises(ValueError):
        DosModel(-1.0, 0.0)
    p = 0.125
    rho = dos_closed_form(DosModel(p, 0.9995), 0.0)
    gauss0 = 1.0 / np.sqrt(4.0 * np.pi * p)
    assert rho == pytest.approx(gauss0, rel=1e-12)
    # direct formula just below the branch agrees with the limit
    rho_direct = dos_closed_form(DosModel(p, 0.998), 0.0)
    assert rho_direct == pytest.approx(gauss0, rel=5e-3)


def test_ks_distance_self_consistency():
    rng = np.random.default_rng(8)
    samples = rng.normal(size=200_000)
    E = np.linspace(-5.0, 5.0, 2001)
    rho = np.exp(-(E**2) / 2.0) / np.sqrt(2.0 * np.pi)
    assert ks_distance(rho, E, samples) < 0.005
    # wrong-width model is far away
    rho_bad = np.exp(-(E**2) / 8.0) / np.sqrt(8.0 * np.pi)
    assert ks_distance(rho_bad, E, samples) > 0.05
