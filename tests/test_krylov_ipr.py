from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import block_diag

from krylovlab import (EnsembleConfig, TridiagonalForm, experiments, fit_d2, generate_rp,
                       householder_tridiagonalize, krylov_ipr, lanczos_tridiagonalize)
from krylovlab.krylov_ipr import KRule, overlap_recurrence, pick_k
from krylovlab.spectral import eig_dense

from oracles import (copying_ipr, eigenstate_ipr, overlaps_by_projection, porter_thomas_ipr_mc,
                     read_csv)


def random_symmetric(n, seed):
    raw = np.random.default_rng(seed).standard_normal((n, n))
    return (raw + raw.T) / 2.0


def d2_records(ipr_summaries, gamma, sizes):
    """(sizes, last-vector IPR means) at one gamma, the arguments of fit_d2."""
    return sizes, [ipr_summaries[(gamma, N, pick_k(N, KRule.LAST_VECTOR))][0] for N in sizes]


def test_basis_vector_is_fully_localized():
    basis = np.eye(8)
    for ell in (1, 2, 3):
        assert krylov_ipr(basis, 3, ell) == 1.0


def test_uniform_vector_is_fully_delocalized():
    N = 64
    basis = np.full((N, 1), 1.0 / np.sqrt(N))
    assert krylov_ipr(basis, 0, 2) == pytest.approx(1.0 / N, rel=1e-12)


def test_first_moment_is_normalization():
    t = lanczos_tridiagonalize(random_symmetric(48, 5))
    for k in (0, 10, 47):
        assert krylov_ipr(t.basis, k, 1) == pytest.approx(1.0, abs=1e-10)


def test_krylov_ipr_validation():
    basis = np.eye(4)
    with pytest.raises(ValueError):
        krylov_ipr(basis, 0, 0)
    with pytest.raises(ValueError):
        krylov_ipr(basis, 4, 2)
    with pytest.raises(ValueError):
        krylov_ipr(2.0 * basis, 0, 2)


def test_eigenstate_ipr_diagonal_matrix():
    _, vectors = eig_dense(np.diag([3.0, -1.0, 0.5, 2.0]), want_vectors=True)
    for m in range(4):
        assert eigenstate_ipr(vectors, m, 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        eigenstate_ipr(eig_dense(np.eye(4)), 0, 2)


def test_goe_mid_eigenvector_is_porter_thomas():
    N = 1024
    vals = []
    for seed in range(300, 305):
        _, vectors = eig_dense(generate_rp(EnsembleConfig(N, 0.0, seed=seed)),
                               want_vectors=True)
        vals.append(eigenstate_ipr(vectors, N // 2, 2))
    assert np.mean(vals) == pytest.approx(porter_thomas_ipr_mc(N), rel=0.15)


def test_eigenstate_fractal_dimension_tracks_gamma():
    # mid-spectrum eigenvector IPR decays as N^-(2 - gamma) in the fractal phase
    gamma = 1.5
    sizes = {256: 12, 512: 10, 1024: 6}
    means = []
    for N, reals in sizes.items():
        vals = []
        for i in range(reals):
            H = generate_rp(EnsembleConfig(N, gamma, seed=40000 + 97 * N + i))
            vals.append(eigenstate_ipr(eig_dense(H, want_vectors=True)[1], N // 2, 2))
        means.append(np.mean(vals))
    slope = np.polyfit(np.log(list(sizes)), np.log(means), 1)[0]
    assert -slope == pytest.approx(0.5, abs=0.15)


def test_pick_k_rules():
    assert pick_k(512, KRule.LAST_VECTOR) == 511
    assert pick_k(512, KRule.MID_VECTOR) == 256


def test_record_and_exponent_validation():
    sizes = (128, 256, 512)
    with pytest.raises(ValueError):
        fit_d2(sizes, (2.0, 0.05, 0.02))        # above 1
    with pytest.raises(ValueError):
        fit_d2(sizes, (1e-6, 0.05, 0.02))       # below 1/N
    fit_d2(sizes, (1.0 / 128, 0.05, 1.0))       # both ends of [1/N, 1] are admitted


def test_fit_d2_input_checks():
    with pytest.raises(ValueError):
        fit_d2((128, 256), (0.1, 0.05))
    with pytest.raises(ValueError):
        fit_d2((128, 256, 256), (0.1, 0.05, 0.05))      # 3 IPRs at 2 distinct N


def test_fit_d2_recovers_synthetic_slope():
    sizes = np.array([128, 256, 512, 1024])
    d2, stderr = fit_d2(sizes, 2.0 * sizes**-0.7)
    assert d2 == pytest.approx(0.7, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_d2_across_the_phase_diagram(ipr_summaries):
    sizes = (256, 512, 1024, 2048)
    for gamma, center, tol in ((0.5, 1.0, 0.15), (1.5, 0.5, 0.15), (3.0, 0.0, 0.1)):
        d2, _ = fit_d2(*d2_records(ipr_summaries, gamma, sizes))
        assert d2 == pytest.approx(center, abs=tol)


def test_d2_table_fits_one_mean_ipr_per_size(tmp_path):
    # at N = 2 both k rules pick k = 1; each fit still takes that cell's IPR once
    m = experiments.RunManifest("ipr", (0.5,), (2, 16, 32), 3, output_dir=str(tmp_path))
    assert experiments.run(m) == 0
    _, agg = read_csv(tmp_path / "aggregate.csv")
    _, d2_rows = read_csv(tmp_path / "d2.csv")
    for i, row in enumerate(d2_rows):
        d2, stderr = fit_d2(m.N_grid, [float(agg[2 * j + i][4]) for j in range(3)])
        assert row[1] == ("last", "mid")[i]
        assert float(row[2]) == pytest.approx(d2, rel=1e-6)
        assert float(row[3]) == pytest.approx(stderr, rel=1e-6)


def test_localized_krylov_ipr_is_size_independent(ipr_summaries):
    sizes = (256, 512, 1024)
    d2, _ = fit_d2(*d2_records(ipr_summaries, 2.2, sizes))
    assert abs(d2) < 0.3
    iprs = [ipr_summaries[(2.2, N, N - 1)][0] for N in sizes]
    assert max(iprs) / min(iprs) < 1.5


def test_last_vector_is_most_sensitive_to_gamma(ipr_summaries):
    # the late-chain vectors separate the phases much more than mid-chain ones
    def span(k_of_n):
        vals = [np.log(ipr_summaries[(g, 512, k_of_n(512))][0])
                for g in (0.5, 1.5, 3.0)]
        return max(vals) - min(vals)

    assert span(lambda N: N - 1) > span(lambda N: N // 2)


def test_alternating_chain_overlaps():
    t = TridiagonalForm(np.zeros(4), np.ones(3))
    eta = overlap_recurrence(t, 0.0, 1.0)
    assert np.allclose(eta, [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_odd_overlaps_vanish_at_zero_energy():
    rng = np.random.default_rng(9)
    b = rng.uniform(0.5, 2.0, size=8)
    t = TridiagonalForm(np.zeros(9), b)
    eta = overlap_recurrence(t, 0.0, 0.7)
    assert np.allclose(eta[1::2], 0.0, atol=1e-14)
    even = eta[0::2]
    assert np.all(even[:-1] * even[1:] < 0)     # alternating signs


def test_overlap_recurrence_rejects_broken_chain():
    with pytest.raises(ValueError):
        overlap_recurrence(TridiagonalForm(np.zeros(3), np.array([1.0, 0.0])), 0.0, 1.0)


def test_recurrence_matches_projection():
    H = random_symmetric(32, 123)
    t = lanczos_tridiagonalize(H)
    values, vectors = eig_dense(H, want_vectors=True)
    proj = overlaps_by_projection(t, vectors)
    for m in (10, 16, 21):
        eta = overlap_recurrence(t, values[m], proj[m, 0])
        assert np.allclose(eta, proj[m], atol=1e-8)


def test_projection_requires_stored_data():
    H = random_symmetric(8, 4)
    t = lanczos_tridiagonalize(H)
    with pytest.raises(ValueError):
        overlaps_by_projection(TridiagonalForm(t.a, t.b), eig_dense(H, want_vectors=True)[1])
    with pytest.raises(ValueError):
        overlaps_by_projection(t, eig_dense(H))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 64), seed=st.integers(0, 10**6), ell=st.integers(1, 3))
def test_ipr_consistent_between_bases(n, seed, ell):
    # reconstructing phi_k from its eigenstate overlaps must reproduce the IPR
    H = random_symmetric(n, seed)
    t = lanczos_tridiagonalize(H)
    _, vectors = eig_dense(H, want_vectors=True)
    proj = overlaps_by_projection(t, vectors)
    k = min(t.basis.shape[1] - 1, n // 2 + 1)
    rebuilt = vectors @ proj[:, k]
    direct = krylov_ipr(t.basis, k, ell)
    assert abs(np.sum(np.abs(rebuilt) ** (2 * ell)) - direct) < 1e-8


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 48), seed=st.integers(0, 10**6))
def test_overlap_completeness(n, seed):
    H = random_symmetric(n, seed)
    t = lanczos_tridiagonalize(H)
    proj = overlaps_by_projection(t, eig_dense(H, want_vectors=True)[1])
    assert np.allclose((proj**2).sum(axis=0), 1.0, atol=1e-8)


def test_ipr_cell_counts_a_chain_that_stops_early(monkeypatch, tmp_path):
    # e1 spans an invariant 3 x 3 block: Lanczos from e1 stops after 3 vectors
    H = block_diag(random_symmetric(3, 1), random_symmetric(5, 2))
    monkeypatch.setattr(experiments, "generate_rp", lambda config, out=None: H)
    m = experiments.RunManifest("ipr", (1.0,), (8,), 1, output_dir=str(tmp_path))
    _, rows, summary = experiments._cell_ipr(m, 1.0, 8)
    assert summary["checks"]["lanczos_truncations"]["value"] == 1
    assert summary["checks"]["krylov_residual"]["value"] < 1e-13
    t = lanczos_tridiagonalize(H)
    assert len(t.a) == 3
    assert rows[0][1] == pytest.approx(krylov_ipr(t.basis, 2, 2), abs=1e-12)
    assert rows[0][2] == pytest.approx(krylov_ipr(t.basis, pick_k(3, KRule.MID_VECTOR), 2),
                                       abs=1e-12)


def test_ipr_cell_counts_every_chain_that_stops_early(monkeypatch, tmp_path):
    H = block_diag(random_symmetric(3, 1), random_symmetric(5, 2))
    # H is every realization's draw
    monkeypatch.setattr(experiments, "generate_rp", lambda config, out=None: H)
    m = experiments.RunManifest("ipr", (1.0,), (8,), 2, output_dir=str(tmp_path))
    _, rows, summary = experiments._cell_ipr(m, 1.0, 8)
    assert summary["checks"]["lanczos_truncations"]["value"] == 2
    assert rows[0][1:] == rows[1][1:]


def columns_by_single_reflectors(t, cols, order):
    """Krylov columns `cols` of a Householder form, with its reflectors applied to the
    unit vectors one at a time in `order`; reflector j acts on rows j+1.., with
    v = (1, c[j+2:, j]).  Q = H_0 H_1 ... H_{N-2}, so the right order is descending."""
    c, tau, e = t.reflectors
    E = np.eye(len(c))[:, cols]
    for j in order:
        v = np.concatenate([[1.0], c[j + 2:, j]])
        E[j + 1:] -= tau[j] * np.outer(v, v @ E[j + 1:])
    return E * np.cumprod(np.concatenate([[1.0], np.where(e < 0, -1.0, 1.0)]))[cols]


def test_krylov_residual_fails_a_wrong_tau_sign_fix_up_reflector_order_or_column():
    N = 64
    H = generate_rp(EnsembleConfig(N, 1.5, seed=12))
    t = householder_tridiagonalize(H)
    norm = np.linalg.norm(H)
    ks = (N - 1, pick_k(N, KRule.MID_VECTOR))
    cols = [31, 32, 33, 62, 63]
    Q = t.columns(cols)
    assert np.max(np.abs(Q - t.columns(range(N))[:, cols])) < 1e-15
    assert np.max(np.abs(Q - columns_by_single_reflectors(t, cols, range(N - 2, -1, -1)))) < 1e-14
    assert experiments._krylov_residual(H, t, cols, Q, ks, norm) < 1e-13
    tol = 1e-10                                     # the ipr cell's tolerance

    c, tau, e = t.reflectors
    wrong_tau = tau.copy()
    wrong_tau[5] *= 1.0 + 1e-6
    bad = replace(t, reflectors=(c, wrong_tau, e)).columns(cols)
    assert experiments._krylov_residual(H, t, cols, bad, ks, norm) > tol

    # without the sign fix-up the IPRs are the same, but wherever sytrd returned a
    # negative off-diagonal next to k the relation no longer holds with b >= 0;
    # this matrix has one (where all are positive, the columns only change sign together)
    unsigned = replace(t, reflectors=(c, tau, np.abs(e))).columns(cols)
    assert all(krylov_ipr(unsigned, j, 2) == pytest.approx(krylov_ipr(Q, j, 2), rel=1e-14)
               for j in range(len(cols)))
    assert np.any(e[[31, 32, 62]] < 0)
    assert experiments._krylov_residual(H, t, cols, unsigned, ks, norm) > tol

    permuted = [*range(N - 2, 1, -1), 0, 1]        # reflectors 0 and 1 swapped
    bad = columns_by_single_reflectors(t, cols, permuted)
    assert experiments._krylov_residual(H, t, cols, bad, ks, norm) > tol
    bad = t.columns([n - 1 for n in cols])         # each column from the index below
    assert experiments._krylov_residual(H, t, cols, bad, ks, norm) > tol


@pytest.mark.parametrize("N", [2, 3, 5, 127, 128, 129, 255, 256, 257, 1000])
def test_the_ipr_map_restores_h_and_returns_the_bits_of_the_copying_map(N):
    # the map reduces H in place and restores it from the triangle sytrd never reads;
    # sizes on both sides of the 64-wide restore tiles, and gamma 40 and 800 give
    # truncated chains and off-diagonals that underflow to +-0.0
    for gamma in (0.0, 1.5, 3.0, 40.0, 800.0):
        H = generate_rp(EnsembleConfig(N, gamma, seed=N))
        drawn = H.tobytes()
        with experiments._blas_threads(N):
            expect = copying_ipr(H)
            got = experiments._w_ipr(H)
        assert H.tobytes() == drawn, gamma
        assert [np.float64(v).tobytes() for v in got] == \
            [np.float64(v).tobytes() for v in expect], gamma


def test_the_ipr_map_makes_no_copy_of_h():
    # sytrd on a copy of H peaked at 2189 KiB here; in place, the map stays under 1 MiB
    import tracemalloc
    H = generate_rp(EnsembleConfig(512, 1.5, seed=5))
    experiments._w_ipr(H)                           # scipy loaded outside the trace
    tracemalloc.start()
    try:
        experiments._w_ipr(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
