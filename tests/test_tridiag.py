import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from krylovlab import (EnsembleConfig, generate_rp,
                       householder_tridiagonalize, lanczos_tridiagonalize, eig_tridiagonal)
from krylovlab.ensembles import realization_seeds
from krylovlab.tridiag import TridiagonalForm

from oracles import (basis_orthogonality_residual, charpoly_eigenvalues,
                     charpoly_eigenvalues_full, copying_columns, scaled_profile,
                     tridiagonal_matrix)


def random_symmetric(N, seed):
    raw = np.random.default_rng(seed).standard_normal((N, N))
    return (raw + raw.T) / 2.0


def test_householder_passes_through_tridiagonal_input():
    a = np.array([0.3, -1.2, 0.7, 2.0])
    b = np.array([1.5, 0.2, 0.9])
    H = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    t = householder_tridiagonalize(H)
    assert np.allclose(t.a, a, atol=1e-14)
    assert np.allclose(t.b, b, atol=1e-14)


def test_householder_2x2_swap():
    t = householder_tridiagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(t.a, [0.0, 0.0])
    assert np.array_equal(t.b, [1.0])


def test_householder_5x5_against_charpoly_roots():
    H = random_symmetric(5, 42)
    t = householder_tridiagonalize(H)
    got = eig_tridiagonal(t)
    expect = charpoly_eigenvalues(t.a, t.b)
    assert np.max(np.abs(got - expect)) < 1e-10
    direct = charpoly_eigenvalues_full(H)
    assert np.max(np.abs(got - direct)) < 1e-10


def test_householder_in_place_gives_the_bits_of_the_copying_call():
    H = generate_rp(EnsembleConfig(200, 1.5, seed=4))
    kept = householder_tridiagonalize(H)
    work = H.copy()
    t = householder_tridiagonalize(work, overwrite=True)
    assert np.array_equal(t.a, kept.a) and np.array_equal(t.b, kept.b)
    assert np.array_equal(t.columns([0, 99, 199]), kept.columns([0, 99, 199]))
    assert np.shares_memory(t.reflectors[0], work)      # reduced in place: no N x N copy
    assert not np.array_equal(work, H)
    fortran = np.asfortranarray(H)                      # not C order: copied, left as it was
    t = householder_tridiagonalize(fortran, overwrite=True)
    assert np.array_equal(t.b, kept.b) and np.array_equal(fortran, H)


@pytest.mark.parametrize("N", [2, 3, 16, 145, 256, 512, 1024])
def test_columns_from_the_reflectors_in_place_give_the_bits_of_the_copy(N):
    t = householder_tridiagonalize(generate_rp(EnsembleConfig(N, 1.5, seed=N)))
    ks = range(N) if N <= 256 else [0, 1, N // 2, N - 2, N - 1]
    assert t.columns(ks).tobytes() == copying_columns(t, ks).tobytes()


def test_columns_make_no_copy_of_the_reflectors():
    # the N x N copy of c[1:, :N-1] took 8 MiB at N = 1024; without it the call peaks at 0.11 MiB
    import tracemalloc
    t = householder_tridiagonalize(generate_rp(EnsembleConfig(1024, 1.5, seed=1)))
    t.columns([0, 1])                               # LAPACK wrappers resolved outside the trace
    tracemalloc.start()
    try:
        t.columns([0, 100, 500])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_in_place_reduction_masks_no_matrix():
    # np.isfinite over the whole H took an N^2 bool mask, 257 KiB in all at N = 512;
    # checked in blocks, sytrd's workspace sets the peak
    import tracemalloc
    H = generate_rp(EnsembleConfig(512, 1.5, seed=2))
    householder_tridiagonalize(H.copy(), overwrite=True)   # scipy loaded outside the trace
    tracemalloc.start()
    try:
        householder_tridiagonalize(H, overwrite=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 192 * 2**10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(2, 2), (1, 4), (4, 1)])    # diagonal, C-upper, C-lower
def test_every_entry_must_be_finite_the_triangle_sytrd_never_reads_too(bad, where):
    H = random_symmetric(300, 3)        # more entries than one block of the check
    H[where] = bad
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        householder_tridiagonalize(H)
    H[where] = H[where[::-1]]
    H[-1, -2] = bad                     # in the check's last block
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        householder_tridiagonalize(H, overwrite=True)


def test_the_largest_and_the_smallest_finite_entries_are_accepted():
    H = np.diag([1.7e308, -1.7e308, 5e-324, -5e-324])
    H[3, 0], H[2, 1] = -1.7e308, 5e-324     # C-lower: checked, never read by sytrd
    t = householder_tridiagonalize(H)
    assert np.array_equal(t.a, np.diag(H)) and np.array_equal(t.b, np.zeros(3))


def test_lanczos_identity_terminates_at_one_step():
    t = lanczos_tridiagonalize(np.eye(4))
    assert t.a.shape == (1,)
    assert t.a[0] == pytest.approx(1.0, abs=1e-14)
    assert t.b.shape == (0,)


def test_lanczos_eigenvector_start_terminates():
    H = np.diag([3.0, 1.0, -2.0])
    t = lanczos_tridiagonalize(H)
    assert t.a.shape == (1,)
    assert t.a[0] == pytest.approx(3.0)


def test_lanczos_matches_householder_6x6():
    H = random_symmetric(6, 7)
    th = householder_tridiagonalize(H)
    tl = lanczos_tridiagonalize(H)
    assert np.max(np.abs(th.a - tl.a)) < 1e-8
    assert np.max(np.abs(th.b - tl.b)) < 1e-8


def test_scaled_profile_definition():
    t = TridiagonalForm(np.zeros(4), np.array([3.0, 2.0, 1.0]))
    prof = scaled_profile(t)
    assert np.array_equal(prof, [[0.25, 3.0], [0.5, 2.0], [0.75, 1.0]])


def test_goe_mean_profile_is_sqrt_law(mean_profiles):
    x, _, b, _, _ = mean_profiles[0.0]
    w = (x >= 0.05) & (x <= 0.95)
    ref = np.sqrt(1.0 - x[w])
    c = np.dot(ref, b[w]) / np.dot(ref, ref)
    rms = np.sqrt(np.mean(((b[w] - c * ref) / b[w]) ** 2))
    assert rms < 0.03


def test_mean_a_vanishes_with_realizations():
    # ensemble symmetry: a_n averages to zero; pooled over n and realizations
    reals, N = 400, 64
    acc = np.zeros(N)
    acc2 = np.zeros(N)
    for s in realization_seeds(21, reals, 0, N):
        t = householder_tridiagonalize(generate_rp(EnsembleConfig(N, 0.0, seed=int(s))))
        acc += t.a
        acc2 += t.a**2
    mean_n = acc / reals
    var_n = acc2 / reals - mean_n**2
    se_n = np.sqrt(var_n / reals)
    pooled = mean_n.mean()
    pooled_se = np.sqrt(var_n.sum()) / (N * np.sqrt(reals))
    assert abs(pooled) < 4.0 * pooled_se
    assert np.mean(np.abs(mean_n) > 3.0 * se_n) < 0.02


def test_basis_reproduces_coefficients():
    H = random_symmetric(40, 11)
    t = lanczos_tridiagonalize(H)
    assert basis_orthogonality_residual(t.basis) < 1e-10
    T = t.basis.T @ H @ t.basis
    scale = 1e-8 * np.linalg.norm(H, 2)
    assert np.max(np.abs(np.diag(T) - t.a)) < scale
    assert np.max(np.abs(np.diag(T, 1) - t.b)) < scale
    off = T - np.diag(np.diag(T)) - np.diag(np.diag(T, 1), 1) - np.diag(np.diag(T, -1), -1)
    assert np.max(np.abs(off)) < scale


@pytest.mark.parametrize("N", [2, 5, 17, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_householder_basis_matches_lanczos_columns(N, seed):
    H = random_symmetric(N, seed)
    th = householder_tridiagonalize(H)
    basis = th.columns(range(N))
    tl = lanczos_tridiagonalize(H)
    assert tl.basis.shape == basis.shape == (N, N)
    signs = np.sign(np.sum(basis * tl.basis, axis=0))
    assert np.max(np.abs(basis * signs - tl.basis)) < 1e-10
    assert np.max(np.abs(basis.T @ basis - np.eye(N))) <= 1e-13
    T = basis.T @ H @ basis
    assert np.max(np.abs(T - tridiagonal_matrix(th))) < 1e-12 * np.linalg.norm(H, 2)


def test_orthogonality_at_moderate_size():
    H = generate_rp(EnsembleConfig(256, 1.0, seed=5))
    t = lanczos_tridiagonalize(H)
    assert basis_orthogonality_residual(t.basis) < 1e-10


def test_steps_argument_truncates():
    H = random_symmetric(12, 3)
    t = lanczos_tridiagonalize(H, steps=5)
    assert t.a.shape == (5,)
    assert t.b.shape == (4,)
    full = lanczos_tridiagonalize(H)
    assert np.allclose(t.a, full.a[:5], atol=1e-10)


def test_input_validation():
    with pytest.raises(ValueError):
        householder_tridiagonalize(np.diag([np.inf, 0.0, 0.0]))
    H = random_symmetric(4, 1)
    with pytest.raises(ValueError):
        lanczos_tridiagonalize(H, v0=np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        lanczos_tridiagonalize(H, steps=9)
    with pytest.raises(ValueError):
        TridiagonalForm(np.zeros(3), np.array([1.0, -0.5]))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
def test_methods_agree_and_preserve_spectrum(N, seed):
    H = random_symmetric(N, seed)
    th = householder_tridiagonalize(H)
    tl = lanczos_tridiagonalize(H)
    if len(tl.a) == N:                      # no early breakdown
        assert np.max(np.abs(th.a - tl.a)) < 1e-8
        assert np.max(np.abs(th.b - tl.b)) < 1e-8
    norm = np.linalg.norm(H, 2)
    ev_h = np.sort(np.linalg.eigvalsh(H))
    ev_t = eig_tridiagonal(th)
    assert np.max(np.abs(ev_h - ev_t)) < 1e-8 * max(norm, 1.0)
    assert np.all(th.b >= 0)
    assert np.all(tl.b >= 0)


@settings(max_examples=25, deadline=None)
@given(N=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_trace_and_frobenius_identities(N, seed):
    H = random_symmetric(N, seed)
    t = householder_tridiagonalize(H)
    assert np.trace(H) == pytest.approx(t.a.sum(), rel=1e-10, abs=1e-10)
    fro2 = np.sum(H**2)
    assert fro2 == pytest.approx(t.a @ t.a + 2.0 * (t.b @ t.b), rel=1e-10)


@pytest.mark.parametrize("N", [128, 512])
def test_orthogonality_residual_equals_numpys_gram_bit_for_bit(N):
    t = householder_tridiagonalize(generate_rp(EnsembleConfig(N, 3.0, seed=N)))
    basis = t.columns(range(N))
    for Q in (basis, basis[:, : N - 3]):
        reference = float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max())
        assert basis_orthogonality_residual(Q) == reference


def test_orthogonality_residual_counts_the_diagonal():
    Q = np.eye(6)
    Q[:, 2] *= 1.0 + 1e-8         # columns still orthogonal, one not normalized
    assert basis_orthogonality_residual(Q) == pytest.approx(2e-8, rel=1e-6)
