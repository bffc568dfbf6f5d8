import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from krylovlab import (EnsembleConfig, Normalization,
                       generate_rp, generate_heteroskedastic, householder_tridiagonalize)
from krylovlab import ensembles
from krylovlab.ensembles import realization_seeds, tag_from_gamma
from krylovlab.experiments import heteroskedastic_equiv

from oracles import load_matrix, save_matrix, untiled_symmetric_gaussian


def pooled_offdiag_var(N, gamma, norm, reals, base_seed):
    iu = np.triu_indices(N, 1)
    acc = 0.0
    n = 0
    for s in realization_seeds(base_seed, reals, tag_from_gamma(gamma), N):
        H = generate_rp(EnsembleConfig(N, gamma, norm, int(s)))
        v = H[iu]
        acc += np.sum(v * v)
        n += len(v)
    return acc / n


def test_huge_gamma_kills_offdiagonal():
    H = generate_rp(EnsembleConfig(2, 200.0, seed=3))
    assert abs(H[0, 1]) < 1e-15


def test_goe_offdiagonal_variance():
    var = pooled_offdiag_var(1024, 0.0, Normalization.PAPER_MAIN, 200, 11)
    assert abs(var - 0.5) < 0.01


def test_sm5_offdiagonal_variance():
    var = pooled_offdiag_var(512, 1.0, Normalization.SM5, 500, 12)
    expect = 1.0 / (4.0 * 512.0**2)
    assert abs(var - expect) / expect < 0.05


def test_heteroskedastic_wigner_ratio():
    # alpha = 2 beta is the Wigner case: diagonal variance twice the off-diagonal
    iu = np.triu_indices(128, 1)
    acc_d, acc_o, nd, no = 0.0, 0.0, 0, 0
    for s in realization_seeds(13, 500):
        H = generate_heteroskedastic(128, 0.2, 0.1, int(s))
        d = np.diag(H)
        o = H[iu]
        acc_d += np.sum(d * d)
        acc_o += np.sum(o * o)
        nd += len(d)
        no += len(o)
    ratio = (acc_d / nd) / (acc_o / no)
    assert abs(ratio - 2.0) < 0.1


def test_heteroskedastic_beta_zero_is_diagonal():
    H = generate_heteroskedastic(4, 1.0, 0.0, 5)
    assert np.all(H[~np.eye(4, dtype=bool)] == 0.0)
    assert np.all(np.diag(H) != 0.0)


def test_entry_means_vanish():
    iu = np.triu_indices(64, 1)
    offs, diags = [], []
    for s in realization_seeds(14, 1000):
        H = generate_rp(EnsembleConfig(64, 1.0, seed=int(s)))
        offs.append(H[iu])
        diags.append(np.diag(H))
    for pool in (np.concatenate(offs), np.concatenate(diags)):
        stderr = pool.std(ddof=1) / np.sqrt(len(pool))
        assert abs(pool.mean()) < 3.0 * stderr


def test_variance_convergence_all_classes():
    N, gamma = 128, 1.0
    iu = np.triu_indices(N, 1)
    offs, diags = [], []
    for s in realization_seeds(15, 1000, tag_from_gamma(gamma), N):
        H = generate_rp(EnsembleConfig(N, gamma, seed=int(s)))
        offs.append(H[iu])
        diags.append(np.diag(H))
    var_off = np.concatenate(offs).var()
    var_diag = np.concatenate(diags).var()
    assert abs(var_off - 0.5 / N) / (0.5 / N) < 0.10
    expect_diag = 1.0 + 1.0 / N
    assert abs(var_diag - expect_diag) / expect_diag < 0.10


def test_sm5_variance_ratio_is_2_n_gamma():
    alpha, beta = heteroskedastic_equiv(512, 1.0, Normalization.SM5)
    assert alpha / beta == 2.0 * 512.0
    alpha, beta = heteroskedastic_equiv(300, 1.7, Normalization.SM5)
    assert abs(alpha / beta - 2.0 * 300.0**1.7) / (2.0 * 300.0**1.7) < 1e-12


def test_determinism_and_seed_sensitivity():
    cfg = EnsembleConfig(32, 0.7, seed=99)
    H1 = generate_rp(cfg)
    H2 = generate_rp(EnsembleConfig(32, 0.7, seed=99))
    H3 = generate_rp(EnsembleConfig(32, 0.7, seed=100))
    assert np.array_equal(H1, H2)
    assert not np.array_equal(H1, H3)


@pytest.mark.parametrize("norm", list(Normalization))
def test_matrices_match_the_reference_construction_bit_for_bit(norm):
    # every seeded result rests on these draws: same order, same products
    N, gamma, seed = 96, 1.3, 21
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if norm is Normalization.SM5:
        diag_sigma, off_sigma = np.sqrt(1.0 / (2.0 * N)), np.sqrt(1.0 / (4.0 * N ** (gamma + 1.0)))
    else:
        scale = 1.0 if norm is Normalization.PAPER_MAIN else 1.0 / np.sqrt(N)
        a_diag = rng.standard_normal(N) * scale
        diag_sigma, off_sigma = scale, scale / np.sqrt(2.0)
    raw = rng.standard_normal((N, N))
    upper = np.triu(raw, k=1) * off_sigma
    ref = upper + upper.T
    np.fill_diagonal(ref, raw.diagonal() * diag_sigma)
    if norm is not Normalization.SM5:
        ref = float(N) ** (-gamma / 2.0) * ref
        ref[np.diag_indices(N)] += a_diag
    assert np.array_equal(generate_rp(EnsembleConfig(N, gamma, norm, seed)), ref)


@pytest.mark.parametrize("N", [2, 3, 127, 128, 129, 300, 1000])
def test_tiled_mirror_draws_the_untiled_bits(monkeypatch, N):
    # the in-place, tile-by-tile draw must not move a bit, signed zeros included:
    # a gamma whose suppression factor underflows to 0, and beta = 0; nor must a
    # draw into a caller's buffer, which starts out NaN so no stale entry hides
    cases = [lambda out, norm=norm: generate_rp(EnsembleConfig(N, 1.3, norm, 21), out=out)
             for norm in Normalization]
    cases += [lambda out: generate_rp(EnsembleConfig(N, 3000.0, seed=5), out=out),
              lambda out: generate_heteroskedastic(N, 0.5, 0.0, 8, out=out)]
    tiled = [draw(None) for draw in cases]
    buffers = [np.full((N, N), np.nan) for _ in cases]
    assert all(draw(buf) is buf for draw, buf in zip(cases, buffers))
    monkeypatch.setattr(ensembles, "_symmetric_gaussian", untiled_symmetric_gaussian)
    for H, buf, draw in zip(tiled, buffers, cases):
        assert H.tobytes() == buf.tobytes() == draw(None).tobytes()


def test_realization_seeds_are_tag_sensitive():
    a = realization_seeds(1, 5, 10, 128)
    b = realization_seeds(1, 5, 10, 128)
    c = realization_seeds(1, 5, 11, 128)
    d = realization_seeds(1, 5, 10, 256)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert len(set(a.tolist())) == 5


def test_tag_from_gamma_resolution():
    assert tag_from_gamma(0.0) == 0
    assert tag_from_gamma(1.5) == 1500
    assert tag_from_gamma(2.2) == 2200


@settings(max_examples=60, deadline=None)
@given(N=st.integers(2, 24), gamma=st.floats(0.0, 6.0, allow_nan=False),
       seed=st.integers(0, 2**32 - 1),
       norm=st.sampled_from(list(Normalization)))
def test_matrices_are_exactly_symmetric_and_finite(N, gamma, seed, norm):
    H = generate_rp(EnsembleConfig(N, gamma, norm, seed))
    assert H.shape == (N, N)
    assert np.array_equal(H, H.T)
    assert np.all(np.isfinite(H))


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(1, 0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(8, -0.5)
    with pytest.raises(ValueError):
        EnsembleConfig(8, 0.0, seed=-1)
    with pytest.raises(ValueError):
        generate_heteroskedastic(4, 0.0, 0.1, 1)
    with pytest.raises(ValueError):
        generate_heteroskedastic(4, 1.0, -0.1, 1)


def test_save_load_roundtrip(tmp_path):
    cfg = EnsembleConfig(12, 1.3, seed=8)
    H = generate_rp(cfg)
    path = tmp_path / "m.bin"
    save_matrix(H, path, cfg)
    back, back_cfg = load_matrix(path)
    assert np.array_equal(back, H)
    assert back_cfg == cfg


B1_REALS = 2000


def b1_pit(N=64, reals=B1_REALS, base_seed=1):
    """(normalization, gamma) -> u = F(b_1^2 / beta) with F the chi^2(N-1) CDF, over
    seeded RP draws.  b_1 = ||H[1:, 0]|| holds N - 1 iid N(0, beta) entries, so
    b_1^2 / beta is exactly chi^2(N-1) at every N, gamma and normalization, and u
    is uniform."""
    from scipy.stats import chi2
    out = {}
    for norm in Normalization:
        for gamma in (0.5, 1.5, 3.0):
            beta = heteroskedastic_equiv(N, gamma, norm)[1]
            seeds = realization_seeds(base_seed, reals, tag_from_gamma(gamma), N)
            b1 = np.array([householder_tridiagonalize(
                generate_rp(EnsembleConfig(N, gamma, norm, int(s)))).b[0] for s in seeds])
            out[(norm.value, gamma)] = chi2(N - 1).cdf(b1**2 / beta)
    return out


def test_first_householder_coefficient_follows_the_exact_chi_law():
    # KS at level 1e-3 in each of the 9 cells and pooled: a correct generator fails
    # this on at most 1 % of base seeds (union bound over the 10 tests)
    from scipy.stats import kstest
    pit = b1_pit()
    for cell, u in pit.items():
        assert kstest(u, "uniform").pvalue > 1e-3, cell
    assert kstest(np.concatenate(list(pit.values())), "uniform").pvalue > 1e-3


def test_exact_chi_law_sees_a_one_percent_offdiagonal_variance_error(monkeypatch):
    # a 1 % variance error moves b_1^2 / beta by 0.01 sqrt((N-1)/2) = 0.056 of its
    # standard deviation at N = 64: the pooled KS test sees it (p ~ 1e-10 here)
    from scipy.stats import kstest
    draw = ensembles._symmetric_gaussian
    monkeypatch.setattr(ensembles, "_symmetric_gaussian",
                        lambda N, diag, off, rng, out=None: draw(N, diag, off * np.sqrt(1.01),
                                                                 rng, out=out))
    pit = b1_pit()
    assert kstest(np.concatenate(list(pit.values())), "uniform").pvalue < 1e-3


def goe_forms(N, reals, base_seed, beta):
    """Householder forms of seeded GOE draws (diagonal variance 2 beta, off-diagonal beta)."""
    return [householder_tridiagonalize(generate_heteroskedastic(N, 2 * beta, beta, int(s)))
            for s in realization_seeds(base_seed, reals)]


def goe_b_pit(N=256, reals=200, base_seed=7, beta=0.5):
    """u = F_k(b_k^2 / beta) over every Householder coefficient b_k, k = 1..N-1, of
    seeded GOE draws (diagonal variance 2 beta, off-diagonal beta), with F_k the
    chi^2(N-k) CDF.  The b_k are independent sqrt(beta) chi_{N-k} exactly at every N
    (Trotter 1984; Dumitriu and Edelman 2002), so all (N-1) x reals values of u are
    iid uniform."""
    from scipy.stats import chi2
    b = np.array([t.b for t in goe_forms(N, reals, base_seed, beta)])
    return chi2(N - np.arange(1, N)).cdf(b**2 / beta).ravel()


def goe_a_pit(N=256, reals=200, base_seed=7, beta=0.5):
    """u = Phi(a_k / sqrt(2 beta)) over every diagonal coefficient of the draws of
    goe_b_pit: the a_k are independent N(0, 2 beta) exactly at every N (same sources),
    so all N x reals values of u are iid uniform."""
    from scipy.stats import norm
    a = np.array([t.a for t in goe_forms(N, reals, base_seed, beta)])
    return norm(scale=np.sqrt(2 * beta)).cdf(a).ravel()


def test_every_householder_coefficient_of_goe_follows_the_exact_chi_law():
    # one KS test at level 1e-3: a correct reduction fails it on 0.1 % of base seeds
    from scipy.stats import kstest
    assert kstest(goe_b_pit(), "uniform").pvalue > 1e-3


def test_the_chi_law_of_every_b_sees_a_one_percent_offdiagonal_variance_error(monkeypatch):
    # the error moves each b_k^2 / beta by 1 %, which 51,000 coefficients resolve
    from scipy.stats import kstest
    draw = ensembles._symmetric_gaussian
    monkeypatch.setattr(ensembles, "_symmetric_gaussian",
                        lambda N, diag, off, rng, out=None: draw(N, diag, off * np.sqrt(1.01),
                                                                 rng, out=out))
    assert kstest(goe_b_pit(), "uniform").pvalue < 1e-3


def test_every_householder_diagonal_of_goe_follows_the_exact_normal_law():
    # one KS test at level 1e-3, as for b (base seeds 0-9 gave p = 0.039 ... 0.99).
    # It does not see a diagonal variance error: for k >= 2, a_k is a quadratic form
    # in a Householder vector spread over N-k entries, so the diagonal's share of its
    # variance is O(1/(N-k)); +10 % gave p = 0.011, 0.94, 0.57 on base seeds 7-9
    from scipy.stats import kstest
    assert kstest(goe_a_pit(), "uniform").pvalue > 1e-3


@pytest.mark.parametrize("defect", ["a scaled by 1.05", "a taken from e"])
def test_the_normal_law_of_every_a_sees_a_wrong_diagonal(monkeypatch, defect):
    # p = 9e-8 (scaled) and 0 (from e) at base seed 7
    from scipy.stats import kstest
    from krylovlab import _openblas
    sytrd = _openblas.sytrd

    def bad_sytrd(a, overwrite):
        c, d, e, tau = sytrd(a, overwrite)
        d = 1.05 * d if defect == "a scaled by 1.05" else np.append(e, 0.0)
        return c, d, e, tau
    monkeypatch.setattr(_openblas, "sytrd", bad_sytrd)
    assert kstest(goe_a_pit(), "uniform").pvalue < 1e-3


def test_sm5_draw_beyond_float_range_of_n_to_the_gamma_is_finite_and_diagonal():
    # N^(gamma+1) overflows a float at gamma = 3000: the off-diagonal variance is 0,
    # as paper-main's N^(-gamma/2) underflows to 0 there
    H = generate_rp(EnsembleConfig(64, 3000.0, Normalization.SM5, seed=3))
    assert np.all(np.isfinite(H))
    assert np.array_equal(H, np.diag(np.diag(H)))
    assert heteroskedastic_equiv(64, 3000.0, Normalization.SM5)[1] == 0.0
    # where the power is in range, the variance keeps its bits
    assert heteroskedastic_equiv(16, 200.0, Normalization.SM5)[1] == 1.0 / (4.0 * 16.0 ** 201.0)
