"""Shared ensemble fixtures.

Everything heavy is session-scoped and seeded (base 20260815) so the whole
suite sees one deterministic set of ensembles.  Fixtures are built lazily:
running a single module file only pays for what that file uses.

The suite writes no bytecode into `src/`, where a stale `.pyc` would be read
by the next process that imports the package from there: the flag covers this
process and the variable the CLI processes the tests start, both set before
`krylovlab` is imported.
"""
import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import numpy as np
import pytest

from krylovlab.experiments import (RunManifest, mean_profile_cell, _cell_rstat,
                                   _cell_dos, _cell_spread, _cell_ipr, _cell_logvar)

BASE_SEED = 20260815
PROFILE_GAMMAS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
RSTAT_GAMMAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
SPREAD_GAMMAS = (0.0, 0.5, 1.5, 3.0)
IPR_GAMMAS = (0.5, 1.5, 3.0)
IPR_REALS = {256: 24, 512: 16, 1024: 12, 2048: 8}
LOGVAR_REALS = {128: 160, 256: 96, 512: 48, 1024: 24}
# dense fractal grid: the three-parameter power-law fit is ill-conditioned on
# (1, 2], so the amplitude estimate needs all 20 points to stabilize
LOGVAR_GAMMAS = tuple(round(1.05 + 0.05 * i, 10) for i in range(20)) + \
    tuple(round(2.2 + 0.2 * i, 10) for i in range(15))


def make_manifest(experiment, gammas, Ns, reals, beta=0.0):
    return RunManifest(experiment=experiment, gamma_grid=tuple(gammas),
                       N_grid=tuple(Ns), realizations=reals, seed=BASE_SEED,
                       beta=beta, output_dir="/tmp/krylovlab-tests-unused")


@pytest.fixture(scope="session")
def profile_manifest():
    return make_manifest("fit", PROFILE_GAMMAS, (1024,), 50)


@pytest.fixture(scope="session")
def mean_profiles(profile_manifest):
    """gamma -> (x, mean_a, mean_b, stderr_b, identity_residual) at N=1024, 50 reals."""
    out = {}
    for g in PROFILE_GAMMAS:
        out[g] = mean_profile_cell(profile_manifest, g, 1024)
    return out


@pytest.fixture(scope="session")
def dos_summaries(profile_manifest):
    """gamma -> (rows, summary) of the dos cell at N=1024, 50 reals."""
    out = {}
    for g in (0.0, 3.0):
        _, rows, summary = _cell_dos(profile_manifest, g, 1024)
        out[g] = (rows, summary)
    return out


@pytest.fixture(scope="session")
def rstat_curves():
    """(N, gamma) -> (r_mean, r_stderr) for N in {128: 500 reals, 512: 100 reals}."""
    out = {}
    for N, reals in ((128, 500), (512, 100)):
        m = make_manifest("rstat", RSTAT_GAMMAS, (N,), reals)
        for g in RSTAT_GAMMAS:
            _, _, summary = _cell_rstat(m, g, N)
            row = summary["aggregate"][0]
            out[(N, g)] = (row[2], row[3])
    return out


@pytest.fixture(scope="session")
def rstat_collapse(rstat_curves):
    """N -> <r> at gamma = 2 for N in {128, 512, 1024}."""
    m = make_manifest("rstat", (2.0,), (1024,), 50)
    _, _, summary = _cell_rstat(m, 2.0, 1024)
    return {128: rstat_curves[(128, 2.0)][0],
            512: rstat_curves[(512, 2.0)][0],
            1024: summary["aggregate"][0][2]}


@pytest.fixture(scope="session")
def spread_cells():
    """gamma -> (times, ks_mean, summary) at N=500, beta=0, 200 realizations."""
    out = {}
    for g in SPREAD_GAMMAS:
        m = make_manifest("spread", (g,), (500,), 200)
        _, rows, summary = _cell_spread(m, g, 500)
        times = np.array([r[0] for r in rows])
        ks = np.array([r[1] for r in rows])
        out[g] = (times, ks, summary)
    return out


@pytest.fixture(scope="session")
def ipr_summaries():
    """(gamma, N, k) -> (ipr_mean, stderr) over the D2 grid plus gamma=2.2."""
    out = {}
    for g in IPR_GAMMAS + (2.2,):
        sizes = IPR_REALS if g != 2.2 else {256: 24, 512: 16, 1024: 12}
        for N, reals in sizes.items():
            m = make_manifest("ipr", (g,), (N,), reals)
            _, _, summary = _cell_ipr(m, g, N)
            for row in summary["aggregate"]:
                out[(g, N, int(row[2]))] = (row[4], row[5])
    return out


@pytest.fixture(scope="session")
def logvar_points():
    """N -> array of (gamma, sigma_b) rows over the fractal+localized sweep."""
    out = {}
    for N, reals in LOGVAR_REALS.items():
        m = make_manifest("logvar", LOGVAR_GAMMAS, (N,), reals)
        pts = []
        for g in LOGVAR_GAMMAS:
            _, _, summary = _cell_logvar(m, g, N)
            pts.append([g, summary["aggregate"][0][2]])
        out[N] = np.array(pts)
    return out
