"""Krylov-space numerics for Rosenzweig-Porter random matrices.

Ensemble generation, Householder/Lanczos tridiagonalization, Lanczos-profile
statistics and fits, density of states, spread complexity, Krylov IPR scaling,
and the variance-propagation estimate of the tridiagonal coefficients.
"""

__version__ = "0.1.0"

from .ensembles import (
    EnsembleConfig,
    Normalization,
    generate_rp,
    generate_heteroskedastic,
)
from .tridiag import TridiagonalForm, householder_tridiagonalize, lanczos_tridiagonalize
from .spectral import (
    DosModel,
    eig_tridiagonal,
    eig_dense,
    r_statistics,
    dos_from_lanczos,
    dos_closed_form,
)
from .lanczos_stats import (
    AnsatzFit,
    AnsatzForm,
    BinomialKernel,
    q_log,
    shifted_binomial,
    nib,
    fit_ansatz,
    log_variance,
    fit_logvar_powerlaw,
    xi_from_maximum,
)
from .krylov_dynamics import build_tfd_krylov, propagate
from .krylov_ipr import krylov_ipr, fit_d2, overlap_recurrence, FractalExponent
from .sm5_oracle import (
    VarianceState,
    step_variances,
    predict_lanczos_profile,
    householder_moment_sums,
    nakagami_mean,
)
