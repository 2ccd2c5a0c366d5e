"""CP tensor decomposition toolkit.

Simultaneous-diagonalization recovery for order-3 tensors, an overcomplete
extension through Khatri-Rao flattening, a tensor power method with
whitening, moment-based learners for mixture and hidden Markov models, and
Monte Carlo experiments on the spectra of smoothed random matrices.
"""

from ._version import __version__
from .errors import DegeneracyError, FormatError, PreconditionError, TensordecError
from .jennrich import (
    JennrichConfig,
    RecoveryReport,
    jennrich_decompose,
    match_columns,
    match_terms,
)
from .matrix_ops import leave_one_out
from .moment_learners import (
    gmm_learn,
    gmm_learn_from_moments,
    gmm_sample,
    gmm_statistic_exact,
    hmm_exact_moments,
    hmm_learn,
    hmm_learn_from_moments,
    hmm_sample,
)
from .overcomplete import FlatteningPlan, overcomplete_decompose
from .power_method import PowerConfig, deflate_decompose, whiten
from .seeding import derive_rng
from .smoothed_lab import (
    build_pivot_basis,
    build_pivot_basis_l2,
    kr_sigma_experiment,
    projection_experiment,
)
from .synthetic import (
    gmm_orthogonal_params,
    gmm_smoothed_params,
    hmm_random_params,
    random_decomposition,
    random_orthogonal_symmetric,
    smoothed_decomposition,
)
from .tensor_core import (
    CpDecomposition,
    DenseTensor,
    border_rank_fixture,
    decomposition_to_dict,
    frobenius_norm,
    read_decomposition,
    read_tnsr,
    synthesize,
)

__all__ = [
    "__version__",
    "CpDecomposition",
    "DegeneracyError",
    "DenseTensor",
    "FlatteningPlan",
    "FormatError",
    "JennrichConfig",
    "PowerConfig",
    "PreconditionError",
    "RecoveryReport",
    "TensordecError",
    "border_rank_fixture",
    "build_pivot_basis",
    "build_pivot_basis_l2",
    "decomposition_to_dict",
    "deflate_decompose",
    "derive_rng",
    "frobenius_norm",
    "gmm_learn",
    "gmm_learn_from_moments",
    "gmm_orthogonal_params",
    "gmm_sample",
    "gmm_smoothed_params",
    "gmm_statistic_exact",
    "hmm_exact_moments",
    "hmm_learn",
    "hmm_learn_from_moments",
    "hmm_random_params",
    "hmm_sample",
    "jennrich_decompose",
    "kr_sigma_experiment",
    "leave_one_out",
    "match_columns",
    "match_terms",
    "overcomplete_decompose",
    "projection_experiment",
    "random_decomposition",
    "random_orthogonal_symmetric",
    "read_decomposition",
    "read_tnsr",
    "smoothed_decomposition",
    "synthesize",
    "whiten",
]
