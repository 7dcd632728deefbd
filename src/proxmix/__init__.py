"""proxmix: proximal compositions and finite proximal mixtures.

A computation kit for combining a convex function with a linear operator
through proximal (co)compositions, and for weighted families through
proximal mixtures, comixtures, averages and expectations.  Every
closed-form identity carries a runnable verification suite; see
``proxmix.verify``.
"""

from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    ParameterError,
    ProxmixError,
    RegistryError,
    ShapeError,
    UnsupportedConjugate,
    UnsupportedDimension,
)
from .linalg import DenseMap, as_vector
from .functions import (
    Affine,
    BallDistance,
    BallIndicator,
    BallSupport,
    ConvexFunction,
    EuclideanNorm,
    L1Norm,
    MoreauEnvelopeFunction,
    OracleFunction,
    Quadratic,
    SeparableSum,
    SubspaceIndicator,
    function_from_spec,
    function_to_spec,
    quadratic_kernel,
)
from .moreau import (
    DEFAULT_OPTS,
    SolveReport,
    SolverOpts,
    conjugate_numeric,
    envelope,
    envelope_gradient,
    minimize_smooth,
)
from .compositions import (
    CompositionSpec,
    admissible,
    argmin_cocomposition,
    argmin_gamma_sequence,
    envelope_cocomposition,
    envelope_cocomposition_batch,
    eval_cocomposition,
    eval_cocomposition_batch,
    eval_composition,
    eval_composition_batch,
    gamma_sweep,
    limit_large_gamma,
    limit_small_gamma,
    perspective_cocomposition,
    prox_cocomposition,
    prox_composition,
    recession_cocomposition,
    subgradient_witness_cocomposition,
)
from .mixtures import (
    DirectSumEmbedding,
    MixtureSpec,
    MixtureTerm,
    comixture_argmin,
    comixture_argmin_sequence,
    comixture_envelope,
    comixture_eval,
    comixture_eval_batch,
    comixture_prox,
    comixture_recession,
    embed,
    mixture_eval,
    mixture_eval_batch,
    mixture_prox,
    pcm_estimate,
    proximal_average,
    sampled_expectation_prox,
)
from .oracles import (
    PseudoInverse,
    grid_conjugate,
    grid_envelope,
    grid_min,
    grid_points,
    grid_prox,
    pseudo_inverse_small,
    pushforward_infimum,
    refined_grid_min,
)

__version__ = "0.1.0"
