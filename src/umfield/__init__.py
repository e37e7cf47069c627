"""Gaussian random fields on ultrametric ball-trees."""

from .tree import (
    BallTree,
    parse_tree,
    load_tree,
    generate_homogeneous,
    TreeError,
    MalformedSpec,
    DuplicateId,
    Cycle,
    BranchingOne,
    NonPositiveMeasure,
    MeasureMismatch,
    ForeignLeaf,
    NotDescendant,
    OutOfRange,
    TooManyLeaves,
    DENSE_MAX_LEAVES,
)
from .wavelets import WaveletBasis, build_basis, evaluate, gram_matrix, projector_sum_check
from .pdo import (
    Symbol,
    symbol_from_tree,
    constant_symbol,
    apply_dense,
    dense_operator_matrix,
    spectrum,
    eigenvalue_path_sum,
    verify_eigen,
    convergence_report,
    ConvergenceReport,
    DimensionMismatch,
)
from .field import (
    CovarianceKernel,
    FieldSample,
    kernel_value,
    covariance_kernel,
    kernel_bruteforce,
    sample_field,
    check_equation,
    bilinear_form,
    check_markov_instance,
    markov_check,
    empirical_covariance,
    random_markov_instance,
    ZeroEigenvalue,
    PreconditionViolated,
)

__version__ = "0.1.0"
