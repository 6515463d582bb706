"""Stochastic matrix factorization toolkit.

Non-negative factorization X = W @ H where at least one factor is
row-stochastic, with a constrained least-squares solver, uniqueness and
bounds analysis, image and topic pipelines, and synthetic test instances.
"""

from .factors import FactorPair, Orientation
from .faces import (
    GrayImage,
    downsample_2x2,
    read_pgm,
    reconstruct,
    reconstruction_error,
    retrieve,
    write_pgm,
)
from .identify import (
    AxisBound,
    DegenerateFactorError,
    MixingMatrix,
    SupportSets,
    UniquenessReport,
    Violation,
    ViolationKind,
    analysis_report,
    average_consistency_diagnostic,
    check_uniqueness,
    natural_bounds,
    sample_feasible_A,
    support_sets,
)
from .linalg import (
    EmptyRowError,
    frobenius_norm,
    numerical_rank,
    pseudoinverse,
    row_normalize,
    simplex_project,
    simplex_project_rows,
)
from .matrixio import (
    read_matrix,
    read_matrix_binary,
    read_matrix_csv,
    write_matrix_binary,
    write_matrix_csv,
)
from .solver import (
    InvalidInputError,
    Mode,
    RankDeficientError,
    SolveResult,
    SolverConfig,
    concentrate_w,
    factorize,
    objective,
)
from .synthetic import GroundTruth, align_and_score, generate
from .topics import (
    Corpus,
    TopicModel,
    build_corpus,
    fit_topics,
    read_corpus,
    top_terms,
    topic_histogram,
    write_corpus,
    write_histogram_csv,
    write_top_terms_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AxisBound",
    "Corpus",
    "DegenerateFactorError",
    "EmptyRowError",
    "FactorPair",
    "GrayImage",
    "GroundTruth",
    "InvalidInputError",
    "MixingMatrix",
    "Mode",
    "Orientation",
    "RankDeficientError",
    "SolveResult",
    "SolverConfig",
    "SupportSets",
    "TopicModel",
    "UniquenessReport",
    "Violation",
    "ViolationKind",
    "align_and_score",
    "analysis_report",
    "average_consistency_diagnostic",
    "build_corpus",
    "check_uniqueness",
    "concentrate_w",
    "downsample_2x2",
    "factorize",
    "fit_topics",
    "frobenius_norm",
    "generate",
    "natural_bounds",
    "numerical_rank",
    "objective",
    "pseudoinverse",
    "read_corpus",
    "read_matrix",
    "read_matrix_binary",
    "read_matrix_csv",
    "read_pgm",
    "reconstruct",
    "reconstruction_error",
    "retrieve",
    "row_normalize",
    "sample_feasible_A",
    "simplex_project",
    "simplex_project_rows",
    "support_sets",
    "top_terms",
    "topic_histogram",
    "write_corpus",
    "write_histogram_csv",
    "write_matrix_binary",
    "write_matrix_csv",
    "write_pgm",
    "write_top_terms_csv",
    "__version__",
]
