"""The package's public interface: the names ``import smf`` exports."""

import smf
from smf import factors, faces, identify, linalg, matrixio, solver, synthetic, topics

PUBLIC = {
    "AxisBound", "Corpus", "DegenerateFactorError", "EmptyRowError",
    "FactorPair", "GrayImage", "GroundTruth", "InvalidInputError",
    "MixingMatrix", "Mode", "Orientation", "RankDeficientError",
    "SolveResult", "SolverConfig", "SupportSets", "TopicModel",
    "UniquenessReport", "Violation", "ViolationKind", "__version__",
    "align_and_score", "analysis_report", "average_consistency_diagnostic",
    "build_corpus", "check_uniqueness", "downsample_2x2",
    "factorize", "fit_topics", "frobenius_norm", "generate",
    "natural_bounds", "numerical_rank", "objective", "pseudoinverse",
    "read_corpus", "read_matrix", "read_matrix_binary", "read_matrix_csv",
    "read_pgm", "reconstruct", "reconstruction_error", "retrieve",
    "row_normalize", "sample_feasible_A", "simplex_project",
    "simplex_project_rows", "support_sets", "top_terms", "topic_histogram",
    "write_corpus", "write_histogram_csv", "write_matrix_binary",
    "write_matrix_csv", "write_pgm", "write_top_terms_csv",
}


def test_package_exports_each_module_public_name_once():
    assert len(smf.__all__) == len(set(smf.__all__)) == len(PUBLIC) == 55
    assert set(smf.__all__) == PUBLIC
    for module in (factors, faces, identify, linalg, matrixio, solver,
                   synthetic, topics):
        for name in module.__all__:
            assert getattr(smf, name) is getattr(module, name), (module, name)
