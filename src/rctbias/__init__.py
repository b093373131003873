"""Simulation and auditing toolkit for quantifying how machine-learning
design choices (annotation sampling, prediction discretization, model
selection) bias downstream average-treatment-effect estimation in
partially annotated randomized controlled trials."""

from ._version import __version__
from .errors import (ConfigurationError, DomainError, EstimationError,
                     IdxFormatError, InfeasibleError, RctBiasError,
                     SamplingError, TrainingError)
from .scm import Dataset, ScmConfig, oracle_conditional_mean, sample_rct
from .analytic import (BoundInput, analytic_ad, analytic_discretized_ad,
                       normal_cdf, teb_upper_bound, worst_case_predictor)
from .annotation import SamplingScheme, assign_annotation, validation_indices
from .models import (Predictor, PredictionMetrics, TrainConfig, discretize,
                     evaluate_predictions, predict_soft, train)
from .metrics import (DiscretizationTestResult, MetricRow, MetricTable,
                      SpearmanMatrix, TTestResult, TebReport, empirical_ad,
                      frechet_distance, paired_discretization_test, spearman,
                      spearman_matrix, t_test, teb_report, two_sample_t_test)
from .mnist import (CausalMnistDataset, MnistArchive, PopulationSpec,
                    build_population, colorize, draw_colors, generate,
                    load_idx, read_idx, write_idx)
from .harness import (ExperimentReport, RunConfig, emit_report,
                      report_from_json, run_convergence_study,
                      run_mnist_bias_study)

__all__ = [
    "ConfigurationError", "DomainError", "EstimationError", "IdxFormatError",
    "InfeasibleError", "RctBiasError", "SamplingError", "TrainingError",
    "Dataset", "ScmConfig", "oracle_conditional_mean", "sample_rct",
    "BoundInput", "analytic_ad", "analytic_discretized_ad", "normal_cdf",
    "teb_upper_bound", "worst_case_predictor", "SamplingScheme",
    "assign_annotation", "validation_indices", "Predictor",
    "PredictionMetrics", "TrainConfig", "discretize", "evaluate_predictions",
    "predict_soft", "train", "DiscretizationTestResult", "MetricRow",
    "MetricTable", "SpearmanMatrix", "TTestResult", "TebReport",
    "empirical_ad", "frechet_distance", "paired_discretization_test",
    "spearman", "spearman_matrix", "t_test", "teb_report", "two_sample_t_test",
    "CausalMnistDataset", "MnistArchive", "PopulationSpec", "build_population",
    "colorize", "draw_colors", "generate", "load_idx", "read_idx", "write_idx",
    "ExperimentReport", "RunConfig", "emit_report", "report_from_json",
    "run_convergence_study", "run_mnist_bias_study"]
