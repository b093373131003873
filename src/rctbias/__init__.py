"""Simulation and auditing toolkit for quantifying how machine-learning
design choices (annotation sampling, prediction discretization, model
selection) bias downstream average-treatment-effect estimation in
partially annotated randomized controlled trials."""

from ._version import __version__
from .errors import (ConfigurationError, DomainError, EstimationError,
                     IdxFormatError, InfeasibleError, RctBiasError,
                     SamplingError, TrainingError)
from .scm import (Dataset, ScmConfig, interventional_outcome_means,
                  oracle_conditional_mean, sample_rct)
from .analytic import (BoundInput, analytic_ad, analytic_discretized_ad,
                       normal_cdf, teb_upper_bound, worst_case_predictor)
from .annotation import (PositivityReport, SamplingScheme, assign_annotation,
                         check_positivity, validation_indices)
from .models import (Predictor, PredictionMetrics, TrainConfig, discretize,
                     evaluate_predictions, load_predictor, predict_soft,
                     save_predictor, train)
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

__all__ = [name for name in dir() if not name.startswith("_")]
