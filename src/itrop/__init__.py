"""Simulation toolkit for iterated random operators approximating contraction maps."""

__version__ = "0.8.0"

from .core import (ConfigurationError, DivergenceError, DIVERGENCE_LIMIT,
                   ExactOperatorHandle, NonConvergenceError, RandomOperatorFactory,
                   RngStream, iterate_ensemble, iterate_exact, row_norm, solve_exact)
from .mdp import (MdpModel, bellman_apply, bellman_operator, empirical_bellman_factory,
                  empirical_q_factory, hoeffding_bound, load_model, q_apply, q_operator,
                  random_mdp, save_model, uses_alias)
from .regression import (EigenBounds, RegressionDataset, RegressionProblem,
                         contraction_coefficient, eigen_bounds, exact_gd_operator,
                         gradient, load_csv_dataset, loss, save_csv_dataset,
                         sample_batches, sgd_factory, solve_reference_minimizer,
                         synth_dataset)
from .analysis import (AssumptionReport, Box, EnsembleSummary, LlnReport,
                       check_composite_lipschitz, check_contraction_log,
                       check_monotone, check_sup_probability, ensemble, lln_audit,
                       orbit_curves, weighted_sequence_metric)
from .experiments import (ExperimentConfig, FamilyBundle, RunResult, build_family,
                          run_assumption_suite, run_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
