"""Order-of-addition mixture and component-amount designs in orthogonal
blocks: catalog designs, pairwise-ordering machinery, model matrices,
design evaluation, and least-squares fitting."""

from .core import (BlockedDesign, ModelMatrix, ModelSpec, Permutation, Run,
                   Violation, pair_indices, validate_design)
from .catalog import (CATALOG, aggarwal_a_oofa, aggarwal_a_optimal,
                      component_amount_projection_design, czitrom_d_oofa,
                      czitrom_d_optimal, oofa_expand)
from .evaluate import (BlockingReport, EvalReport, FDSCurve,
                       check_orthogonal_blocking, criteria_report, fds_curve,
                       power_table, term_r_squared)
from .fit import FitResult, ols_fit, predict
from .modelmat import (build_model_matrix, coded_model_matrix, column_names,
                       default_interaction_subset, full_interaction_set)
from .pwo import (enumerate_orderings, permutation_from_pwo,
                  pwo_from_permutation, pwo_from_run)
from .serialize import parse_design_csv, write_design_csv, write_fds_outputs
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BlockedDesign", "ModelMatrix", "ModelSpec", "Permutation", "Run",
    "Violation", "pair_indices", "validate_design",
    "CATALOG", "aggarwal_a_oofa", "aggarwal_a_optimal",
    "component_amount_projection_design", "czitrom_d_oofa",
    "czitrom_d_optimal", "oofa_expand",
    "BlockingReport", "EvalReport", "FDSCurve", "check_orthogonal_blocking",
    "criteria_report", "fds_curve", "power_table", "term_r_squared",
    "FitResult", "ols_fit", "predict",
    "build_model_matrix", "coded_model_matrix", "column_names",
    "default_interaction_subset", "full_interaction_set",
    "enumerate_orderings", "permutation_from_pwo", "pwo_from_permutation",
    "pwo_from_run",
    "parse_design_csv", "write_design_csv", "write_fds_outputs",
    "errors",
]
