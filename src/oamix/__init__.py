"""Order-of-addition mixture and component-amount designs in orthogonal
blocks: catalog designs, pairwise-ordering machinery, model matrices,
design evaluation, and least-squares fitting.

Each public name is imported from its submodule on first access (PEP 562),
so `import oamix` loads no submodule and a command loads only the modules
it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(("BlockedDesign", "ModelMatrix", "ModelSpec", "Run",
                     "Violation", "pair_indices", "validate_design"), "core"),
    **dict.fromkeys(("CATALOG", "aggarwal_a_oofa", "aggarwal_a_optimal",
                     "component_amount_projection_design", "czitrom_d_oofa",
                     "czitrom_d_optimal", "oofa_expand"), "catalog"),
    **dict.fromkeys(("BlockingReport", "EvalReport", "FDSCurve",
                     "check_orthogonal_blocking", "criteria_report",
                     "fds_curve", "power_table", "term_r_squared"),
                    "evaluate"),
    **dict.fromkeys(("FitResult", "ols_fit", "predict"), "fit"),
    **dict.fromkeys(("build_model_matrix", "coded_model_matrix",
                     "column_names", "default_interaction_subset",
                     "full_interaction_set"), "modelmat"),
    **dict.fromkeys(("enumerate_orderings", "permutation_from_pwo",
                     "pwo_from_permutation"), "pwo"),
    **dict.fromkeys(("parse_design_csv", "write_design_csv",
                     "write_fds_outputs"), "serialize"),
    "errors": "errors",  # the submodule itself
}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SOURCES[name]}", __name__)
    value = module if name == _SOURCES[name] else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
