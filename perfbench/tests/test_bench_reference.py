"""The reference checker accepts correct outputs and rejects planted errors."""

import numpy as np
import pytest

import reference as ref
import workloads
from oamix import catalog, evaluate, fit, modelmat
from oamix.core import BlockedDesign, ModelSpec, Run

SPEC = ModelSpec("scheffe_quadratic", include_pwo=True,
                 interaction_terms=modelmat.default_interaction_subset(3),
                 include_block=True)


def _criteria_record(report):
    return {"det_xtx": report.det_xtx, "d_criterion": report.d_criterion,
            "a_criterion": report.a_criterion, "max_pv": report.max_pv,
            "avg_pv": report.avg_pv, "g_efficiency": report.g_efficiency,
            "se": np.array([c.se for c in report.columns]),
            "r_squared": np.array([c.r_squared for c in report.columns]),
            "power": np.array([c.power_2sd for c in report.columns])}


def _reference_matrix(design, columns, coded=False):
    return ref.design_matrix(workloads.design_arrays(design), columns, coded)


@pytest.mark.parametrize("name,family,a_max", [
    ("czitrom-d-oofa", "scheffe_quadratic", None),
    ("aggarwal-a-oofa", "k_quadratic", None),
    ("ca-projection", "component_amount_quadratic", 100.0),
    ("ca-projection", "component_amount_quadratic", 0.05),
])
@pytest.mark.parametrize("coded", [False, True])
def test_term_matrix_matches_program_matrices(name, family, a_max, coded):
    design = (catalog.CATALOG[name](a_max) if a_max
              else catalog.CATALOG[name]())
    spec = ModelSpec(family, include_pwo=True,
                     interaction_terms=modelmat.default_interaction_subset(3),
                     include_block=True)
    build = modelmat.coded_model_matrix if coded else modelmat.build_model_matrix
    X = build(design, spec)
    X_ref = _reference_matrix(design, X.columns, coded)
    np.testing.assert_allclose(X_ref, X.data, rtol=1e-12, atol=1e-12)


def test_criteria_accepted_and_perturbed_avg_pv_rejected():
    X = modelmat.build_model_matrix(catalog.czitrom_d_oofa(), SPEC)
    record = _criteria_record(evaluate.criteria_report(X))
    an = ref.Analysis(_reference_matrix(catalog.czitrom_d_oofa(), X.columns))
    assert ref.check_criteria(record, X.columns, an) == []
    assert workloads._pinned_problems(record) == []
    record["avg_pv"] *= 1 + 1e-4
    problems = ref.check_criteria(record, X.columns, an)
    assert problems and problems[0].startswith("avg_pv")
    assert workloads._pinned_problems(record)


def test_power_rejects_a_perturbed_column():
    X = modelmat.coded_model_matrix(catalog.czitrom_d_oofa(), SPEC)
    table = evaluate.power_table(X)
    r2 = evaluate.term_r_squared(X)
    record = {"se": np.array([table[c].se for c in X.columns]),
              "power": np.array([table[c].power for c in X.columns]),
              "r_squared": np.array([r2[c] for c in X.columns])}
    an = ref.Analysis(X.data)
    assert ref.check_power(record, X.columns, an) == []
    record["power"][3] += 1e-4
    assert ref.check_power(record, X.columns, an)


def test_duplicate_block_codes_rejected_distinct_codes_accepted():
    blocks = np.array([1, 1, 2, 2, 3, 3])
    shared = np.array([[1.0, -1], [1, -1], [1, 1], [1, 1], [2, 1], [2, 1]])
    codes = ref.block_codes(shared, ("x1", "blk"), blocks)
    problems = ref.check_block_codes(codes)
    assert problems and problems[0].startswith("blocks share")
    effect = np.array([[1.0, -1, -1], [1, -1, -1], [1, 1, 0], [1, 1, 0],
                       [2, 0, 1], [2, 0, 1]])
    codes = ref.block_codes(effect, ("x1", "blk1", "blk2"), blocks)
    assert ref.check_block_codes(codes) == []
    mixed = shared.copy()
    mixed[1, 1] = 1.0
    assert "different block codes" in ref.check_block_codes(
        ref.block_codes(mixed, ("x1", "blk"), blocks))[0]


def test_program_three_block_matrix_is_caught():
    runs = [Run(r.values, r.pwo, 1 + i % 3) for i, r in
            enumerate(catalog.czitrom_d_oofa().runs)]
    design = BlockedDesign(m=3, kind="proportion", runs=tuple(runs),
                           n_blocks=3, as_printed=True)
    X = modelmat.build_model_matrix(design, SPEC)
    codes = ref.block_codes(X.data, X.columns, [r.block for r in runs])
    assert ref.check_block_codes(codes)[0].startswith("blocks share")


def test_qr_inverse_and_solve_accepted_and_planted_errors_rejected():
    rng = np.random.default_rng(0)
    design = catalog.component_amount_projection_design(100.0)
    spec = ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=modelmat.default_interaction_subset(3),
                     include_block=True)
    X = modelmat.build_model_matrix(design, spec).data
    y = rng.normal(size=X.shape[0]) + X[:, 1] * 0.01
    an = ref.Analysis(X)
    Q, R = np.linalg.qr(X)
    R_inv = np.linalg.solve(R, np.eye(R.shape[0]))
    inv = R_inv @ R_inv.T
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    df = X.shape[0] - X.shape[1]
    sigma = float(np.sqrt(resid @ resid / df))
    record = {"estimates": beta, "se": sigma * np.sqrt(np.diag(inv)),
              "sigma_hat": sigma, "df": df,
              "r_squared": 1 - float(resid @ resid) / float(
                  np.sum((y - y.mean()) ** 2)),
              "fitted": ref.vector_sketch(X @ beta)[0]}
    assert ref.check_inverse(inv, an) == []
    assert ref.check_fit(record, an, y) == []
    bad = dict(record, estimates=beta * (1 + 1e-3))
    assert ref.check_fit(bad, an, y)
    inv_bad = inv.copy()
    inv_bad[2, 2] *= 1 + 1e-3
    assert ref.check_inverse(inv_bad, an)


def test_program_fit_passes():
    design = catalog.czitrom_d_oofa()
    X = modelmat.build_model_matrix(design, SPEC)
    y = np.linspace(0, 1, X.n) ** 2
    f = fit.ols_fit(X, y)
    record = {"estimates": np.array(f.estimates), "se": np.array(f.se),
              "sigma_hat": f.sigma_hat, "df": f.df_residual,
              "r_squared": f.r_squared,
              "fitted": ref.vector_sketch(f.fitted)[0]}
    an = ref.Analysis(X.data)
    assert ref.check_fit(record, an, y) == []
    assert ref.check_inverse(f.info_inv, an) == []


def test_rank_deficiency_detected():
    X = modelmat.build_model_matrix(catalog.czitrom_d_optimal(), SPEC)
    assert not ref.Analysis(X.data).full_rank  # all-zero ordering columns
    X = modelmat.build_model_matrix(catalog.czitrom_d_oofa(), SPEC)
    assert ref.Analysis(X.data).full_rank


def test_blocking_verdicts():
    design = catalog.czitrom_d_oofa()
    report = evaluate.check_orthogonal_blocking(design, SPEC)
    record = {"passed": report.passed, "conditions": [
        (c.term, np.array(c.block_sums)) for c in report.conditions]}
    columns = [t for t, _ in record["conditions"]]
    arr = workloads.design_arrays(design)
    X, _ = ref.term_matrix(columns, arr["values"], arr["pwo"], arr["amount"])
    assert ref.check_blocking(record, X, columns, arr["block"], 5e-3) == []
    swapped = arr["block"].copy()
    swapped[[0, 12]] = swapped[[12, 0]]  # two different edge blends
    assert ref.check_blocking(record, X, columns, swapped, 5e-3)


def test_fds_curve_matches_reference_sampler_and_a_shifted_curve_does_not():
    design = catalog.component_amount_projection_design(100.0)
    spec = ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=modelmat.default_interaction_subset(3),
                     include_block=True)
    d = workloads._FdsDesign("ca", design, spec)
    sample = workloads._fds_reference(workloads._Oamix(), d, 20000)
    curve = np.array(evaluate.fds_curve(design, spec, 4000, 11).variances)
    limit = ref.ks_limit(curve.size, sample.size)
    assert ref.ks_distance(curve, sample) <= limit
    assert ref.ks_distance(curve * 1.1, sample) > limit


def test_expansion_rows_match_catalog_expansions():
    base = workloads.design_arrays(catalog.czitrom_d_optimal())
    rows = ref.expansion_rows(base["values"], base["block"], base["amount"])
    oofa = catalog.oofa_expand(catalog.czitrom_d_optimal())
    assert sorted(map(repr, rows)) == sorted(
        repr((r.values, r.pwo, r.block, float("nan"))) for r in oofa.runs)
