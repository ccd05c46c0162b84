import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import mc_t_test_power
from oamix.catalog import (aggarwal_a_oofa, component_amount_projection_design,
                           czitrom_d_oofa, czitrom_d_optimal, oofa_expand)
from oamix.core import BlockedDesign, ModelMatrix, ModelSpec, Run
from oamix.errors import (InsufficientDF, NothingToCheck, SingularMatrix,
                          Unsupported)
from oamix.evaluate import _CHUNK as CHUNK
from oamix.evaluate import (check_orthogonal_blocking, criteria_report,
                            fds_curve, power_table, term_r_squared)
from oamix.fit import ols_fit, predict
from oamix.modelmat import build_model_matrix, default_interaction_subset

# two-sided t-test power at se=0.5, sigma=1, effect 2 sigma, df=3, alpha 5%
POWER_SE_HALF_DF3 = 0.754984


def scheffe_spec(pwo=True, block=True, interactions=True):
    return ModelSpec(
        "scheffe_quadratic", include_pwo=pwo,
        interaction_terms=default_interaction_subset(3) if interactions else (),
        include_block=block)


def test_blocking_passes_on_expanded_design():
    report = check_orthogonal_blocking(czitrom_d_oofa(), scheffe_spec())
    assert report.passed
    z_checks = [c for c in report.conditions if c.condition == "pwo_sum"]
    assert len(z_checks) == 3
    for c in z_checks:
        assert c.block_sums == (0.0, 0.0)
        assert c.tol == 0.0
    families = {c.condition for c in report.conditions}
    assert families == {"component_sum", "cross_product_sum", "pwo_sum",
                        "interaction_sum"}


def test_blocking_passes_on_base_design():
    report = check_orthogonal_blocking(
        czitrom_d_optimal(), scheffe_spec(pwo=False, interactions=False))
    assert report.passed
    x3 = next(c for c in report.conditions if c.term == "x3")
    assert x3.block_sums[0] == pytest.approx(x3.block_sums[1], abs=1e-12)
    assert x3.block_sums[0] == pytest.approx(1.334, abs=1e-9)


def test_blocking_covers_all_condition_families():
    spec = ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)
    report = check_orthogonal_blocking(
        component_amount_projection_design(100.0), spec, tol=5e-3 * 100 ** 2)
    families = {c.condition for c in report.conditions}
    assert families == {"intercept_sum", "component_sum", "square_sum",
                        "cross_product_sum", "pwo_sum", "interaction_sum"}
    # ordering columns stay balanced even though raw amounts do not
    for c in report.conditions:
        if c.condition in ("pwo_sum", "interaction_sum",
                           "cross_product_sum", "intercept_sum"):
            assert c.ok, c


def test_mixture_amount_terms_are_amount_products():
    d = czitrom_d_oofa()
    amount = np.where(np.arange(d.n) % 2 == 0, 1.0, 2.0)
    d = BlockedDesign.from_arrays(d.m, d.kind, d.values, d.pwo, d.block,
                                  amount, d.n_blocks, as_printed=True)
    report = check_orthogonal_blocking(
        d, ModelSpec("mixture_amount_quadratic"))
    names = {c.term: c.condition for c in report.conditions}
    for term in ("x1*A", "x2*x3*A", "x1*A^2", "x2*x3*A^2"):
        assert names[term] == "amount_product_sum"
    assert set(names.values()) == {"component_sum", "cross_product_sum",
                                   "amount_product_sum"}


def test_blocking_fails_with_named_condition():
    d = czitrom_d_oofa()
    runs = list(d.runs)
    r0, r12 = runs[0], runs[12]
    runs[0] = Run(r12.values, r12.pwo, 1)
    runs[12] = Run(r0.values, r0.pwo, 2)
    swapped = BlockedDesign(m=3, kind="proportion", runs=tuple(runs),
                            n_blocks=2, as_printed=True)
    report = check_orthogonal_blocking(swapped, scheffe_spec())
    assert not report.passed
    failed = {c.condition for c in report.failed()}
    assert "component_sum" in failed
    assert "pwo_sum" in failed


BLOCKED_CASES = (
    (czitrom_d_oofa(), scheffe_spec()),
    (aggarwal_a_oofa(), ModelSpec("k_quadratic", include_pwo=True,
                                  interaction_terms=default_interaction_subset(3),
                                  include_block=True)),
)


def _reordered(design, order, swap=None):
    """The design's runs in the given order, each keeping its block unless
    it is one of the pair in swap, whose blocks are exchanged."""
    runs = list(design.runs)
    if swap is not None:
        i, j = swap
        runs[i] = Run(runs[i].values, runs[i].pwo, runs[j].block)
        runs[j] = Run(runs[j].values, runs[j].pwo, design.runs[i].block)
    return BlockedDesign(m=design.m, kind=design.kind,
                         runs=tuple(runs[k] for k in order),
                         n_blocks=design.n_blocks, as_printed=True)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(BLOCKED_CASES),
       order=st.permutations(range(24)))
def test_blocking_verdict_ignores_run_order(case, order):
    design, spec = case
    base = check_orthogonal_blocking(design, spec)
    shuffled = check_orthogonal_blocking(_reordered(design, order), spec)
    assert base.passed and shuffled.passed
    assert shuffled.conditions == base.conditions


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(BLOCKED_CASES),
       order=st.permutations(range(24)),
       i=st.integers(0, 11), j=st.integers(12, 23))
def test_blocking_fails_when_blends_cross_blocks(case, order, i, j):
    design, spec = case
    assert design.runs[i].block == 1 and design.runs[j].block == 2
    assume(design.runs[i].values != design.runs[j].values)
    report = check_orthogonal_blocking(
        _reordered(design, order, swap=(i, j)), spec)
    assert not report.passed
    # the blends differ, so some mixture term fails, not only ordering ones
    failed = {c.condition for c in report.failed()}
    assert failed - {"pwo_sum", "interaction_sum"}


def test_block_column_rejects_more_than_two_blocks():
    d = czitrom_d_oofa()
    runs = tuple(Run(r.values, r.pwo, 1 + k % 3) for k, r in enumerate(d.runs))
    three = BlockedDesign(m=3, kind="proportion", runs=runs, n_blocks=3,
                          as_printed=True)
    with pytest.raises(Unsupported, match="3 blocks"):
        build_model_matrix(three, scheffe_spec())
    # without the block column the design is fine, and the blocking check
    # never needs that column
    X = build_model_matrix(three, scheffe_spec(block=False))
    assert "blk" not in X.columns
    report = check_orthogonal_blocking(three, scheffe_spec())
    assert len(report.conditions) == X.p
    assert all(len(c.block_sums) == 3 for c in report.conditions)


def test_blocking_single_block_raises():
    d = BlockedDesign(m=3, kind="proportion",
                      runs=(Run((0.5, 0.5, 0), (1, 0, 0), 1),), n_blocks=1)
    with pytest.raises(NothingToCheck):
        check_orthogonal_blocking(d, ModelSpec("scheffe_linear"))


def test_analyses_of_one_matrix_share_one_factorization(qr_calls):
    X = build_model_matrix(czitrom_d_oofa(), scheffe_spec())
    y = np.arange(X.n, dtype=float)
    criteria_report(X)
    power_table(X)
    term_r_squared(X)
    fit = ols_fit(X, y)
    predict(fit, X)
    assert len(qr_calls) == 1
    assert fit.info_inv is X.factor.inv  # the one inverse, not a copy


def test_singular_matrix_names_columns_on_every_call(qr_calls):
    col = np.array([1.0, 2.0, 3.0, 4.0])
    X = ModelMatrix(("a", "b", "c"),
                    np.column_stack([col, np.ones(4), 2 * col]))
    for call in (criteria_report, term_r_squared):
        with pytest.raises(SingularMatrix) as exc:
            call(X)
        assert exc.value.names == ("c",)
    assert len(qr_calls) == 2  # a singular matrix is not cached


def test_criteria_report_identity_matrix():
    X = ModelMatrix(tuple("abcd"), np.eye(4))
    rep = criteria_report(X)
    assert rep.det_xtx == pytest.approx(1.0)
    assert rep.max_pv == pytest.approx(1.0)
    assert rep.avg_pv == pytest.approx(1.0)
    assert rep.g_efficiency == pytest.approx(100.0)
    assert rep.a_criterion == pytest.approx(4.0)


def test_average_pv_equals_p_over_n_for_random_matrix():
    rng = np.random.default_rng(31)
    X = ModelMatrix(tuple(f"c{i}" for i in range(6)),
                    rng.normal(size=(40, 6)))
    rep = criteria_report(X)
    assert rep.avg_pv == pytest.approx(6 / 40, abs=1e-10)


def test_criteria_report_eval_points_override():
    rng = np.random.default_rng(37)
    X = ModelMatrix(("u", "v"), rng.normal(size=(12, 2)))
    pts = np.array([[10.0, 0.0]])
    rep = criteria_report(X, eval_points=pts)
    # one evaluation point: max and average coincide at that point's value
    assert rep.max_pv == pytest.approx(rep.avg_pv)
    inv = np.linalg.inv(X.data.T @ X.data)
    assert rep.max_pv == pytest.approx(100.0 * inv[0, 0])


def test_criteria_report_names_offending_columns():
    col = np.arange(5.0)
    X = ModelMatrix(("a", "twin", "b"),
                    np.column_stack([col, col, np.ones(5)]))
    with pytest.raises(SingularMatrix) as exc:
        criteria_report(X)
    assert "twin" in exc.value.names


def test_unexpanded_design_names_only_the_ordering_columns():
    # without expansion every ordering column is zero; blk stays independent
    X = build_model_matrix(czitrom_d_optimal(), scheffe_spec())
    with pytest.raises(SingularMatrix) as exc:
        criteria_report(X)
    assert exc.value.names == ("z12", "z13", "z23", "x1*z12", "x1*z13",
                               "x2*z23")


CA_SPEC = ModelSpec("component_amount_quadratic", include_pwo=True,
                    interaction_terms=default_interaction_subset(3),
                    include_block=True)
CA_UNIT_G = criteria_report(build_model_matrix(
    component_amount_projection_design(1.0), CA_SPEC)).g_efficiency


@settings(max_examples=40, deadline=None)
@given(log_a_max=st.floats(-2.0, 5.0))
def test_ca_projection_results_do_not_depend_on_the_amount_unit(log_a_max):
    X = build_model_matrix(component_amount_projection_design(10 ** log_a_max),
                           CA_SPEC)
    assert criteria_report(X).g_efficiency == pytest.approx(CA_UNIT_G,
                                                            rel=1e-9)
    # planted coefficients, one per unit-norm column
    norms = np.linalg.norm(X.data, axis=0)
    planted = np.linspace(-1.0, 1.0, X.p)
    fit = ols_fit(X, X.data @ (planted / norms))
    assert np.max(np.abs(np.array(fit.estimates) * norms - planted)) <= 1e-10



def _amount_degree(name: str) -> int:
    """Degree of a column in the component amounts, read from its name."""
    return sum(int(f.partition("^")[2] or 1) for f in name.split("*")
               if f.startswith("a"))


@pytest.mark.parametrize("a_max", [1e-9, 1e9])
def test_d_criterion_follows_the_amount_unit(a_max):
    # scaling the amounts by a scales column j by a^deg_j, so det(X'X)
    # by a^(2 sum deg_j) and d_criterion by a^(2 sum deg_j / p)
    unit = criteria_report(build_model_matrix(
        component_amount_projection_design(1.0), CA_SPEC))
    rep = criteria_report(build_model_matrix(
        component_amount_projection_design(a_max), CA_SPEC))
    degree = sum(_amount_degree(c.name) for c in rep.columns)
    want = 2.0 * degree / rep.p * math.log(a_max)
    got = math.log(rep.d_criterion) - math.log(unit.d_criterion)
    assert got == pytest.approx(want, rel=1e-9)
    assert rep.g_efficiency == pytest.approx(unit.g_efficiency, rel=1e-9)


def test_fds_single_sample():
    curve = fds_curve(czitrom_d_oofa(), scheffe_spec(), 1, seed=5)
    assert curve.fractions == (0.5,)
    assert len(curve.variances) == 1


def test_fds_deterministic_and_sorted():
    spec = scheffe_spec()
    c1 = fds_curve(czitrom_d_oofa(), spec, 200, seed=42)
    c2 = fds_curve(czitrom_d_oofa(), spec, 200, seed=42)
    assert c1 == c2
    v = np.array(c1.variances)
    assert np.all(np.diff(v) >= 0)
    assert c1.maximum() == v[-1]
    c3 = fds_curve(czitrom_d_oofa(), spec, 200, seed=43)
    assert c3 != c1


@pytest.mark.parametrize("short,full", [(60, 120), (1, 3000),
                                        (CHUNK + 1, 3 * CHUNK)])
@pytest.mark.parametrize("design,spec", [
    (czitrom_d_oofa(), scheffe_spec()),
    (component_amount_projection_design(100.0), CA_SPEC),
], ids=["czitrom-d-oofa", "ca-projection"])
def test_fds_substreams_are_sample_indexed(design, spec, short, full):
    # a shorter run is a subset of a longer one with the same seed, also
    # where the two runs split their samples into batches differently
    short_counts = Counter(fds_curve(design, spec, short, seed=9).variances)
    full_counts = Counter(fds_curve(design, spec, full, seed=9).variances)
    assert all(full_counts[v] >= k for v, k in short_counts.items())


def test_fds_amount_design_uses_design_levels():
    d = component_amount_projection_design(100.0)
    spec = ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)
    curve = fds_curve(d, spec, 50, seed=3)
    assert len(curve.variances) == 50
    assert all(v > 0 for v in curve.variances)


def test_fds_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        fds_curve(czitrom_d_oofa(), scheffe_spec(), 0)


def test_power_single_column_matches_monte_carlo():
    X = ModelMatrix(("c",), np.ones((4, 1)))
    table = power_table(X)
    assert table["c"].se == pytest.approx(0.5)
    assert table["c"].power == pytest.approx(POWER_SE_HALF_DF3, abs=1e-4)
    mc = mc_t_test_power(ncp=4.0, df=3, alpha=0.05, n_reps=10 ** 6,
                         seed=12345)
    assert table["c"].power == pytest.approx(mc, abs=5e-3)


def test_power_requires_residual_df():
    X = ModelMatrix(("a", "b"), np.eye(2))
    with pytest.raises(InsufficientDF):
        power_table(X)


def test_term_r_squared_orthogonal_columns():
    X = ModelMatrix(tuple("abcd"), np.eye(4))
    r2 = term_r_squared(X)
    for v in r2.values():
        assert v == pytest.approx(0.0, abs=1e-12)


def test_term_r_squared_duplicate_column_is_singular():
    col = np.arange(1.0, 6.0)
    X = ModelMatrix(("a", "b"), np.column_stack([col, col]))
    with pytest.raises(SingularMatrix):
        term_r_squared(X)


def test_term_r_squared_needs_two_columns():
    X = ModelMatrix(("a",), np.ones((3, 1)))
    with pytest.raises(ValueError):
        term_r_squared(X)


def test_expanded_design_report_matches_base_structure():
    # expansion preserves the blocking; the full report is exercised end
    # to end on an expanded design
    expanded = oofa_expand(czitrom_d_optimal())
    rep = criteria_report(build_model_matrix(expanded, scheffe_spec()))
    assert rep.n == 24 and rep.p == 13
    assert rep.avg_pv == pytest.approx(13 / 24, abs=1e-10)
