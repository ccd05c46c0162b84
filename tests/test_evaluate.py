import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import fds_curve_per_sample, fsum_block_sums, mc_t_test_power
from oamix.catalog import (_CA_PROJECTION_UNIT, aggarwal_a_oofa,
                           aggarwal_a_optimal,
                           component_amount_projection_design,
                           czitrom_d_oofa, czitrom_d_optimal, oofa_expand)
from oamix.core import (FAMILIES, BlockedDesign, ModelMatrix, ModelSpec, Run,
                        pair_indices)
from oamix.errors import (InsufficientDF, NothingToCheck, SchemaError,
                          SingularMatrix, Unsupported)
from oamix.evaluate import _CHUNK as CHUNK
from oamix.evaluate import (FDS_SAMPLER, FDSCurve, check_orthogonal_blocking,
                            criteria_report, fds_curve, power_table,
                            term_r_squared)
from oamix.fit import ols_fit, predict
from oamix.linalg import _inverse, _point_variances
from oamix.modelmat import (build_model_matrix, coded_model_matrix,
                            column_names, default_interaction_subset,
                            full_interaction_set)
from oamix.pwo import pwo_from_permutation

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


CONDITION_CODES = {"1": "intercept_sum", "c": "component_sum",
                   "s": "square_sum", "x": "cross_product_sum",
                   "a": "amount_product_sum", "z": "pwo_sum",
                   "i": "interaction_sum"}
# the blocking condition of every column, one code letter per column in
# column order, with PWO columns and full_interaction_set(m)
CONDITIONS = {
    ("scheffe_linear", 2): "cczii",
    ("scheffe_linear", 3): "ccczzziiiiii",
    ("scheffe_linear", 4): "cccczzzzzziiiiiiiiiiii",
    ("scheffe_quadratic", 2): "ccxzii",
    ("scheffe_quadratic", 3): "cccxxxzzziiiiii",
    ("scheffe_quadratic", 4): "ccccxxxxxxzzzzzziiiiiiiiiiii",
    ("k_quadratic", 2): "ssxzii",
    ("k_quadratic", 3): "sssxxxzzziiiiii",
    ("k_quadratic", 4): "ssssxxxxxxzzzzzziiiiiiiiiiii",
    ("mixture_amount_linear", 2): "ccaazii",
    ("mixture_amount_linear", 3): "cccaaazzziiiiii",
    ("mixture_amount_linear", 4): "ccccaaaazzzzzziiiiiiiiiiii",
    ("mixture_amount_quadratic", 2): "ccxaaaaaazii",
    ("mixture_amount_quadratic", 3): "cccxxxaaaaaaaaaaaazzziiiiii",
    ("mixture_amount_quadratic", 4):
        "ccccxxxxxxaaaaaaaaaaaaaaaaaaaazzzzzziiiiiiiiiiii",
    ("component_amount_linear", 2): "1cczii",
    ("component_amount_linear", 3): "1ccczzziiiiii",
    ("component_amount_linear", 4): "1cccczzzzzziiiiiiiiiiii",
    ("component_amount_quadratic", 2): "1ccssxzii",
    ("component_amount_quadratic", 3): "1cccsssxxxzzziiiiii",
    ("component_amount_quadratic", 4): "1ccccssssxxxxxxzzzzzziiiiiiiiiiii",
}


@pytest.mark.parametrize("family,m", sorted(CONDITIONS))
def test_every_column_has_its_blocking_condition(family, m):
    assert set(FAMILIES) == {f for f, _ in CONDITIONS}
    # the vertices once in each block, each run with a total amount of 1
    design = BlockedDesign.from_arrays(
        m, FAMILIES[family].kind, np.vstack([np.eye(m)] * 2),
        np.zeros((2 * m, m * (m - 1) // 2)), np.repeat([1, 2], m),
        np.ones(2 * m), n_blocks=2)
    spec = ModelSpec(family, include_pwo=True,
                     interaction_terms=full_interaction_set(m),
                     include_block=True)
    report = check_orthogonal_blocking(design, spec)
    assert [c.term for c in report.conditions] == \
        list(column_names(ModelSpec(family, True, spec.interaction_terms), m))
    assert [c.condition for c in report.conditions] == \
        [CONDITION_CODES[code] for code in CONDITIONS[family, m]]


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


def lattice_oofa(m, q):
    """The {m, q} simplex lattice in each of 2 blocks, expanded: 50 runs at
    (5, 2), 730 at (5, 4) and 1632 at (6, 4)."""
    points = [np.array(c) / q for c in itertools.product(range(q + 1),
                                                          repeat=m)
              if sum(c) == q]
    block = [1] * len(points) + [2] * len(points)
    return oofa_expand(BlockedDesign.from_arrays(
        m, "proportion", np.array(points * 2),
        np.zeros((len(block), m * (m - 1) // 2)), block, None, 2))


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


@pytest.mark.parametrize("delta", [1e-12, 0.002])
def test_blocking_tolerance_facts_of_the_readme(delta):
    # run 1 of czitrom-d-oofa moved: x1 up and x2 down by delta. The
    # interaction x1*z12 is held to 0 and fails at any move; x2's component
    # sum moves by delta and is inside the 5e-3 tolerance at both
    d = czitrom_d_oofa()
    V = d.values.copy()
    V[0, :2] += (delta, -delta)
    moved = BlockedDesign.from_arrays(3, d.kind, V, d.pwo, d.block, None,
                                      d.n_blocks, as_printed=True)
    report = check_orthogonal_blocking(moved, scheffe_spec(block=False))
    assert [(c.term, c.condition) for c in report.conditions if not c.ok] \
        == [("x1*z12", "interaction_sum")]
    x2 = next(c for c in report.conditions if c.term == "x2")
    assert x2.condition == "component_sum" and x2.tol == 5e-3
    assert x2.discrepancy == pytest.approx(delta, rel=1e-3)


def test_blocking_single_block_raises():
    d = BlockedDesign(m=3, kind="proportion",
                      runs=(Run((0.5, 0.5, 0), (1, 0, 0), 1),), n_blocks=1)
    with pytest.raises(NothingToCheck):
        check_orthogonal_blocking(d, ModelSpec("scheffe_linear"))


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_blocking_refuses_a_negative_or_nan_tol(tol):
    with pytest.raises(Unsupported, match=re.escape(f"got {tol}")):
        check_orthogonal_blocking(czitrom_d_oofa(), scheffe_spec(), tol=tol)


@pytest.mark.parametrize("design, family, largest", [
    (czitrom_d_oofa, "scheffe_quadratic", (0.7007, 0.7016, 0.7016)),
    (aggarwal_a_oofa, "k_quadratic", (0.5985, 0.5997, 0.5997))])
def test_largest_alias_of_each_omitted_interaction(design, family, largest):
    # the default model fits 3 of the 6 interactions; each omitted one,
    # regressed on the fitted columns, carries this much into one of them
    def matrix(terms):
        return build_model_matrix(design(), ModelSpec(
            family, include_pwo=True, interaction_terms=terms,
            include_block=True))

    X1, X = matrix(default_interaction_subset(3)), matrix(
        full_interaction_set(3))
    assert (X1.p, X.p, np.linalg.matrix_rank(X.data)) == (13, 16, 16)
    omitted = [c for c in X.columns if c not in X1.columns]
    assert omitted == ["x2*z12", "x3*z13", "x3*z23"]
    alias = np.linalg.lstsq(X1.data, np.column_stack(
        [X.column(c) for c in omitted]), rcond=None)[0]
    assert np.abs(alias).max(axis=0) == pytest.approx(largest, abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(2, 4), case=st.sampled_from([
    (czitrom_d_oofa(), scheffe_spec()),
    (aggarwal_a_oofa(), ModelSpec("k_quadratic", include_pwo=True)),
    (component_amount_projection_design(100.0),
     ModelSpec("component_amount_quadratic", include_pwo=True,
               interaction_terms=default_interaction_subset(3))),
    (lattice_oofa(5, 2), ModelSpec("scheffe_quadratic", include_pwo=True)),
]))
def test_blocking_sums_match_fsum_over_column_lists(data, k, case):
    design, spec = case
    n = design.n
    order = np.array(data.draw(st.permutations(range(n))))
    block = np.array(data.draw(st.lists(st.integers(1, k), min_size=n,
                                        max_size=n)))
    block[order[:k]] = np.arange(1, k + 1)  # no block is empty
    shuffled = BlockedDesign.from_arrays(
        design.m, design.kind, design.values[order], design.pwo[order],
        block, design.amount[order], k)
    report = check_orthogonal_blocking(shuffled, spec)
    # the same floats, bit for bit: == on floats is exact
    assert ([c.block_sums for c in report.conditions]
            == fsum_block_sums(shuffled, spec))


def test_blocking_check_peak_memory_stays_near_the_matrix_size():
    # 1632 runs x 36 columns: each block's own columns, with no n x p
    # matrix, no copies of its rows and no list of Python floats
    design = lattice_oofa(6, 4)
    spec = ModelSpec("scheffe_quadratic", include_pwo=True)
    check_orthogonal_blocking(design, spec)  # the term table is cached
    nbytes = design.n * len(column_names(spec, design.m)) * 8
    tracemalloc.start()
    try:
        check_orthogonal_blocking(design, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * nbytes


@pytest.mark.parametrize("design,spec", [
    (czitrom_d_oofa(), scheffe_spec()),
    (lattice_oofa(5, 4), ModelSpec("scheffe_quadratic", include_pwo=True,
                                   include_block=True)),
], ids=["czitrom-d-oofa", "lattice-5-4"])
def test_analyses_of_one_matrix_share_one_factorization(factor_calls, design,
                                                        spec):
    X = build_model_matrix(design, spec)
    y = np.arange(X.n, dtype=float)
    criteria_report(X)
    power_table(X)
    term_r_squared(X)
    fit = ols_fit(X, y)
    predict(fit, X)
    assert factor_calls == [X.data.shape]
    assert not fit.info_inv.flags.writeable
    np.testing.assert_array_equal(fit.info_inv, _inverse(X.factor))


def test_singular_matrix_names_columns_on_every_call():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    X = ModelMatrix(("a", "b", "c"),
                    np.column_stack([col, np.ones(4), 2 * col]))
    for call in (criteria_report, term_r_squared):
        with pytest.raises(SingularMatrix) as exc:
            call(X)
        assert exc.value.names == ("c",)
        assert exc.value.offending == (2,)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_criteria_report_refuses_non_finite_eval_points(bad):
    X = ModelMatrix(("u", "v"), np.eye(2))
    pts = np.array([[1.0, 0.0], [0.5, bad]])
    with pytest.raises(SchemaError, match="row 2"):
        criteria_report(X, eval_points=pts)


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


CA_UNIT = build_model_matrix(component_amount_projection_design(1.0), CA_SPEC)
CA_UNIT_FDS = fds_curve(component_amount_projection_design(1.0), CA_SPEC, 64,
                        seed=3).variances


@settings(max_examples=40, deadline=None)
@given(log_a_max=st.floats(-150.0, 150.0))
def test_no_result_depends_on_the_amount_unit_over_300_decades(log_a_max):
    # RuntimeWarning is an error here: no overflow, underflow or rank loss
    design = component_amount_projection_design(10.0 ** log_a_max)
    X = build_model_matrix(design, CA_SPEC)
    rep, unit = criteria_report(X), criteria_report(CA_UNIT)
    assert X.factor.s.size == 17
    for key in ("g_efficiency", "max_pv", "avg_pv"):
        assert getattr(rep, key) == pytest.approx(getattr(unit, key),
                                                  rel=1e-12)
    assert 2.0 * np.sum(np.log(X.factor.s)) == pytest.approx(
        2.0 * np.sum(np.log(CA_UNIT.factor.s)), rel=1e-12)
    # the sampled totals are the design's levels to 12 significant digits
    curve = fds_curve(design, CA_SPEC, 64, seed=3)
    np.testing.assert_allclose(curve.variances, CA_UNIT_FDS, rtol=1e-9)


@pytest.mark.parametrize("a_max", [1e-150, 1e-12, 1e12, 1e150])
def test_coded_tables_do_not_depend_on_the_amount_unit(a_max):
    # below a total of 1 the equal-blend test is relative to the total too
    unit = coded_model_matrix(component_amount_projection_design(1.0),
                              CA_SPEC)
    X = coded_model_matrix(component_amount_projection_design(a_max),
                           CA_SPEC)
    np.testing.assert_allclose(X.data, unit.data, rtol=1e-12, atol=1e-12)
    got, want = power_table(X), power_table(unit)
    for name in X.columns:
        assert got[name] == pytest.approx(want[name], rel=1e-9)


def test_a_point_variance_does_not_depend_on_its_batch():
    # 1025 design rows, each scaled, evaluated together and one at a time
    X = build_model_matrix(czitrom_d_oofa(), scheffe_spec())
    rng = np.random.default_rng(1025)
    pts = X.data[rng.integers(X.n, size=1025)] * rng.uniform(0.1, 10.0,
                                                             (1025, 1))
    f = X.factor
    alone = np.array([_point_variances(f, pts[i:i + 1] / f.norms)[0]
                      for i in range(len(pts))])
    np.testing.assert_array_equal(_point_variances(f, pts / f.norms), alone)
    reports = [criteria_report(X, pts[i:i + 1]) for i in range(len(pts))]
    assert [r.max_pv for r in reports] == alone.tolist()
    rep = criteria_report(X, pts)
    assert (rep.max_pv, rep.avg_pv) == (alone.max(), alone.mean())
    fit = ols_fit(X, np.arange(X.n, dtype=float))
    _, together = predict(fit, ModelMatrix(X.columns, pts))
    one_by_one = [predict(fit, ModelMatrix(X.columns, pts[i:i + 1]))[1][0]
                  for i in range(len(pts))]
    assert together.tolist() == one_by_one
    np.testing.assert_array_equal(together, fit.sigma_hat ** 2 * alone)


def _labels_swapped(design):
    return BlockedDesign.from_arrays(
        design.m, design.kind, design.values, design.pwo, 3 - design.block,
        design.amount, design.n_blocks, design.as_printed)


SWAP_CASES = (
    (czitrom_d_optimal(), scheffe_spec(pwo=False, interactions=False)),
    (aggarwal_a_optimal(), ModelSpec("k_quadratic", include_block=True)),
    *BLOCKED_CASES,
    *((component_amount_projection_design(a_max), CA_SPEC)
      for a_max in (0.01, 1.0, 100.0, 1500.0, 1e5)),
)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(SWAP_CASES), seed=st.integers(0, 2 ** 32 - 1))
def test_swapping_block_labels_only_flips_the_block_column(case, seed):
    design, spec = case
    swapped = _labels_swapped(design)
    X = build_model_matrix(design, spec)
    Y = build_model_matrix(swapped, spec)
    # bit for bit: repr tells 0.0 from -0.0, and a NaN matches a NaN
    assert repr(criteria_report(Y)) == repr(criteria_report(X))
    base = check_orthogonal_blocking(design, spec)
    other = check_orthogonal_blocking(swapped, spec)
    assert other.passed == base.passed
    assert other.conditions == tuple(
        c._replace(block_sums=c.block_sums[::-1]) for c in base.conditions)
    y = np.random.default_rng(seed).normal(size=design.n)
    fit_x, fit_y = ols_fit(X, y), ols_fit(Y, y)
    blk = X.columns.index("blk")
    flipped = list(fit_y.estimates)
    flipped[blk] = -flipped[blk]
    assert flipped == list(fit_x.estimates)
    assert fit_y.se == fit_x.se


@pytest.mark.parametrize("a_max", [1.0, 100.0])
def test_ca_projection_is_not_orthogonally_blocked(a_max):
    # oofa_expand weights a base run by s!, and the blocks put different
    # components in their singletons and pairs: a1, a2 and a3 (and their
    # squares) part by 0.52, 0.52 and 1.04 x a_max (x a_max^2), while
    # every ordering and interaction sum balances
    design = component_amount_projection_design(a_max)
    tol = 5e-3 * a_max ** 2
    parts = {"a1": 0.52, "a2": 0.52, "a3": 1.04}
    for family, squares in (("component_amount_linear", False),
                            ("component_amount_quadratic", True)):
        want = {t: f * a_max for t, f in parts.items()}
        if squares:
            want |= {f"{t}^2": f * a_max ** 2 for t, f in parts.items()}
        for pwo, terms in ((False, ()), (True, ()),
                           (True, default_interaction_subset(3)),
                           (True, full_interaction_set(3))):
            spec = ModelSpec(family, include_pwo=pwo, interaction_terms=terms,
                             include_block=True)
            report = check_orthogonal_blocking(design, spec, tol)
            assert not report.passed
            failed = {c.term: c.discrepancy for c in report.failed()}
            assert failed == pytest.approx(want, rel=1e-9)
            assert all(c.discrepancy == 0.0 for c in report.conditions
                       if c.condition in ("pwo_sum", "interaction_sum"))
        # the unexpanded 18-run base is orthogonally blocked
        unit = np.array(_CA_PROJECTION_UNIT)
        values = unit[:, :3] * a_max
        base = BlockedDesign.from_arrays(3, "amount", values,
                                         np.zeros((18, 3)), unit[:, 3],
                                         values.sum(axis=1), n_blocks=2)
        assert check_orthogonal_blocking(base, ModelSpec(family), tol).passed


def _gls(X, y, block, eta):
    """GLS estimates under y = X b + Z g + e with Var(g) = eta I, Z the
    block incidence: least squares after whitening by chol(I + eta Z Z')."""
    Z = (block[:, None] == np.unique(block)).astype(float)
    L = np.linalg.cholesky(np.eye(len(y)) + eta * Z @ Z.T)
    return np.linalg.lstsq(np.linalg.solve(L, X), np.linalg.solve(L, y),
                           rcond=None)[0]


@pytest.mark.parametrize("family", ["scheffe_quadratic", "k_quadratic"])
@pytest.mark.parametrize("design", [czitrom_d_oofa(), aggarwal_a_oofa()],
                         ids=["czitrom-d-oofa", "aggarwal-a-oofa"])
def test_orthogonal_blocks_make_gls_with_random_blocks_equal_ols(design,
                                                                 family):
    # Zyskind (1967): GLS = OLS for every eta when col(Z Z' X) lies in
    # col(X); equal block sums of every column make Z Z' X = 1 s', and
    # the mixture terms span 1. No block column is fitted.
    spec = ModelSpec(family, include_pwo=True,
                     interaction_terms=default_interaction_subset(3))
    X = build_model_matrix(design, spec)
    y = np.random.default_rng(12).normal(size=X.n)
    ols = np.array(ols_fit(X, y).estimates)
    shuffled = np.random.default_rng(5).permutation(design.block)
    moved = BlockedDesign.from_arrays(design.m, design.kind, design.values,
                                      design.pwo, shuffled, None, 2, True)
    assert check_orthogonal_blocking(design, spec).passed
    assert not check_orthogonal_blocking(moved, spec).passed
    for eta in (0.1, 1.0, 10.0, 1000.0):
        gls = _gls(X.data, y, design.block, eta)
        assert np.abs(gls - ols).max() <= 1e-10 * np.abs(ols).max()
        # the control: blocks that are not orthogonal move the estimates
        assert np.abs(_gls(X.data, y, shuffled, eta) - ols).max() > 0.1


def _at_block_totals(design, totals, block=None):
    """design with each run at the total amount of its block."""
    block = design.block if block is None else block
    return BlockedDesign.from_arrays(
        design.m, design.kind, design.values, design.pwo, block,
        np.asarray(totals, dtype=float)[block - 1], 2, design.as_printed)


def _amount_free_move(design, spec):
    """How far the estimates of the columns free of A move on a seeded
    response when the centred amount columns x_i (A - mean A) join them."""
    X = build_model_matrix(design, spec)
    free = [j for j, name in enumerate(X.columns) if "*A" not in name]
    alone = ModelMatrix([X.columns[j] for j in free], X.data[:, free])
    A = design.amount
    centred = design.values * (A - A.mean())[:, None]
    both = ModelMatrix(alone.columns + ("c1", "c2", "c3"),
                       np.hstack([alone.data, centred]))
    y = np.random.default_rng(15).normal(size=X.n)
    moved = (np.array(ols_fit(both, y).estimates[:len(free)])
             - ols_fit(alone, y).estimates)
    return np.abs(moved).max()


@pytest.mark.parametrize("design,g_efficiency", [
    (czitrom_d_oofa(), 56.791), (aggarwal_a_oofa(), 55.585),
], ids=["czitrom-d-oofa", "aggarwal-a-oofa"])
def test_total_amount_as_the_block_factor(design, g_efficiency):
    # the paper's mixture-amount setting: the total amount A is constant
    # within each orthogonal block, so the A-terms are the process effects
    # and the A-free columns (x_i, PWO, interactions) do not see them
    spec = ModelSpec("mixture_amount_linear", include_pwo=True,
                     interaction_terms=default_interaction_subset(3))
    shuffled = np.random.default_rng(5).permutation(design.block)
    assert np.bincount(shuffled).tolist() == [0, 12, 12]
    for totals in ((1, 2), (1, 5), (10, 100)):
        blocked = _at_block_totals(design, totals)
        report = criteria_report(build_model_matrix(blocked, spec))
        assert report.p == 12
        assert report.g_efficiency == pytest.approx(g_efficiency, abs=5e-4)
        assert _amount_free_move(blocked, spec) <= 1e-12
        # the control: blocks that are not orthogonal move them
        assert _amount_free_move(_at_block_totals(design, totals, shuffled),
                                 spec) > 1
        # the check holds the A-terms to equal block sums, which blocks at
        # different totals cannot give
        assert [c.term for c in check_orthogonal_blocking(
            blocked, spec).failed()] == ["x1*A", "x2*A", "x3*A"]


def _lattice_matrix(q, spec, copies=1, move=None):
    """Model matrix of the {3, q} simplex lattice, copies of it in as many
    blocks, with the point move[0] of each copy moved to move[1]."""
    points = [list(np.array(c) / q) for c in
              itertools.product(range(q + 1), repeat=3) if sum(c) == q]
    if move is not None:
        points[points.index(move[0])] = move[1]
    block = [1 + i // len(points) for i in range(len(points) * copies)]
    design = BlockedDesign.from_arrays(3, "proportion", points * copies,
                                       np.zeros((len(block), 3)), block, None,
                                       copies)
    return build_model_matrix(design, spec)


def test_lattice_variance_meets_the_kiefer_wolfowitz_bound():
    # Kiefer & Wolfowitz (1960): a D-optimal design has max d(x) = p/n
    # over the design region; the {3,2} lattice is D-optimal for the
    # Scheffe quadratic (Kiefer 1961) and the {3,1} for the linear model
    quadratic = ModelSpec("scheffe_quadratic")
    region = _lattice_matrix(60, quadratic).data
    report = criteria_report(_lattice_matrix(2, quadratic), region)
    assert (report.n, report.p) == (6, 6)
    assert report.max_pv == pytest.approx(1.0, abs=1e-12)
    assert report.g_efficiency == pytest.approx(100.0, abs=1e-9)
    doubled = criteria_report(_lattice_matrix(2, quadratic, copies=2), region)
    assert doubled.max_pv == pytest.approx(0.5, abs=1e-12)
    # off the optimum the bound is passed (1.027 with one midpoint moved)
    moved = _lattice_matrix(2, quadratic, move=([0.5, 0, 0.5], [0.45, 0, 0.55]))
    assert criteria_report(moved, region).max_pv > 1.02
    linear = ModelSpec("scheffe_linear")
    assert criteria_report(_lattice_matrix(1, linear),
                           _lattice_matrix(60, linear).data).max_pv == \
        pytest.approx(1.0, abs=1e-12)


def _relabelled(design, perm):
    """design with its new component c the old component perm[c - 1]: the
    values permuted, the PWO columns re-indexed and re-signed to match."""
    pairs = pair_indices(design.m)
    cols, signs = [], []
    for j, k in pairs:
        a, b = perm[j - 1], perm[k - 1]
        cols.append(pairs.index((min(a, b), max(a, b))))
        signs.append(1 if a < b else -1)
    return BlockedDesign.from_arrays(
        design.m, design.kind, design.values[:, np.array(perm) - 1],
        design.pwo[:, cols] * np.array(signs, dtype=np.int8), design.block,
        None, design.n_blocks, design.as_printed)


@pytest.mark.parametrize("design,family,d_values", [
    (czitrom_d_oofa(), "scheffe_quadratic", {0.057671, 0.057679, 0.057687}),
    (aggarwal_a_oofa(), "k_quadratic", {0.051070, 0.051080, 0.051091}),
], ids=["czitrom-d-oofa", "aggarwal-a-oofa"])
def test_relabelling_components_moves_only_the_default_subset(design, family,
                                                              d_values):
    def scores(terms):
        spec = ModelSpec(family, include_pwo=True, interaction_terms=terms,
                         include_block=True)
        out = []
        for perm in itertools.permutations(range(1, design.m + 1)):
            relabelled = _relabelled(design, perm)
            assert check_orthogonal_blocking(relabelled, spec).passed
            rep = criteria_report(build_model_matrix(relabelled, spec))
            out.append((rep.g_efficiency, rep.d_criterion))
        return np.array(out)

    # the empty and the full interaction sets are closed under relabelling
    for terms in ((), full_interaction_set(3)):
        got = scores(terms)
        np.testing.assert_allclose(got, np.broadcast_to(got[0], got.shape),
                                   rtol=1e-9)
    # the default subset (1:12, 1:13, 2:23) is not: d_criterion takes three
    # values, two relabellings each, and g_efficiency moves past 1e-9 but
    # not past 1e-5
    got = scores(default_interaction_subset(3))
    assert Counter(np.round(got[:, 1], 6).tolist()) == \
        dict.fromkeys(d_values, 2)
    g = got[:, 0]
    assert 1e-9 < (g.max() - g.min()) / g.max() < 1e-5


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
    assert len(curve.variances) == curve.n_samples == 1


def test_fds_curve_stores_only_its_variances_and_seed():
    curve = fds_curve(czitrom_d_oofa(), scheffe_spec(), 7, seed=3)
    assert vars(curve).keys() == {"variances", "seed"}  # fractions on read
    assert curve.n_samples == 7
    assert curve.fractions == tuple((i - 0.5) / 7 for i in range(1, 8))
    assert curve.sampler == FDSCurve.sampler == FDS_SAMPLER
    assert curve == FDSCurve(curve.variances, 3)
    assert hash(curve) == hash(FDSCurve(curve.variances, 3))


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


def test_fds_seeds_share_no_sample():
    # each seed owns the high 64 bits of every sample's seed, so no two
    # seeds draw the same sample stream (seed XOR index made 0 and 1 equal)
    spec = scheffe_spec()
    drawn = [set(fds_curve(czitrom_d_oofa(), spec, 10_000, seed=s).variances)
             for s in (0, 1, 42)]
    assert [len(v) for v in drawn] == [10_000] * 3
    for a, b in itertools.combinations(drawn, 2):
        assert not a & b


def test_fds_amount_design_uses_design_levels():
    d = component_amount_projection_design(100.0)
    spec = ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)
    curve = fds_curve(d, spec, 50, seed=3)
    assert len(curve.variances) == 50
    assert all(v > 0 for v in curve.variances)


@pytest.mark.parametrize("n", [0, -3, 10.5, True, 10.0, "10", None])
def test_fds_rejects_bad_sample_count(n):
    with pytest.raises(Unsupported, match=re.escape(repr(n))):
        fds_curve(czitrom_d_oofa(), scheffe_spec(), n)


@pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "7", None])
def test_fds_rejects_bad_seed(seed):
    with pytest.raises(Unsupported, match=re.escape(repr(seed))):
        fds_curve(czitrom_d_oofa(), scheffe_spec(), 10, seed)


def test_fds_accepts_numpy_integers():
    want = fds_curve(czitrom_d_oofa(), scheffe_spec(), 20, -1)
    assert fds_curve(czitrom_d_oofa(), scheffe_spec(), np.int64(20),
                     np.int64(-1)) == want


def random_ordered_design(m, n, seed):
    """n full-support runs of m components, each with a random addition
    order, alternating between 2 blocks, and the Scheffe linear model with
    PWO and block columns."""
    rng = np.random.default_rng(seed)
    pwo = [pwo_from_permutation(rng.permutation(m) + 1, m) for _ in range(n)]
    design = BlockedDesign.from_arrays(
        m, "proportion", rng.dirichlet(np.ones(m), n), np.array(pwo),
        np.arange(n) % 2 + 1, None, 2)
    return design, ModelSpec("scheffe_linear", include_pwo=True,
                             include_block=True)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("seed", [0, 42, -1, 2 ** 64 + 3])
@pytest.mark.parametrize("design,spec", [
    (czitrom_d_oofa(), scheffe_spec()),
    (component_amount_projection_design(100.0), CA_SPEC),
    (lattice_oofa(5, 2), ModelSpec("scheffe_quadratic", include_pwo=True,
                                   include_block=True)),
    random_ordered_design(8, 50, seed=8),
    random_ordered_design(9, 60, seed=9),
], ids=["czitrom-d-oofa/scheffe-q", "ca-projection@100/ca-q",
        "lattice-5-2/scheffe-q", "random-m8/scheffe-l", "random-m9/scheffe-l"])
def test_fds_curve_matches_per_sample_oracle(design, spec, seed, n):
    # the array passes after the draw loop keep the stream bit for bit
    curve = fds_curve(design, spec, n, seed)
    assert curve == fds_curve_per_sample(design, spec, n, seed)
    assert curve.sampler == FDS_SAMPLER


def test_fds_memory_does_not_grow_with_m_factorial():
    # 9! = 362880 orders; a table of their PWO rows alone is over 100 MB
    design, spec = random_ordered_design(9, 60, seed=8)
    tracemalloc.start()
    try:
        fds_curve(design, spec, 1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


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


@pytest.mark.parametrize("alpha,effect_sd,name", [
    (1.5, 2.0, "alpha"), (1.0, 2.0, "alpha"), (0.0, 2.0, "alpha"),
    (-0.05, 2.0, "alpha"), (math.nan, 2.0, "alpha"),
    (0.05, math.nan, "effect_sd"), (0.05, -math.inf, "effect_sd")])
def test_power_refuses_bad_alpha_or_effect(alpha, effect_sd, name):
    X = coded_model_matrix(czitrom_d_oofa(), scheffe_spec())
    # inside (0, 1) no power exceeds 1
    for level in (0.05, 0.5, 0.999):
        assert max(r.power for r in power_table(X, alpha=level).values()) <= 1
    with pytest.raises(Unsupported, match=name):
        power_table(X, alpha=alpha, effect_sd=effect_sd)


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
    with pytest.raises(Unsupported, match="at least 2 columns, got 1"):
        term_r_squared(X)


@pytest.mark.parametrize("points", [[["a"]], [[1.0, 2.0], [3.0]], [[{}]]])
def test_eval_points_that_are_not_numbers_are_a_schema_error(points):
    X = build_model_matrix(czitrom_d_oofa(), scheffe_spec())
    with pytest.raises(SchemaError, match="^eval points are not numbers$"):
        criteria_report(X, points)


def test_expanded_design_report_matches_base_structure():
    # expansion preserves the blocking; the full report is exercised end
    # to end on an expanded design
    expanded = oofa_expand(czitrom_d_optimal())
    rep = criteria_report(build_model_matrix(expanded, scheffe_spec()))
    assert rep.n == 24 and rep.p == 13
    assert rep.avg_pv == pytest.approx(13 / 24, abs=1e-10)
