import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oamix.fit
from oamix.catalog import (component_amount_projection_design, czitrom_d_oofa,
                           oofa_expand)
from oamix.core import BlockedDesign, ModelMatrix, ModelSpec, Run
from oamix.errors import InsufficientDF, SchemaError, Unsupported
from oamix.evaluate import criteria_report
from oamix.fit import FitResult, ols_fit, predict
from oamix.linalg import _inverse
from oamix.modelmat import (build_model_matrix, coded_model_matrix,
                            default_interaction_subset)


def t3_matrix(block=True):
    spec = ModelSpec("scheffe_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=block)
    return build_model_matrix(czitrom_d_oofa(), spec)


def test_noiseless_recovery():
    X = t3_matrix()
    beta0 = np.ones(X.p)
    fit = ols_fit(X, X.data @ beta0)
    assert np.max(np.abs(np.array(fit.estimates) - beta0)) <= 1e-8
    assert fit.sigma_hat <= 1e-8


def test_residual_orthogonality():
    X = t3_matrix()
    rng = np.random.default_rng(101)
    y = X.data @ rng.normal(size=X.p) + rng.normal(scale=0.4, size=X.n)
    fit = ols_fit(X, y)
    resid = np.array(fit.residuals)
    assert np.max(np.abs(X.data.T @ resid)) <= 1e-8 * np.max(np.abs(y))
    assert np.array(fit.fitted) + resid == pytest.approx(y, abs=1e-10)


def test_block_only_response_separates():
    X = t3_matrix()
    y = X.column("blk").copy()
    fit = ols_fit(X, y)
    for name, est in zip(fit.columns, fit.estimates):
        if name == "blk":
            assert est == pytest.approx(1.0, abs=1e-8)
        else:
            assert est == pytest.approx(0.0, abs=1e-8)


def test_intercept_only_column():
    X = ModelMatrix(("1",), np.ones((3, 1)))
    fit = ols_fit(X, [1.0, 2.0, 3.0])
    assert fit.estimates[0] == pytest.approx(2.0)
    assert fit.sigma_hat == pytest.approx(1.0)
    assert fit.df_residual == 2


def test_block_removal_leaves_other_estimates():
    rng = np.random.default_rng(103)
    Xb = t3_matrix(block=True)
    y = Xb.data @ rng.normal(size=Xb.p) + rng.normal(scale=0.3, size=Xb.n)
    with_block = ols_fit(Xb, y)
    without_block = ols_fit(t3_matrix(block=False), y)
    for name, est in zip(without_block.columns, without_block.estimates):
        est_b = with_block.coefficient(name)
        assert est == pytest.approx(est_b, abs=1e-8)


def test_r_squared_bounds_with_simplex_basis():
    rng = np.random.default_rng(107)
    X = t3_matrix()
    y = X.data @ rng.normal(size=X.p) + rng.normal(scale=0.5, size=X.n)
    fit = ols_fit(X, y)
    assert 0.0 <= fit.r_squared <= 1.0


def test_r_squared_is_uncentred_when_the_columns_span_no_constant():
    t = np.arange(1.0, 9.0)
    X = ModelMatrix(("t", "t2"), np.column_stack([t, t * t]))
    y = np.random.default_rng(5).normal(size=8) + t
    _, rss, _, _ = np.linalg.lstsq(X.data, y, rcond=None)
    assert ols_fit(X, y).r_squared == pytest.approx(1.0 - rss[0] / (y @ y),
                                                    rel=1e-12)


def test_fits_compare_and_hash_by_their_statistics(monkeypatch):
    inverses = []
    monkeypatch.setattr(oamix.fit, "_inverse",
                        lambda f: inverses.append(f) or _inverse(f))
    X = t3_matrix()
    y = X.data @ np.ones(X.p) + np.random.default_rng(3).normal(size=X.n)
    a, b = ols_fit(X, y), ols_fit(t3_matrix(), y)
    predict(a, X)
    assert a == b and hash(a) == hash(b)
    assert "info_inv" not in FitResult._fields and "info_inv" not in vars(a)
    assert inverses == []  # fitting forms no inverse
    np.testing.assert_array_equal(a.info_inv, _inverse(X.factor))
    assert a.info_inv is a.info_inv and len(inverses) == 1
    assert not a.info_inv.flags.writeable
    with pytest.raises(AttributeError, match="read-only"):
        a.info_inv = None
    with pytest.raises(AttributeError, match="read-only"):
        a.sigma_hat = 0.0


def test_insufficient_df():
    X = ModelMatrix(("a", "b"), np.eye(2))
    with pytest.raises(InsufficientDF):
        ols_fit(X, [1.0, 2.0])


def test_response_length_check():
    X = t3_matrix()
    with pytest.raises(SchemaError):
        ols_fit(X, np.ones(7))


def test_response_must_be_finite():
    X = t3_matrix()
    for bad in (np.nan, np.inf):
        y = np.ones(X.n)
        y[3] = bad
        with pytest.raises(SchemaError, match="non-finite"):
            ols_fit(X, y)


def test_predict_reproduces_fitted_values():
    X = t3_matrix()
    rng = np.random.default_rng(109)
    y = X.data @ rng.normal(size=X.p) + rng.normal(scale=0.2, size=X.n)
    fit = ols_fit(X, y)
    values, variances = predict(fit, X)
    assert values == pytest.approx(np.array(fit.fitted), abs=1e-10)
    # highest-leverage training row has the largest prediction variance
    inv = fit.info_inv
    pv = np.einsum("ij,jk,ik->i", X.data, inv, X.data)
    assert variances == pytest.approx(fit.sigma_hat ** 2 * pv, rel=1e-10)
    assert np.max(pv) == pytest.approx(0.922, abs=0.02)


def test_predict_checks_columns():
    X = t3_matrix()
    rng = np.random.default_rng(113)
    y = X.data @ np.ones(X.p) + rng.normal(scale=0.1, size=X.n)
    fit = ols_fit(X, y)
    with pytest.raises(SchemaError):
        predict(fit, t3_matrix(block=False))


def test_noiseless_prediction_matches_truth():
    X = t3_matrix()
    beta0 = np.linspace(1.0, 2.0, X.p)
    fit = ols_fit(X, X.data @ beta0)
    values, variances = predict(fit, X)
    assert values == pytest.approx(X.data @ beta0, abs=1e-8)
    assert np.max(variances) <= 1e-12


def lattice_6_4_matrix():
    """The {6, 4} simplex lattice in two blocks, expanded over addition
    orders: 1632 runs, k_quadratic with PWO and block columns (p = 37)."""
    pts = [tuple(c / 4 for c in combo)
           for combo in itertools.product(range(5), repeat=6)
           if sum(combo) == 4]
    base = BlockedDesign(m=6, kind="proportion", n_blocks=2, runs=[
        Run(x, (0,) * 15, b) for b in (1, 2) for x in pts])
    X = build_model_matrix(oofa_expand(base), ModelSpec(
        "k_quadratic", include_pwo=True, include_block=True))
    assert (X.n, X.p) == (1632, 37)
    return X


@pytest.mark.parametrize("make", [lattice_6_4_matrix, t3_matrix])
def test_own_row_variances_are_made_once_for_criteria_and_predict(
        monkeypatch, make):
    X = make()
    rng = np.random.default_rng(X.n)
    fit = ols_fit(X, 10.0 + rng.normal(size=X.n))
    own = X._own_variances
    values, variances = predict(fit, X)
    np.testing.assert_array_equal(variances, fit.sigma_hat ** 2 * own)
    np.testing.assert_array_equal(values, fit.fitted)
    assert criteria_report(X).max_pv == own.max()
    # a matrix built apart, equal or not, takes the kernel
    calls = []
    kernel = oamix.fit._point_variances
    monkeypatch.setattr(oamix.fit, "_point_variances",
                        lambda f, rows: calls.append(len(rows)) or
                        kernel(f, rows))
    apart = ModelMatrix(X.columns, X.data)
    np.testing.assert_array_equal(predict(fit, apart)[1], variances)
    assert calls == [X.n] and "factor" not in vars(apart)
    pts = X.data[:3].copy()
    pts[1, 0] = np.nan
    with pytest.raises(SchemaError, match="row 2 is not finite"):
        criteria_report(X, pts)


def test_fit_refuses_estimates_past_the_float_range():
    # squared amounts near 1e-308: their estimates would overflow
    spec = ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)
    X = build_model_matrix(component_amount_projection_design(1.5e-154), spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Unsupported) as exc:
            ols_fit(X, np.arange(36.0))
    assert str(exc.value).startswith(
        "the estimates of columns a1^2, a2^2, a3^2, a1*a2, a1*a3, a2*a3 are "
        "past the largest float")


@settings(max_examples=60, deadline=None)
@given(st.integers(-900, 900))
def test_fit_statistics_hold_at_any_scale_of_the_response(e):
    # scaling y by 2^e scales every statistic by 2^e exactly, R-squared
    # not at all, and warns nowhere
    X = t3_matrix()
    rng = np.random.default_rng(127)
    y = X.data @ rng.normal(size=X.p) + rng.normal(scale=0.3, size=X.n)
    base = ols_fit(X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = ols_fit(X, np.ldexp(y, e))
    for name in ("estimates", "se", "residuals", "fitted"):
        np.testing.assert_array_equal(getattr(fit, name),
                                      np.ldexp(getattr(base, name), e))
    assert fit.sigma_hat == np.ldexp(base.sigma_hat, e)
    assert fit.r_squared == base.r_squared


def test_fit_refuses_standard_errors_past_the_float_range():
    # y is orthogonal to both columns, so the estimates stay near 0 while
    # the se of the column in tiny units is past the largest float
    t = np.array([1.0, 2.0, 3.0, 4.0])
    X = ModelMatrix(("1", "t"), np.column_stack([np.ones(4), 1e-200 * t]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Unsupported) as exc:
            ols_fit(X, 1e110 * np.array([1.0, -1.0, -1.0, 1.0]))
    assert str(exc.value) == ("the standard errors of columns t are past the "
                              "largest float: scale their units up")


def test_predict_refuses_a_matrix_of_another_basis():
    # the two bases share column names, so only the basis tells them apart
    spec = ModelSpec("scheffe_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)
    raw = build_model_matrix(czitrom_d_oofa(), spec)
    coded = coded_model_matrix(czitrom_d_oofa(), spec)
    assert raw.columns == coded.columns
    y = np.arange(24.0)
    for fitted, other in ((raw, coded), (coded, raw)):
        with pytest.raises(SchemaError, match=f"^basis mismatch: fit is in "
                           f"the {fitted.basis} basis, new matrix in the "
                           f"{other.basis} basis$"):
            predict(ols_fit(fitted, y), other)
