"""The vectorized scipy.special power against the per-column scipy.stats
formula it replaced: equal bit for bit, not merely close."""

import math

import numpy as np
import pytest
from scipy import stats

from oamix.catalog import CATALOG
from oamix.core import (COMPONENT_AMOUNT_LINEAR, COMPONENT_AMOUNT_QUADRATIC,
                        K_QUADRATIC, SCHEFFE_LINEAR, SCHEFFE_QUADRATIC,
                        ModelSpec)
from oamix.errors import InsufficientDF, SingularMatrix
from oamix.evaluate import _power, criteria_report, power_table
from oamix.modelmat import (build_model_matrix, coded_model_matrix,
                            default_interaction_subset)

ALPHAS = (0.01, 0.05, 0.1)
EFFECTS = (0.25, 1.0, 2.0, 5.0, 30.0)


def stats_power(se, df, sigma, alpha, effect_sd):
    """The replaced formula: t.ppf for the critical value, nct.sf and
    nct.cdf for the two tails; se may be one value or an array."""
    tcrit = stats.t.ppf(1.0 - alpha / 2.0, df)
    ncp = effect_sd * sigma / se
    hi = stats.nct.sf(tcrit, df, ncp)
    lo = stats.nct.cdf(-tcrit, df, ncp)
    return hi + np.where(np.isfinite(lo), lo, 0.0)


def catalog_matrices():
    """Every catalog design under each family it admits, PWO on and off,
    in both bases; specs that leave the matrix singular are skipped."""
    out = []
    for name, make in sorted(CATALOG.items()):
        design = make(100.0) if name == "ca-projection" else make()
        families = ((COMPONENT_AMOUNT_LINEAR, COMPONENT_AMOUNT_QUADRATIC)
                    if design.kind == "amount"
                    else (SCHEFFE_LINEAR, SCHEFFE_QUADRATIC, K_QUADRATIC))
        for family in families:
            for pwo in (False, True):
                inter = (default_interaction_subset(3)
                         if pwo and family.endswith("quadratic") else ())
                spec = ModelSpec(family, include_pwo=pwo,
                                 interaction_terms=inter, include_block=True)
                for build in (build_model_matrix, coded_model_matrix):
                    X = build(design, spec)
                    try:
                        criteria_report(X)
                    except SingularMatrix:
                        continue
                    out.append((f"{name}/{family}/pwo={pwo}/{X.basis}", X))
    return out


MATRICES = catalog_matrices()


def test_catalog_cases_cover_every_design():
    names = {label.split("/")[0] for label, _ in MATRICES}
    assert names == set(CATALOG)
    assert len(MATRICES) >= 20


@pytest.mark.parametrize("label,X", MATRICES, ids=[m[0] for m in MATRICES])
def test_power_table_equals_scipy_stats(label, X):
    for alpha in ALPHAS:
        for effect in EFFECTS:
            try:
                table = power_table(X, alpha=alpha, effect_sd=effect)
            except InsufficientDF:
                return
            df = X.n - X.p
            for name, row in table.items():
                want = stats_power(row.se, df, 1.0, alpha, effect)
                assert row.power == want, (name, alpha, effect)


@pytest.mark.parametrize("label,X", MATRICES, ids=[m[0] for m in MATRICES])
def test_criteria_report_power_equals_scipy_stats(label, X):
    report = criteria_report(X)
    df = X.n - X.p
    for c in report.columns:
        if df > 0:
            assert c.power_2sd == stats_power(c.se, df, 1.0, 0.05, 2.0)
        else:
            assert math.isnan(c.power_2sd)


def test_power_grid_equals_scipy_stats():
    ncp = np.geomspace(0.05, 60.0, 61)
    for alpha in ALPHAS:
        for df in range(1, 60):
            se = 2.0 / ncp
            got = _power(se, df, alpha, 2.0)
            want = stats_power(se, df, 1.0, alpha, 2.0)
            assert np.array_equal(got, want), (alpha, df)
