"""The numpy power kernel against the per-column scipy.stats formula
(t.ppf, nct.sf, nct.cdf): within 1e-12 on every catalog matrix, over a
grid of degrees of freedom, levels and noncentralities, and at the edges
of the input range, where it reads nan exactly where scipy does."""

import math
import warnings

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
TOL = 1e-12


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
def test_power_table_matches_scipy_stats(label, X):
    for alpha in ALPHAS:
        for effect in EFFECTS:
            try:
                table = power_table(X, alpha=alpha, effect_sd=effect)
            except InsufficientDF:
                return
            df = X.n - X.p
            for name, row in table.items():
                want = stats_power(row.se, df, 1.0, alpha, effect)
                assert abs(row.power - want) <= TOL, (name, alpha, effect)


@pytest.mark.parametrize("label,X", MATRICES, ids=[m[0] for m in MATRICES])
def test_criteria_report_power_matches_scipy_stats(label, X):
    report = criteria_report(X)
    df = X.n - X.p
    for c in report.columns:
        if df > 0:
            want = stats_power(c.se, df, 1.0, 0.05, 2.0)
            assert abs(c.power_2sd - want) <= TOL
        else:
            assert math.isnan(c.power_2sd)


def test_power_grid_matches_scipy_stats():
    ncp = np.geomspace(0.05, 60.0, 61)
    se = 2.0 / ncp
    for alpha in (0.001, *ALPHAS, 0.2):
        for df in (*range(1, 60), 100, 300, 1000, 1600, 3000, 5000):
            got = _power(se, df, alpha, 2.0)
            want = stats_power(se, df, 1.0, alpha, 2.0)
            assert np.max(np.abs(got - want)) <= TOL, (alpha, df)


NCP_EDGE = 2.0 ** 31.5  # scipy's nctdtr reads nan from this noncentrality on
# (df, alpha, effect_sd, se values, power of each): the values scipy's
# stdtrit/nctdtr gave at the edges of the input range
PINNED = (
    (10, 0.05, 2.0, (0.0, math.nan, math.inf, 1e-300, 0.5),
     (math.nan, math.nan, 0.050000000000000044, math.nan,
      0.9488352557576999)),
    (10, 0.05, 0.0, (0.3, 1.0), (0.050000000000000044,) * 2),
    (10, 0.05, -2.0, (0.3, 1.0), (0.9999660023006264, 0.4396273011248702)),
    (10, 1e-300, 2.0, (0.3, 1.0, 1e-3), (0.0, 0.0, 0.0)),
    (10, 5e-324, 2.0, (0.3, 1.0, 1e-3), (0.0, 0.0, 0.0)),
    (10, 0.9999999, 2.0, (0.3, 1.0, 1e-3),
     (0.9999999999999999, 0.9999999864664717, 1.0)),
    (1, 0.05, 2.0, (0.3, 1.0, 2.0, 0.01),
     (0.3990679439209271, 0.1257563177570528, 0.07298889446967004, 1.0)),
    (2, 0.05, 2.0, (0.3, 1.0, 2.0, 0.01),
     (0.891169098206947, 0.21830707484678252, 0.09520175549788396, 1.0)),
    (1, 1e-300, 2.0, (0.3, 1e-3), (0.0, 0.0)),
    (2, 5e-324, 2.0, (0.3, 1e-3), (0.0, 0.0)),
    *((df, 0.05, 2.0, (2.0 / np.nextafter(NCP_EDGE, 0.0), 2.0 / NCP_EDGE),
       (1.0, math.nan)) for df in (1, 10, 1600)),
)


@pytest.mark.parametrize("df,alpha,effect,ses,want", PINNED)
def test_power_at_the_edges_of_its_range(df, alpha, effect, ses, want):
    with np.errstate(divide="ignore"):  # se 0 divides by zero
        got = _power(np.array(ses), df, alpha, effect)
    for g, w in zip(got, want):
        if math.isnan(w):
            assert math.isnan(g)
        else:
            assert abs(g - w) <= 1e-12


def test_power_table_of_a_huge_effect_warns_nothing():
    label, X = next(m for m in MATRICES if m[1].n > m[1].p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = power_table(X, effect_sd=1e308)
    # effect_sd/se overflows: past the noncentrality range, so nan
    assert all(math.isnan(row.power) for row in table.values()), label


@pytest.mark.parametrize("df,alpha,ncps", [
    (1, 1e-3, (400.0, 600.0, 1e3, 3e3)),
    (1, 1e-2, (300.0, 400.0, 1e3)),
    (2, 1e-4, (300.0, 400.0, 600.0)),
])
def test_power_past_a_cut_table_matches_scipy_stats(df, alpha, ncps):
    # x near 1: the tail table stops at its cap before its terms fade, and
    # these noncentralities need Poisson weights past it
    se = 2.0 / np.array(ncps)
    got = _power(se, df, alpha, 2.0)
    assert np.max(np.abs(got - stats_power(se, df, 1.0, alpha, 2.0))) <= TOL


@pytest.mark.parametrize("df,alpha,ncp,want", [
    # 40-digit quadrature over the chi variable (mpmath); scipy's kernel
    # took its critical value from 1 - alpha/2, which keeps only the
    # leading digits of such an alpha
    (1, 1e-6, 1e5, 0.12481791092691397),
    (2, 1e-6, 1e3, 0.6321207427684162),
    (4, 1e-12, 1e3, 0.1971504091554419),
])
def test_power_at_a_tiny_alpha_matches_quadrature(df, alpha, ncp, want):
    assert abs(_power(np.array([2.0 / ncp]), df, alpha, 2.0)[0]
               - want) <= TOL
