"""End-to-end acceptance checks, one test per numbered criterion.

Each test reproduces a published reference property of the built-in catalog
designs (or a frozen oracle value) from the design matrices alone. Reference
values are hard-coded with the tolerance each check is required to meet.
"""

import json
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from oamix.catalog import (aggarwal_a_oofa, aggarwal_a_optimal,
                           component_amount_projection_design, czitrom_d_oofa,
                           czitrom_d_optimal)
from oamix.cli import main
from oamix.core import BlockedDesign, ModelSpec, Run
from oamix.evaluate import (check_orthogonal_blocking, criteria_report,
                            fds_curve, power_table, term_r_squared)
from oamix.fit import ols_fit
from oamix.linalg import det_xtx, factor
from oamix.modelmat import (build_model_matrix, coded_model_matrix,
                            default_interaction_subset, model_rows)
from oamix.pwo import (enumerate_orderings, permutation_from_pwo,
                       pwo_from_permutation)
from oamix.serialize import parse_design_csv, write_design_csv, \
    write_fds_outputs

from _oracles import cofactor_det, cofactor_inverse, pwo_from_run

GOLDEN = Path(__file__).parent / "golden"


def scheffe_spec() -> ModelSpec:
    return ModelSpec("scheffe_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)


def k_spec() -> ModelSpec:
    return ModelSpec("k_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)


def ca_spec() -> ModelSpec:
    return ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)


def test_criterion_01_catalog_matches_golden_files():
    builders = {
        "czitrom-d.csv": czitrom_d_optimal(),
        "aggarwal-a.csv": aggarwal_a_optimal(),
        "czitrom-d-oofa.csv": czitrom_d_oofa(),
        "aggarwal-a-oofa.csv": aggarwal_a_oofa(),
        "ca-projection-unit.csv": component_amount_projection_design(1.0),
        "ca-projection-100.csv": component_amount_projection_design(100.0),
    }
    for name, design in builders.items():
        text = (GOLDEN / name).read_text()
        assert write_design_csv(design) == text, name
        parsed = parse_design_csv(text)
        assert parsed.n == design.n and parsed.n_blocks == design.n_blocks
        for got, want in zip(parsed.runs, design.runs):
            assert np.allclose(got.values, want.values, atol=1e-9)
            assert got.pwo == want.pwo
            assert got.block == want.block
            if want.amount is not None:
                assert got.amount == pytest.approx(want.amount, abs=1e-9)
        # ordering entries are zero whenever either component is absent
        for run in parsed.runs:
            for z, (j, k) in zip(run.pwo, ((1, 2), (1, 3), (2, 3))):
                if run.values[j - 1] == 0 or run.values[k - 1] == 0:
                    assert z == 0

    ca100 = parse_design_csv((GOLDEN / "ca-projection-100.csv").read_text())
    # corrected cells: run 23 leading amount, run 27 blank orderings
    assert ca100.runs[22].values == (76.0, 0.0, 24.0)
    assert ca100.runs[26].values == (0.0, 0.0, 76.0)
    assert ca100.runs[26].pwo == (0, 0, 0)


def test_criterion_02_average_prediction_variance_identity():
    rep = criteria_report(build_model_matrix(czitrom_d_oofa(), scheffe_spec()))
    assert rep.avg_pv == pytest.approx(13 / 24, abs=1e-10)
    rep = criteria_report(build_model_matrix(
        component_amount_projection_design(100.0), ca_spec()))
    assert rep.avg_pv == pytest.approx(17 / 36, abs=1e-10)


def test_criterion_03_max_prediction_variance():
    rep = criteria_report(build_model_matrix(czitrom_d_oofa(), scheffe_spec()))
    assert rep.max_pv == pytest.approx(0.922, abs=0.02)
    rep = criteria_report(build_model_matrix(aggarwal_a_oofa(), k_spec()))
    assert rep.max_pv == pytest.approx(0.941, abs=0.02)
    rep = criteria_report(build_model_matrix(
        component_amount_projection_design(100.0), ca_spec()))
    assert rep.max_pv == pytest.approx(0.883, abs=0.02)


def test_criterion_04_g_efficiency():
    rep = criteria_report(build_model_matrix(czitrom_d_oofa(), scheffe_spec()))
    assert rep.g_efficiency == pytest.approx(58.8, abs=1.0)
    rep = criteria_report(build_model_matrix(
        component_amount_projection_design(100.0), ca_spec()))
    assert rep.g_efficiency == pytest.approx(53.5, abs=1.0)
    rep = criteria_report(build_model_matrix(aggarwal_a_oofa(), k_spec()))
    assert 56.5 <= rep.g_efficiency <= 59.8


def test_criterion_05_standard_errors():
    pt = power_table(coded_model_matrix(czitrom_d_oofa(), scheffe_spec()))
    for name in ("x1", "x2", "x3"):
        assert pt[name].se == pytest.approx(0.81, abs=0.02), name
    for name in ("x1*x2", "x1*x3", "x2*x3"):
        assert pt[name].se == pytest.approx(1.10, abs=0.02), name
    for name in ("z12", "z13", "z23"):
        assert pt[name].se == pytest.approx(0.32, abs=0.02), name
    for name in ("x1*z12", "x1*z13", "x2*z23"):
        assert pt[name].se == pytest.approx(0.69, abs=0.02), name

    pt = power_table(coded_model_matrix(
        component_amount_projection_design(100.0), ca_spec()))
    expected = {"a1": 1.09, "a3": 0.97, "z12": 0.28, "z13": 0.38,
                "a1^2": 1.38, "a3^2": 1.41, "a1*a2": 0.82, "a1*a3": 0.96,
                "a1*z12": 0.56, "a2*z23": 0.75}
    for name, se in expected.items():
        assert pt[name].se == pytest.approx(se, abs=0.02), name


def test_criterion_06_term_r_squared():
    r2 = term_r_squared(coded_model_matrix(
        component_amount_projection_design(100.0), ca_spec()))
    expected = {"a1": 0.9484, "a3": 0.9384, "z12": 0.3816, "z13": 0.5667,
                "a1^2": 0.8664, "a3^2": 0.8853, "a1*a2": 0.8145,
                "a1*a3": 0.8542, "a1*z12": 0.3779, "a2*z23": 0.5648}
    for name, val in expected.items():
        assert r2[name] == pytest.approx(val, abs=0.01), name


def test_criterion_07_orthogonal_blocking():
    families = set()
    for design, spec in ((czitrom_d_oofa(), scheffe_spec()),
                         (aggarwal_a_oofa(), k_spec())):
        report = check_orthogonal_blocking(design, spec, tol=5e-3)
        assert report.passed
        for cond in report.conditions:
            if cond.condition in ("pwo_sum", "interaction_sum"):
                assert cond.tol == 0.0 and cond.discrepancy == 0.0
        families |= {c.condition for c in report.conditions}
    assert families == {"component_sum", "cross_product_sum", "square_sum",
                        "pwo_sum", "interaction_sum"}

    # moving one edge run across blocks must break named conditions
    d = czitrom_d_oofa()
    runs = list(d.runs)
    r0, r12 = runs[0], runs[12]
    runs[0] = Run(r12.values, r12.pwo, 1)
    runs[12] = Run(r0.values, r0.pwo, 2)
    bad = BlockedDesign(m=3, kind="proportion", runs=tuple(runs),
                        n_blocks=2, as_printed=True)
    report = check_orthogonal_blocking(bad, scheffe_spec(), tol=5e-3)
    assert not report.passed
    failed = {c.condition for c in report.failed()}
    assert "component_sum" in failed
    assert "pwo_sum" in failed


def test_criterion_08_pwo_round_trip_and_enumeration():
    for m in range(2, 6):
        components = range(1, m + 1)
        for bits in range(1, 2 ** m):
            support = tuple(c for c in components if bits >> (c - 1) & 1)
            values = [1.0 / len(support) if c in support else 0.0
                      for c in components]
            for perm in permutations(support):
                z = pwo_from_run(values, perm)
                assert permutation_from_pwo(z, support, m) == perm

    assert pwo_from_permutation((2, 1, 3), 3) == (-1, 1, 1)

    centroid_runs = czitrom_d_oofa().runs[6:12]
    assert tuple(r.pwo for r in centroid_runs) == \
        enumerate_orderings((1 / 3, 1 / 3, 1 / 3))


def test_criterion_09_linear_algebra_against_cofactor_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        size = trial % 6 + 1
        M = rng.standard_normal((size, size))
        f = factor(M)
        d_oracle = cofactor_det(M.T @ M)
        assert abs(det_xtx(f) - d_oracle) <= 1e-9 * max(1.0, abs(d_oracle))
        inv_oracle = cofactor_inverse(M.T @ M)
        scale = max(1.0, float(np.abs(inv_oracle).max()))
        assert float(np.abs(f.inv - inv_oracle).max()) <= 1e-9 * scale


def test_criterion_10_ols_recovery_orthogonality_block_invariance():
    X = build_model_matrix(czitrom_d_oofa(), scheffe_spec())
    rng = np.random.default_rng(7)
    beta = rng.standard_normal(X.p)

    fit = ols_fit(X, X.data @ beta)
    assert float(np.abs(np.array(fit.estimates) - beta).max()) <= 1e-8

    y = X.data @ beta + rng.standard_normal(X.n)
    fit = ols_fit(X, y)
    assert float(np.abs(X.data.T @ np.array(fit.residuals)).max()) <= 1e-8

    no_block = ModelSpec("scheffe_quadratic", include_pwo=True,
                         interaction_terms=default_interaction_subset(3))
    X0 = build_model_matrix(czitrom_d_oofa(), no_block)
    fit0 = ols_fit(X0, y)
    for name in X0.columns:
        assert fit.coefficient(name) == \
            pytest.approx(fit0.coefficient(name), abs=1e-8), name


def test_criterion_11_fds_determinism_and_lattice_bound(tmp_path):
    design = component_amount_projection_design(100.0)
    spec = ca_spec()
    curve = fds_curve(design, spec, 10_000, seed=42)
    again = fds_curve(design, spec, 10_000, seed=42)

    p1, _ = write_fds_outputs(curve, str(tmp_path / "one"))
    p2, _ = write_fds_outputs(again, str(tmp_path / "two"))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()

    v = np.array(curve.variances)
    assert (np.diff(v) >= 0).all()
    assert curve.variances[-1] == curve.maximum()

    # frozen regression value for this design, sample size and seed
    assert curve.median() == pytest.approx(0.6953114935146508, abs=1e-12)

    # exhaustive cover of the sampled space: 21-level simplex lattice at
    # every design amount level, all six orderings, both blocks
    X = build_model_matrix(design, spec)
    inv = factor(X.data).inv
    orderings = [pwo_from_permutation(p, 3) for p in permutations((1, 2, 3))]
    oracle_max = 0.0
    for i in range(21):
        for j in range(21 - i):
            props = (i / 20, j / 20, (20 - i - j) / 20)
            for amount in design.amount_levels():
                vals = tuple(p * amount for p in props)
                for z in orderings:
                    for blk in (1, 2):
                        row = model_rows(spec, 3, [vals], [z], [blk],
                                         [amount])[0]
                        oracle_max = max(oracle_max, float(row @ inv @ row))
    assert curve.maximum() <= oracle_max


def test_criterion_12_unreproduced_quantities_are_documented(tmp_path,
                                                             capsys):
    rep = criteria_report(build_model_matrix(czitrom_d_oofa(), scheffe_spec()))
    notes = " ".join(rep.notes)
    assert "not reproduced" in notes
    assert "D-efficiency" in notes and "power" in notes
    # our own values are still emitted under the documented conventions
    assert np.isfinite(rep.d_criterion) and rep.d_criterion > 0
    pt = power_table(coded_model_matrix(czitrom_d_oofa(), scheffe_spec()))
    assert all(0 < row.power <= 1 for row in pt.values())

    src = tmp_path / "d.csv"
    src.write_text((GOLDEN / "czitrom-d-oofa.csv").read_text())
    for args in (("eval", "-i", str(src), "--model", "scheffe-q", "--json"),
                 ("power", "-i", str(src), "--model", "scheffe-q", "--json")):
        assert main(list(args)) == 0
        payload = json.loads(capsys.readouterr().out)
        joined = " ".join(payload["notes"])
        assert "not reproduced" in joined
