import math
from pathlib import Path

import numpy as np
import pytest

from oamix.catalog import (CATALOG, _latin_square_blocks, aggarwal_a_oofa,
                           aggarwal_a_optimal,
                           component_amount_projection_design,
                           czitrom_d_oofa, czitrom_d_optimal, oofa_expand)
from oamix.core import (K_QUADRATIC, SCHEFFE_QUADRATIC, BlockedDesign,
                        ModelSpec, Run, validate_design)
from oamix.errors import AlreadyExpanded, EmptySupport, InvalidAmount
from oamix.linalg import log_det_xtx
from oamix.modelmat import build_model_matrix
from oamix.serialize import write_design_csv

GOLDEN = Path(__file__).parent / "golden"


def test_every_catalog_design_validates():
    for name, ctor in CATALOG.items():
        design = ctor(100.0) if name == "ca-projection" else ctor()
        assert validate_design(design) == [], name


def test_czitrom_base_layout():
    d = czitrom_d_optimal()
    assert (d.m, d.kind, d.n, d.n_blocks) == (3, "proportion", 8, 2)
    assert d.runs[0].values == (0.168, 0.832, 0)
    assert d.runs[0].block == 1
    assert all(r.pwo == (0, 0, 0) for r in d.runs)
    for r in d.runs:
        assert sum(r.values) == pytest.approx(1.0, abs=1e-9)
    # orthogonal blocks balance the component sums
    for i in range(3):
        s1 = sum(r.values[i] for r in d.runs if r.block == 1)
        s2 = sum(r.values[i] for r in d.runs if r.block == 2)
        assert s1 == pytest.approx(s2, abs=1e-9)
    s1 = sum(r.values[0] for r in d.runs if r.block == 1)
    assert s1 == pytest.approx(1.333, abs=1e-9)


def test_aggarwal_base_layout():
    d = aggarwal_a_optimal()
    assert d.runs[2].values == (0, 0.239, 0.761)
    for r in d.runs:
        assert sum(r.values) == pytest.approx(1.0, abs=1e-9)
    cross = lambda r: r.values[0] * r.values[1]
    s1 = sum(cross(r) for r in d.runs if r.block == 1)
    s2 = sum(cross(r) for r in d.runs if r.block == 2)
    assert s1 == pytest.approx(s2, abs=1e-9)


def test_latin_square_edge_point_is_d_optimal():
    # log det(X'X) of Scheffe quadratic plus block over the edge point a
    # (b = 1 - a) peaks at Czitrom's printed 0.168
    from scipy.optimize import minimize_scalar
    spec = ModelSpec(SCHEFFE_QUADRATIC, include_block=True)

    def neg_log_det(a):
        X = build_model_matrix(_latin_square_blocks(a, 1.0 - a), spec)
        return -log_det_xtx(X.factor)

    best = minimize_scalar(neg_log_det, bounds=(0.05, 0.45), method="bounded",
                           options={"xatol": 1e-7})
    assert best.success
    assert best.x == pytest.approx(0.1685, abs=5e-4)


@pytest.mark.parametrize("family, edge", [(K_QUADRATIC, 0.23901),
                                          (SCHEFFE_QUADRATIC, 0.18333)])
def test_latin_square_a_optimal_edge_point_depends_on_the_model(family, edge):
    # trace((X'X)^-1) over the edge point a (b = 1 - a) is least at
    # Aggarwal's printed 0.239 under the K-model; the Scheffe quadratic
    # would put it at 0.183
    from scipy.optimize import minimize_scalar
    spec = ModelSpec(family, include_block=True)

    def a_criterion(a):
        X = build_model_matrix(_latin_square_blocks(a, 1.0 - a), spec)
        return float(np.trace(X.factor.inv))

    best = minimize_scalar(a_criterion, bounds=(0.05, 0.45), method="bounded",
                           options={"xatol": 1e-7})
    assert best.success
    assert best.x == pytest.approx(edge, abs=1e-5)


def test_expand_matches_catalog_oofa_designs():
    for base_ctor, oofa_ctor, golden in (
            (czitrom_d_optimal, czitrom_d_oofa, "czitrom-d-oofa.csv"),
            (aggarwal_a_optimal, aggarwal_a_oofa, "aggarwal-a-oofa.csv")):
        text = (GOLDEN / golden).read_text()
        assert write_design_csv(oofa_expand(base_ctor())) == text
        assert write_design_csv(oofa_ctor()) == text


def test_expand_block_sizes_and_grouping():
    expanded = oofa_expand(czitrom_d_optimal())
    assert [r.block for r in expanded.runs] == [1] * 12 + [2] * 12
    # per base run: two edge orderings each, then six centroid orderings
    sizes = []
    prev, count = None, 0
    for r in expanded.runs[:12]:
        if r.values != prev:
            if prev is not None:
                sizes.append(count)
            prev, count = r.values, 1
        else:
            count += 1
    sizes.append(count)
    assert sizes == [2, 2, 2, 6]


def test_expand_centroid_ordering_sequence():
    expanded = oofa_expand(czitrom_d_optimal())
    centroid = [r.pwo for r in expanded.runs[6:12]]
    assert centroid == [(1, 1, 1), (1, 1, -1), (1, -1, -1),
                        (-1, 1, 1), (-1, -1, 1), (-1, -1, -1)]


def test_expand_vertex_run_is_trivial():
    d = BlockedDesign(m=3, kind="proportion",
                      runs=(Run((1.0, 0, 0), (0, 0, 0), 1),
                            Run((0.5, 0.5, 0), (0, 0, 0), 2)),
                      n_blocks=2)
    out = oofa_expand(d)
    assert out.n == 3
    assert out.runs[0].pwo == (0, 0, 0)


def test_expand_rejects_a_run_without_support():
    d = BlockedDesign(m=3, kind="proportion",
                      runs=(Run((1.0, 0, 0), (0, 0, 0), 1),
                            Run((0, 0, 0), (0, 0, 0), 2)),
                      n_blocks=2)
    with pytest.raises(EmptySupport, match="run 2"):
        oofa_expand(d)


def test_expand_rejects_expanded_input():
    with pytest.raises(AlreadyExpanded):
        oofa_expand(czitrom_d_oofa())


def test_expand_pwo_columns_balance_within_blocks():
    expanded = oofa_expand(czitrom_d_optimal())
    for b in (1, 2):
        sums = np.sum([r.pwo for r in expanded.runs if r.block == b], axis=0)
        assert np.array_equal(sums, [0, 0, 0])


def test_ca_projection_unit_scale():
    d = component_amount_projection_design(1.0)
    assert (d.m, d.kind, d.n, d.n_blocks) == (3, "amount", 36, 2)
    assert sum(1 for r in d.runs if r.block == 1) == 18
    r3 = d.runs[2]
    assert r3.values == (0.24, 0, 0.76)
    assert r3.pwo == (0, 1, 0)
    assert r3.amount == pytest.approx(1.0)
    assert d.amount_levels() == pytest.approx((0.24, 0.75, 0.76, 1.0))


def test_ca_projection_mg_scale():
    d = component_amount_projection_design(100.0)
    r21 = d.runs[20]
    assert r21.values == pytest.approx((24.0, 76.0, 0.0))
    assert r21.pwo == (1, 0, 0)
    assert r21.amount == pytest.approx(100.0)
    # single-support run with no ordering information
    r27 = d.runs[26]
    assert r27.values == pytest.approx((0.0, 0.0, 76.0))
    assert r27.pwo == (0, 0, 0)
    r23 = d.runs[22]
    assert r23.values == pytest.approx((76.0, 0.0, 24.0))


def test_ca_projection_retains_replicates():
    d = component_amount_projection_design(1.0)
    assert d.runs[0].values == d.runs[6].values == (0, 0, 0.24)


def test_ca_projection_scaling_invariance():
    unit = component_amount_projection_design(1.0)
    mg = component_amount_projection_design(100.0)
    for ru, rm in zip(unit.runs, mg.runs):
        assert np.allclose(np.array(rm.values) / 100.0, ru.values)
        assert rm.pwo == ru.pwo and rm.block == ru.block


@pytest.mark.parametrize("a_max", [0.0, -5.0, math.nan, math.inf, -math.inf,
                                   1e-320, 1e-155, 1e155, 1e300])
def test_ca_projection_rejects_bad_amount(a_max):
    with pytest.raises(InvalidAmount, match="a_max must be positive"):
        component_amount_projection_design(a_max)


@pytest.mark.parametrize("a_max", [1.5e-154, 1e-9, 1e9, 1.3e154])
def test_ca_projection_accepts_amounts_with_normal_squares(a_max):
    d = component_amount_projection_design(a_max)
    np.testing.assert_allclose(d.values / a_max,
                               component_amount_projection_design(1.0).values,
                               rtol=1e-15)
