import numpy as np
import pytest

from oamix import modelmat
from oamix.catalog import (CATALOG, component_amount_projection_design,
                           czitrom_d_oofa, czitrom_d_optimal)
from oamix.core import BlockedDesign, ModelSpec, Run
from oamix.errors import EmptyDesign, KindMismatch, SpecError, Unsupported
from oamix.modelmat import (build_model_matrix, coded_model_matrix,
                            column_names, default_interaction_subset,
                            full_interaction_set, model_rows)


def scheffe_spec():
    return ModelSpec("scheffe_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)


def ca_spec():
    return ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)


def test_scheffe_matrix_layout_and_first_row():
    X = build_model_matrix(czitrom_d_oofa(), scheffe_spec())
    assert X.columns == ("x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3",
                         "z12", "z13", "z23", "x1*z12", "x1*z13", "x2*z23",
                         "blk")
    assert X.data.shape == (24, 13)
    expected = (0.168, 0.832, 0, 0.139776, 0, 0, 1, 0, 0, 0.168, 0, 0, -1)
    assert X.data[0] == pytest.approx(expected, abs=1e-12)


def test_component_amount_matrix_shape():
    X = build_model_matrix(component_amount_projection_design(100.0), ca_spec())
    assert X.data.shape == (36, 17)
    assert X.columns[0] == "1"
    assert X.columns == ("1", "a1", "a2", "a3", "a1^2", "a2^2", "a3^2",
                         "a1*a2", "a1*a3", "a2*a3", "z12", "z13", "z23",
                         "a1*z12", "a1*z13", "a2*z23", "blk")


def test_k_model_centroid_row():
    d = BlockedDesign(m=3, kind="proportion",
                      runs=(Run((1 / 3, 1 / 3, 1 / 3), (1, 1, 1), 1),),
                      n_blocks=1)
    X = build_model_matrix(d, ModelSpec("k_quadratic"))
    assert X.columns == ("x1^2", "x2^2", "x3^2", "x1*x2", "x1*x3", "x2*x3")
    assert X.data[0] == pytest.approx([1 / 9] * 6)


def test_default_interaction_subset():
    assert default_interaction_subset(3) == ((1, (1, 2)), (1, (1, 3)),
                                             (2, (2, 3)))
    with pytest.raises(Unsupported):
        default_interaction_subset(4)


def test_full_interaction_set_is_estimable_here():
    spec = ModelSpec("scheffe_quadratic", include_pwo=True,
                     interaction_terms=full_interaction_set(3),
                     include_block=True)
    X = build_model_matrix(czitrom_d_oofa(), spec)
    assert X.p == 16
    assert X.factor.s.size == 16  # SingularMatrix if rank deficient


def test_default_matrices_have_full_rank():
    X3 = build_model_matrix(czitrom_d_oofa(), scheffe_spec())
    assert X3.factor.s.size == 13  # SingularMatrix if rank deficient
    X8 = build_model_matrix(component_amount_projection_design(100.0),
                            ca_spec())
    assert X8.factor.s.size == 17


def test_interaction_columns_are_exact_products():
    X = build_model_matrix(czitrom_d_oofa(), scheffe_spec())
    for comp, pair in (("x1", "z12"), ("x1", "z13"), ("x2", "z23")):
        prod = X.column(comp) * X.column(pair)
        assert np.array_equal(X.column(f"{comp}*{pair}"), prod)


def test_kind_mismatch_errors():
    with pytest.raises(KindMismatch):
        build_model_matrix(czitrom_d_oofa(), ca_spec())
    with pytest.raises(KindMismatch):
        build_model_matrix(component_amount_projection_design(1.0),
                           scheffe_spec())


def test_design_without_runs_is_rejected():
    empty = BlockedDesign(m=3, kind="proportion", runs=(), n_blocks=1)
    for build in (build_model_matrix, coded_model_matrix):
        with pytest.raises(EmptyDesign):
            build(empty, ModelSpec("scheffe_linear"))


def test_mixture_amount_needs_amounts():
    with pytest.raises(KindMismatch):
        build_model_matrix(czitrom_d_oofa(),
                           ModelSpec("mixture_amount_linear"))


def test_mixture_amount_layout():
    runs = tuple(Run(r.values, r.pwo, r.block, amount=50.0)
                 for r in czitrom_d_oofa().runs)
    d = BlockedDesign(m=3, kind="proportion", runs=runs, n_blocks=2,
                      as_printed=True)
    X = build_model_matrix(d, ModelSpec("mixture_amount_linear"))
    assert X.columns == ("x1", "x2", "x3", "x1*A", "x2*A", "x3*A")
    assert X.data[0, 3] == pytest.approx(0.168 * 50.0)
    Xq = build_model_matrix(d, ModelSpec("mixture_amount_quadratic"))
    assert Xq.p == 3 * (3 + 3)
    assert Xq.columns[6] == "x1*A"
    assert Xq.columns[12] == "x1*A^2"
    assert Xq.data[0, 12] == pytest.approx(0.168 * 50.0 ** 2)


def test_interaction_pair_must_fit_m():
    spec = ModelSpec("scheffe_quadratic", include_pwo=True,
                     interaction_terms=((4, (1, 4)),))
    with pytest.raises(SpecError):
        build_model_matrix(czitrom_d_oofa(), spec)


def test_column_names_rejects_large_m():
    with pytest.raises(Unsupported):
        column_names(ModelSpec("scheffe_linear"), 12)


def test_coded_matrix_proportion():
    spec = scheffe_spec()
    raw = build_model_matrix(czitrom_d_oofa(), spec)
    coded = coded_model_matrix(czitrom_d_oofa(), spec)
    assert coded.columns == raw.columns
    assert (raw.basis, coded.basis) == ("raw", "coded")
    c1 = 2 * 0.168 - 1
    c2 = 2 * 0.832 - 1
    row = coded.data[0]
    assert row[0] == pytest.approx(c1)
    assert row[3] == pytest.approx(c1 * c2)  # cross term from coded values
    assert row[9] == pytest.approx(c1 * 1)   # interaction from coded x1
    # z and block columns are untouched by coding
    assert np.array_equal(coded.data[:, 6:9], raw.data[:, 6:9])
    assert np.array_equal(coded.data[:, -1], raw.data[:, -1])


def test_coded_matrix_amount_equal_blend_rule():
    d = component_amount_projection_design(100.0)
    coded = coded_model_matrix(d, ca_spec())
    # a vertex run codes each component by its own amount over the max total
    i = next(j for j, r in enumerate(d.runs)
             if r.values == pytest.approx((76.0, 0.0, 24.0)))
    assert coded.data[i, 1] == pytest.approx(2 * 0.76 - 1)
    assert coded.data[i, 3] == pytest.approx(2 * 0.24 - 1)
    # an equal blend is coded at the run total, not the per-component amount
    j = next(j for j, r in enumerate(d.runs)
             if max(r.values) == min(r.values))
    assert coded.data[j, 1] == pytest.approx(2 * 0.75 - 1)


def test_coded_matrix_is_scale_invariant_for_amounts():
    unit = coded_model_matrix(component_amount_projection_design(1.0),
                              ca_spec())
    mg = coded_model_matrix(component_amount_projection_design(100.0),
                            ca_spec())
    assert np.allclose(unit.data, mg.data, atol=1e-12)


def test_model_row_matches_matrix_row():
    d = czitrom_d_oofa()
    spec = scheffe_spec()
    X = build_model_matrix(d, spec)
    r = d.runs[7]
    rows = model_rows(spec, 3, [r.values], [r.pwo], [r.block])
    assert np.array_equal(rows, X.data[7:8])


FAMILIES_BY_KIND = {
    "proportion": ("scheffe_linear", "scheffe_quadratic", "k_quadratic",
                   "mixture_amount_linear", "mixture_amount_quadratic"),
    "amount": ("component_amount_linear", "component_amount_quadratic"),
}


def _with_amounts(design, amount):
    runs = tuple(Run(r.values, r.pwo, r.block, amount=amount)
                 for r in design.runs)
    return BlockedDesign(design.m, design.kind, runs, design.n_blocks,
                         design.as_printed)


def _oracle_components(run, design, coded):
    """A run's component values in the basis, one run at a time."""
    if not coded:
        return list(run.values)
    if design.kind == "proportion":
        return [2.0 * v - 1.0 for v in run.values]
    scale = max(r.amount for r in design.runs)
    vals = run.values
    if max(vals) - min(vals) <= 1e-9 * max(1.0, abs(run.amount)):
        vals = [run.amount] * len(vals)  # equal blend coded at the total
    return [2.0 * v / scale - 1.0 for v in vals]


def _oracle_entry(name, comps, run, m):
    """The product the column name spells, factor by factor, left to right."""
    pairs = [(j, k) for j in range(1, m) for k in range(j + 1, m + 1)]
    if name == "1":
        return 1.0
    if name == "blk":
        return -1.0 if run.block == 1 else 1.0
    out = None
    for factor in name.split("*"):
        base, _, power = factor.partition("^")
        if base == "A":
            v = run.amount
        elif base[0] == "z":
            v = float(run.pwo[pairs.index((int(base[1]), int(base[2])))])
        else:
            v = comps[int(base[1]) - 1]
        for _ in range(int(power or 1)):
            out = v if out is None else out * v
    return out


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_column_is_the_product_its_name_spells(name):
    if name == "ca-projection":
        designs = [component_amount_projection_design(100.0)]
    else:
        base = CATALOG[name]()
        designs = [base, _with_amounts(base, 50.0)]
    for design in designs:
        m = design.m
        for family in FAMILIES_BY_KIND[design.kind]:
            if family.startswith("mixture_amount") and \
                    design.runs[0].amount is None:
                continue
            for pwo in (False, True):
                terms = default_interaction_subset(m) if pwo else ()
                for block in ((False, True) if design.n_blocks == 2
                              else (False,)):
                    spec = ModelSpec(family, include_pwo=pwo,
                                     interaction_terms=terms,
                                     include_block=block)
                    for coded, build in ((False, build_model_matrix),
                                         (True, coded_model_matrix)):
                        X = build(design, spec)
                        want = [[_oracle_entry(c, _oracle_components(
                                    r, design, coded), r, m)
                                 for c in X.columns] for r in design.runs]
                        assert np.array_equal(X.data, np.array(want)), \
                            (family, pwo, block, coded)


@pytest.mark.parametrize("build", [build_model_matrix, coded_model_matrix])
def test_matrix_is_a_c_contiguous_read_only_copy_of_the_columns(
        build, monkeypatch):
    buffers = []
    columns = modelmat._columns

    def keep(*args):
        buffers.append(columns(*args))
        return buffers[-1]

    monkeypatch.setattr(modelmat, "_columns", keep)
    X = build(component_amount_projection_design(100.0), ca_spec())
    (buf,) = buffers
    assert buf.shape == (X.p, X.n)
    assert X.data.flags.c_contiguous and not X.data.flags.writeable
    assert not np.shares_memory(X.data, buf)
    np.testing.assert_array_equal(X.data, buf.T)


def test_model_rows_are_c_contiguous():
    d = czitrom_d_oofa()
    rows = model_rows(scheffe_spec(), 3, d.values, d.pwo, d.block)
    assert rows.flags.c_contiguous
    np.testing.assert_array_equal(
        rows, build_model_matrix(d, scheffe_spec()).data)
