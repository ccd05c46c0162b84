import itertools
import math

import numpy as np
import pytest

from oamix.core import (BlockedDesign, ModelMatrix, ModelSpec, Run,
                        Violation, pair_indices, validate_design)
from oamix.errors import InvalidDesign, SingularMatrix, SpecError
from oamix.pwo import pwo_from_permutation


def test_pair_indices_lexicographic():
    assert pair_indices(3) == ((1, 2), (1, 3), (2, 3))
    assert pair_indices(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_run_normalizes_to_tuples():
    r = Run([0.5, 0.5], [1], block=2)
    assert r.values == (0.5, 0.5)
    assert r.pwo == (1,)


def _design(runs, kind="proportion", m=3, n_blocks=2, as_printed=False):
    return BlockedDesign(m=m, kind=kind, runs=tuple(runs), n_blocks=n_blocks,
                         as_printed=as_printed)


def test_validate_clean_design_is_empty():
    runs = [Run((0.5, 0.5, 0.0), (1, 0, 0), 1),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2)]
    assert validate_design(_design(runs)) == []


def test_validate_pwo_nonzero_for_zero_component():
    runs = [Run((0.5, 0.5, 0.0), (0, 1, 0), 1),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2)]
    report = validate_design(_design(runs))
    assert [v.rule for v in report] == ["pwo_nonzero_for_zero_component"]
    assert report[0].run_index == 0


@pytest.mark.parametrize("value, text", [
    (0.0, "is 0"), (-0.0, "is 0"), (-0.5, "is not positive (-0.5)"),
    (math.nan, "is not positive (nan)")])
def test_a_component_that_is_not_positive_is_absent(value, text):
    runs = [Run((value, 0.5, 0.5), (1, -1, 1), 1),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2)]
    report = [v for v in validate_design(_design(runs))
              if v.rule not in ("negative_value", "non_finite_value",
                                "proportion_sum")]
    assert [(v.run_index, v.rule) for v in report] == \
        [(0, "pwo_nonzero_for_zero_component")] * 2
    assert [v.message for v in report] == [
        f"z12 = +1 but component 1 {text}", f"z13 = -1 but component 1 {text}"]


def test_validate_amount_mismatch():
    runs = [Run((24.0, 0.0, 0.0), (0, 0, 0), 1, amount=25.0),
            Run((10.0, 10.0, 5.0), (1, 1, 1), 2, amount=25.0)]
    report = validate_design(_design(runs, kind="amount"))
    assert [v.rule for v in report] == ["amount_mismatch"]


def test_validate_amount_kind_requires_amount():
    runs = [Run((1.0, 2.0, 3.0), (1, 1, 1), 1, amount=6.0),
            Run((1.0, 2.0, 3.0), (1, 1, 1), 2)]
    rules = [v.rule for v in validate_design(_design(runs, kind="amount"))]
    assert rules == ["amount_mismatch"]


def test_validate_proportion_sum():
    runs = [Run((0.5, 0.4, 0.0), (1, 0, 0), 1),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2)]
    rules = [v.rule for v in validate_design(_design(runs))]
    assert rules == ["proportion_sum"]


def test_as_printed_relaxes_proportion_sum():
    # 3-decimal rounding leaves sums a few thousandths off
    runs = [Run((0.333, 0.333, 0.333), (1, 1, 1), 1),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2)]
    assert validate_design(_design(runs)) != []
    assert validate_design(_design(runs, as_printed=True)) == []


def test_validate_block_rules():
    runs = [Run((0.5, 0.5, 0.0), (1, 0, 0), 5),
            Run((0.5, 0.5, 0.0), (1, 0, 0), 1)]
    rules = {v.rule for v in validate_design(_design(runs))}
    assert "block_label_range" in rules
    assert "empty_block" in rules  # block 2 has no runs


def test_ragged_runs_are_refused_with_their_index():
    # the columns cannot hold a run of the wrong length, so the
    # constructor names the rule and the run instead of validate_design
    clean = Run((0.5, 0.5, 0.0), (1, 0, 0), 1)
    for bad, rule in ((Run((0.5, 0.5), (1, 0, 0), 1), "values_length"),
                      (Run((0.5, 0.5, 0.0), (1, 0), 1), "pwo_length")):
        with pytest.raises(InvalidDesign) as exc:
            _design([clean, bad])
        assert [(v.run_index, v.rule) for v in exc.value.violations] == \
            [(1, rule)]
        assert f"run 2: {rule}" in str(exc.value)


def test_pwo_entry_beyond_int8_is_refused_with_its_index():
    with pytest.raises(InvalidDesign) as exc:
        _design([Run((0.5, 0.5, 0.0), (1, 0, 0), 1),
                 Run((0.2, 0.3, 0.5), (1, 300, 1), 2)])
    assert exc.value.violations == [
        Violation(1, "pwo_entry_range", "z13 = 300 not in {-1,0,+1}")]


def test_validate_negative_and_range_rules():
    runs = [Run((1.2, -0.2, 0.0), (2, 0, 0), 1),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2)]
    rules = {v.rule for v in validate_design(_design(runs))}
    assert {"negative_value", "pwo_entry_range"} <= rules


def test_validate_is_order_stable():
    runs = [Run((0.5, 0.4, 0.0), (0, 1, 0), 1),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2)]
    d = _design(runs)
    assert validate_design(d) == validate_design(d)


def test_modelspec_interactions_require_pwo():
    with pytest.raises(SpecError):
        ModelSpec("scheffe_quadratic", include_pwo=False,
                  interaction_terms=((1, (1, 2)),))


def test_modelspec_interaction_component_in_pair():
    with pytest.raises(SpecError):
        ModelSpec("scheffe_quadratic", include_pwo=True,
                  interaction_terms=((3, (1, 2)),))
    with pytest.raises(SpecError):
        ModelSpec("scheffe_quadratic", include_pwo=True,
                  interaction_terms=((2, (2, 1)),))


def test_validate_flags_non_finite_values():
    clean = Run((0.2, 0.3, 0.5), (1, 1, 1), 2)
    for bad in (Run((math.nan, 0.5, 0.5), (0, 0, 1), 1),
                Run((0.5, math.inf, 0.0), (1, 0, 0), 1)):
        rules = [v.rule for v in validate_design(_design([bad, clean]))]
        assert "non_finite_value" in rules
    # NaN is the amount column's "no amount", so a NaN amount given on a
    # run is refused when the design is built
    runs = [Run((0.5, 0.5, 0.0), (1, 0, 0), 1, amount=math.nan),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2, amount=1.0)]
    with pytest.raises(InvalidDesign) as exc:
        _design(runs, kind="amount")
    assert [(v.run_index, v.rule) for v in exc.value.violations] == \
        [(0, "non_finite_value")]


@pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["amount", "proportion"])
def test_non_finite_amount_is_one_rule_not_absent(amount, kind):
    clean = Run((0.2, 0.3, 0.5), (1, 1, 1), 2, amount=1.0)
    bad = Run((0.5, 0.5, 0.0), (1, 0, 0), 1, amount=amount)
    if math.isnan(amount):
        with pytest.raises(InvalidDesign) as exc:
            _design([bad, clean], kind=kind)
        report = exc.value.violations
    else:
        report = validate_design(_design([bad, clean], kind=kind))
    assert report == [Violation(0, "non_finite_value", f"amount is {amount}")]


def test_absent_amount_is_nan_in_the_column():
    d = _design([Run((0.5, 0.5, 0.0), (1, 0, 0), 1),
                 Run((0.2, 0.3, 0.5), (1, 1, 1), 2, amount=3.0)])
    assert math.isnan(d.amount[0]) and d.amount[1] == 3.0
    assert d.runs[0].amount is None and d.runs[1].amount == 3.0
    assert d.amount_levels() == (3.0,)


def test_design_columns_are_read_only():
    d = _design([Run((0.5, 0.5, 0.0), (1, 0, 0), 1),
                 Run((0.2, 0.3, 0.5), (1, 1, 1), 2)])
    assert d.values.shape == (2, 3) and d.pwo.dtype == np.int8
    assert d.block.tolist() == [1, 2]
    for column in (d.values, d.pwo, d.block, d.amount):
        with pytest.raises(ValueError):
            column[0] = 0
    assert d.runs[1] == Run((0.2, 0.3, 0.5), (1, 1, 1), 2)


@pytest.mark.parametrize("pwo", [(1, -1, 1), (-1, 1, -1)])
def test_validate_cyclic_pwo(pwo):
    runs = [Run((0.5, 0.5, 0.0), (1, 0, 0), 1),
            Run((0.2, 0.3, 0.5), pwo, 2)]
    report = validate_design(_design(runs))
    assert [(v.run_index, v.rule) for v in report] == [(1, "pwo_cyclic")]


@pytest.mark.parametrize("pwo", [(1, 0, 0), (0, 1, -1), (0, 0, 1)])
def test_validate_partial_pwo(pwo):
    runs = [Run((0.5, 0.5, 0.0), (1, 0, 0), 1),
            Run((0.2, 0.3, 0.5), pwo, 2)]
    report = validate_design(_design(runs))
    assert [(v.run_index, v.rule) for v in report] == [(1, "pwo_partial")]


def test_unordered_and_transitive_runs_are_valid():
    # all support pairs 0 means "unordered" (the base catalog designs);
    # every transitive order of four components passes
    runs = [Run((0.25, 0.25, 0.25, 0.25), (0,) * 6, 1),
            Run((0.5, 0.0, 0.25, 0.25), (0, 1, 1, 0, 0, -1), 2)]
    runs += [Run((0.25,) * 4, pwo_from_permutation(p, 4), 1 + k % 2)
             for k, p in enumerate(itertools.permutations(range(1, 5)))]
    assert validate_design(_design(runs, m=4)) == []


def test_cyclic_pwo_on_a_partial_support():
    # components 1, 2, 4 of four: z12 = +1, z14 = -1, z24 = +1 is a cycle
    runs = [Run((0.25, 0.25, 0.0, 0.5), (1, 0, -1, 0, 1, 0), 1)]
    report = validate_design(_design(runs, m=4, n_blocks=1))
    assert report == [Violation(
        0, "pwo_cyclic",
        "precedence out-degrees {1: 1, 2: 1, 4: 1} do not form a total order")]


def test_modelspec_intercept_rules():
    assert ModelSpec("scheffe_quadratic").include_intercept is False
    assert ModelSpec("component_amount_linear").include_intercept is True


def test_modelspec_unknown_family():
    with pytest.raises(SpecError):
        ModelSpec("cubic")


def test_modelmatrix_checks_names_and_shape():
    with pytest.raises(SpecError):
        ModelMatrix(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(SpecError):
        ModelMatrix(("a", "b", "c"), np.zeros((2, 2)))


def test_modelmatrix_is_read_only():
    M = ModelMatrix(("a", "b"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        M.data[0, 0] = 1.0
    assert M.column("b").shape == (2,)


def test_model_matrix_factor_is_cached_and_read_only():
    X = ModelMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
    f = X.factor
    assert X.factor is f
    assert not any(a.flags.writeable for a in f)
    with pytest.raises(ValueError):
        f.W[0, 0] = 1.0


def test_singular_model_matrix_names_columns_on_every_access():
    col = np.array([1.0, 2.0, 3.0])
    X = ModelMatrix(("a", "b", "c"),
                    np.column_stack([col, 2 * col, np.ones(3)]))
    for _ in range(2):
        with pytest.raises(SingularMatrix) as exc:
            X.factor
        assert exc.value.names == ("b",)
