import math

import numpy as np
import pytest

from oamix.core import (BlockedDesign, ModelMatrix, ModelSpec, Run,
                        pair_indices, validate_design)
from oamix.errors import SingularMatrix, SpecError


def test_pair_indices_lexicographic():
    assert pair_indices(3) == ((1, 2), (1, 3), (2, 3))
    assert pair_indices(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_run_normalizes_to_tuples():
    r = Run([0.5, 0.5], [1], block=2)
    assert r.values == (0.5, 0.5)
    assert r.pwo == (1,)
    assert r.support == (1, 2)


def test_run_support_skips_zeros():
    assert Run((0.0, 0.3, 0.7), (0, 0, 1)).support == (2, 3)


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


def test_validate_block_and_length_rules():
    runs = [Run((0.5, 0.5, 0.0), (1, 0, 0), 5),
            Run((0.5, 0.5), (1, 0, 0), 1)]
    rules = {v.rule for v in validate_design(_design(runs))}
    assert "block_label_range" in rules
    assert "values_length" in rules
    assert "empty_block" in rules  # block 2 has no runs


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
    runs = [Run((0.5, 0.5, 0.0), (1, 0, 0), 1, amount=math.nan),
            Run((0.2, 0.3, 0.5), (1, 1, 1), 2, amount=1.0)]
    rules = [v.rule for v in validate_design(_design(runs, kind="amount"))]
    assert rules == ["non_finite_value"]


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


def test_singular_model_matrix_names_columns_on_every_access():
    col = np.array([1.0, 2.0, 3.0])
    X = ModelMatrix(("a", "b", "c"),
                    np.column_stack([col, 2 * col, np.ones(3)]))
    for _ in range(2):
        with pytest.raises(SingularMatrix) as exc:
            X.factor
        assert exc.value.names == ("b",)
