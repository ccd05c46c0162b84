import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import expand_runs, listed_orderings, pwo_from_run
from oamix.catalog import oofa_expand
from oamix.core import BlockedDesign, validate_design
from oamix.errors import (EmptySupport, InconsistentPWO, InvalidPermutation,
                          SupportMismatch)
from oamix.pwo import (_steps, enumerate_orderings, permutation_from_pwo,
                       pwo_from_permutation)


def test_pwo_from_permutation_worked_example():
    # component 2 first, then 1, then 3
    assert pwo_from_permutation((2, 1, 3), 3) == (-1, 1, 1)


def test_pwo_from_permutation_identity_and_reversal():
    assert pwo_from_permutation((1, 2, 3), 3) == (1, 1, 1)
    assert pwo_from_permutation((3, 2, 1), 3) == (-1, -1, -1)


def test_pwo_from_permutation_rejects_bad_input():
    with pytest.raises(InvalidPermutation):
        pwo_from_permutation((1, 2), 3)
    with pytest.raises(InvalidPermutation):
        pwo_from_permutation((1, 1, 2), 3)


@pytest.mark.parametrize("perm, m, message", [
    ((True, 2), 2, "expected a permutation of 1..2, got (True, 2)"),
    ((1.0, 2.0, 3.0), 3,
     "expected a permutation of 1..3, got (1.0, 2.0, 3.0)"),
    (("1", 2, 3), 3, "expected a permutation of 1..3, got ('1', 2, 3)"),
    ((1, 2, 3), 3.0, "m must be an integer, got 3.0"),
    ((1, 2), True, "m must be an integer, got True")])
def test_pwo_from_permutation_takes_integers_only(perm, m, message):
    with pytest.raises(InvalidPermutation, match=f"^{re.escape(message)}$"):
        pwo_from_permutation(perm, m)


def test_pwo_from_permutation_takes_numpy_integers():
    assert pwo_from_permutation(np.array([2, 1, 3]), np.int64(3)) == \
        (-1, 1, 1)


# worked examples of the pwo_from_run oracle, which the tests below encode
# with
def test_pwo_from_run_edge_blend():
    assert pwo_from_run((0.168, 0.832, 0), (2, 1)) == (-1, 0, 0)
    assert pwo_from_run((0.168, 0.832, 0), (1, 2)) == (1, 0, 0)


def test_pwo_from_run_full_support():
    assert pwo_from_run((0.333, 0.333, 0.334), (1, 2, 3)) == (1, 1, 1)


def test_pwo_from_run_single_component():
    assert pwo_from_run((1.0, 0.0, 0.0), (1,)) == (0, 0, 0)


def test_pwo_from_run_support_mismatch():
    with pytest.raises(SupportMismatch):
        pwo_from_run((0.5, 0.5, 0.0), (1, 2, 3))  # mentions a zero component
    with pytest.raises(SupportMismatch):
        pwo_from_run((0.5, 0.5, 0.0), (1,))  # omits a nonzero one


def test_permutation_from_pwo_examples():
    assert permutation_from_pwo((1, 1, 1), {1, 2, 3}) == (1, 2, 3)
    assert permutation_from_pwo((-1, 1, 1), {1, 2, 3}) == (2, 1, 3)


def test_permutation_from_pwo_detects_cycles():
    # 1<2, 3<1, 2<3 is a 3-cycle
    with pytest.raises(InconsistentPWO):
        permutation_from_pwo((1, -1, 1), {1, 2, 3})


def test_permutation_from_pwo_support_errors():
    with pytest.raises(SupportMismatch):
        permutation_from_pwo((0, 0, 0), {1, 2, 3})  # zero on support pair
    with pytest.raises(SupportMismatch):
        permutation_from_pwo((1, 1, 1), {1, 2})  # nonzero off support


def test_permutation_from_pwo_refuses_entries_outside_unit_range():
    with pytest.raises(InconsistentPWO,
                       match=r"^z12 = 2 not in \{-1,0,\+1\}$"):
        permutation_from_pwo((2, 1, 1), {1, 2, 3})
    with pytest.raises(InconsistentPWO,
                       match=r"^z23 = -3 not in \{-1,0,\+1\}$"):
        permutation_from_pwo((0, 0, -3), {2, 3})


def test_permutation_from_pwo_refuses_a_vector_of_another_length():
    with pytest.raises(SupportMismatch, match="^pwo length 3 does not "
                                              "match m=4$"):
        permutation_from_pwo((1, 1, 1), {1, 2, 3}, m=4)


def test_permutation_from_pwo_refuses_support_outside_components():
    with pytest.raises(SupportMismatch, match=r"not within 1\.\.3"):
        permutation_from_pwo((1, 1, 1), {1, 2, 3, 4})
    with pytest.raises(SupportMismatch, match=r"not within 1\.\.3"):
        permutation_from_pwo((1, 0, 0), {0, 1, 2})


@pytest.mark.parametrize("support", [[1.5, 2], ["1", 2], [0.5, 2],
                                     [True, 2], [1, 2, 3.0]])
def test_permutation_from_pwo_refuses_a_member_that_is_not_an_integer(
        support):
    # named as given: 1.5 is no component 1, and "1" no component at all
    with pytest.raises(SupportMismatch,
                       match=f"^{re.escape(f'support {support} is not')}"
                             r" within 1\.\.3$"):
        permutation_from_pwo((1, 0, 0), support)


def test_permutation_from_pwo_takes_numpy_integers():
    assert permutation_from_pwo((-1, 1, 1), np.array([1, 2, 3]),
                                np.int64(3)) == (2, 1, 3)
    with pytest.raises(SupportMismatch,
                       match=r"^support \[0, 2\] is not within 1\.\.3$"):
        permutation_from_pwo((0, 0, 0), (np.int64(2), np.int64(0)))


@pytest.mark.parametrize("m", [3.0, 2.5, True])
def test_permutation_from_pwo_refuses_an_m_that_is_not_an_integer(m):
    with pytest.raises(SupportMismatch,
                       match=f"^m must be an integer, got {m!r}$"):
        permutation_from_pwo((1, 1, 1), {1, 2, 3}, m=m)


def test_enumerate_orderings_centroid_sequence():
    got = enumerate_orderings((0.333, 0.333, 0.334))
    assert got == ((1, 1, 1), (1, 1, -1), (1, -1, -1),
                   (-1, 1, 1), (-1, -1, 1), (-1, -1, -1))


def test_enumerate_orderings_edge_and_vertex():
    assert enumerate_orderings((0.168, 0.832, 0)) == ((1, 0, 0), (-1, 0, 0))
    assert enumerate_orderings((0, 0, 0.24)) == ((0, 0, 0),)


def test_enumerate_orderings_lists_smaller_component_first():
    assert enumerate_orderings((0.832, 0, 0.168)) == ((0, -1, 0), (0, 1, 0))


def test_enumerate_orderings_rule_over_shuffled_supports():
    # every support of m = 2..5, values drawn with ties so that the index
    # tie-break is exercised too
    rng = np.random.default_rng(11)
    for m in range(2, 6):
        for r in range(1, m + 1):
            for support in itertools.combinations(range(1, m + 1), r):
                v = [0.0] * m
                for i in support:
                    v[i - 1] = float(rng.choice([0.1, 0.2, 0.3, 0.4]))
                got = enumerate_orderings(v)
                assert set(got) == {pwo_from_run(v, perm) for perm in
                                    itertools.permutations(support)}
                assert len(got) == len(set(got))
                increasing = sorted(support, key=lambda i: (v[i - 1], i))
                assert permutation_from_pwo(got[0], support, m) == \
                    tuple(increasing)


def test_enumerate_orderings_empty_support():
    with pytest.raises(EmptySupport, match="run 1: all component values"):
        enumerate_orderings((0.0, 0.0, 0.0))


@pytest.mark.parametrize("s", range(1, 8))
def test_steps_decode_every_index_in_permutations_order(s):
    perms = np.array(list(itertools.permutations(range(s))))
    index = np.arange(len(perms))
    steps = _steps(index, s)
    assert steps.dtype == np.int8
    assert np.array_equal(steps, np.argsort(perms, axis=1))
    # any selection of indices, in any order, decodes row by row
    pick = np.random.default_rng(s).permutation(index)[:50]
    assert np.array_equal(_steps(pick, s), steps[pick])


def test_round_trip_all_supports_m3():
    values = {1: 0.2, 2: 0.3, 3: 0.5}
    for r in (1, 2, 3):
        for support in itertools.combinations((1, 2, 3), r):
            v = tuple(values[i] if i in support else 0.0 for i in (1, 2, 3))
            for perm in itertools.permutations(support):
                z = pwo_from_run(v, perm)
                back = permutation_from_pwo(z, support)
                assert back == perm


def test_reversal_negates_nonzero_entries():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        v = rng.uniform(0.1, 1.0, m)
        perm = tuple(rng.permutation(np.arange(1, m + 1)))
        z_fwd = np.array(pwo_from_run(v, perm))
        z_rev = np.array(pwo_from_run(v, perm[::-1]))
        assert np.array_equal(z_rev, -z_fwd)


def test_enumeration_count_distinct_and_balanced():
    v = (0.25, 0.25, 0.25, 0.25)
    vectors = enumerate_orderings(v)
    assert len(vectors) == 24
    assert len(set(vectors)) == 24
    # each pair precedes equally often over all orderings
    assert np.array(vectors).sum(axis=0).tolist() == [0] * 6


def test_non_positive_components_are_outside_the_support():
    # a NaN or negative component is absent, as a zero one is
    for values in ((math.nan, 0.5, 0.5), (-0.2, 0.6, 0.6), (0.0, 0.5, 0.5)):
        assert enumerate_orderings(values) == ((0, 0, 1), (0, 0, -1))
        base = BlockedDesign.from_arrays(3, "proportion", [values],
                                         np.zeros((1, 3)), [1], None, 1)
        assert oofa_expand(base).pwo.tolist() == [[0, 0, 1], [0, 0, -1]]


@st.composite
def unordered_designs(draw):
    """An unordered proportion design, m 2..6, with zeros and ties among
    its components, and at most one NaN or negative component planted."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any),
        min_size=n, max_size=n))
    values = np.array(weights, dtype=float)
    values /= values.sum(axis=1, keepdims=True)
    plant = draw(st.sampled_from([None, math.nan, -0.25]))
    if plant is not None:
        values[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = plant
    assume((values > 0).any(axis=1).all())
    blocks = [1 + i % 2 for i in range(n)]
    return BlockedDesign.from_arrays(m, "proportion", values,
                                     np.zeros((n, m * (m - 1) // 2)),
                                     blocks, None, n_blocks=min(n, 2))


@settings(max_examples=150, deadline=None)
@given(unordered_designs())
def test_expansion_matches_the_oracle_listing(base):
    expanded = oofa_expand(base)
    oracle = expand_runs(base.runs)
    assert expanded.pwo.tolist() == [list(r.pwo) for r in oracle]
    assert np.array_equal(expanded.values, [r.values for r in oracle],
                          equal_nan=True)
    assert expanded.block.tolist() == [r.block for r in oracle]
    for values in base.values.tolist():
        assert enumerate_orderings(values) == listed_orderings(values)
    # every run expanded from a clean base run is valid; the planted value
    # is reported on the copies of its own run
    clean = np.isfinite(expanded.values).all(axis=1) & \
        (expanded.values >= 0).all(axis=1)
    violations = validate_design(expanded)
    assert bool(violations) != clean.all()
    assert not any(clean[v.run_index] for v in violations)
    # a planted component is out of the support, so its pairs are 0 and
    # no support-pair rule fires beside the value's own
    assert {v.rule for v in violations} <= {
        "non_finite_value", "negative_value", "proportion_sum"}
    for values, row in zip(expanded.values.tolist(), expanded.pwo.tolist()):
        support = [i for i, v in enumerate(values, start=1) if v > 0]
        order = permutation_from_pwo(row, support, base.m)
        assert pwo_from_run(values, order) == tuple(row)


def test_expanded_nan_run_reports_only_the_nan():
    base = BlockedDesign.from_arrays(4, "proportion",
                                     [(math.nan, 0, 0.5, 0.5)],
                                     np.zeros((1, 6)), [1], None, 1)
    expanded = oofa_expand(base)
    assert expanded.n == 2
    assert [(v.run_index, v.rule, v.message)
            for v in validate_design(expanded)] == [
        (0, "non_finite_value", "component 1 is nan"),
        (1, "non_finite_value", "component 1 is nan")]
