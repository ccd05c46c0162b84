import itertools

import numpy as np
import pytest

from oamix.errors import (EmptySupport, InconsistentPWO, InvalidPermutation,
                          SupportMismatch)
from oamix.pwo import (enumerate_orderings, permutation_from_pwo,
                       pwo_from_permutation, pwo_from_run)


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


def test_enumerate_orderings_centroid_sequence():
    got = enumerate_orderings((0.333, 0.333, 0.334))
    assert got == ((1, 1, 1), (1, 1, -1), (1, -1, -1),
                   (-1, 1, 1), (-1, -1, 1), (-1, -1, -1))


def test_enumerate_orderings_edge_and_vertex():
    assert enumerate_orderings((0.168, 0.832, 0)) == ((1, 0, 0), (-1, 0, 0))
    assert enumerate_orderings((0, 0, 0.24)) == ((0, 0, 0),)


def test_enumerate_orderings_empty_support():
    with pytest.raises(EmptySupport):
        enumerate_orderings((0.0, 0.0, 0.0))


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
