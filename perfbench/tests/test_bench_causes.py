"""No timed design-small op fails; the known defects show only in the
defect probe, and a failure counts under a known cause only on the inputs
its defect reaches."""

import pytest

import workloads


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return workloads.DesignSmall(7, str(tmp_path_factory.mktemp("small")))


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    return workloads.DefectProbe(7, str(tmp_path_factory.mktemp("probe")))


def _first(wl, want):
    """Index and clean record of the first pool input with want(input)."""
    for k, inp in enumerate(wl.pool):
        if want(inp):
            rec = wl.slim(k, wl.op(k))
            if wl.verify(k, rec) == []:
                return k, rec
    raise LookupError("no such input")


def _causes(wl, k, rec):
    return {cause for cause, _ in wl.verify(k, rec)}


def _share_codes(rec):
    for basis in ("raw", "coded"):
        codes = rec[basis]["blk_codes"]
        first = next(iter(codes.values()))
        for b in codes:
            codes[b] = list(first)


def _singular(rec, step):
    rec[step] = {"error": "SingularMatrix", "message": "planted",
                 "named": True}


def test_every_op_of_a_design_small_cycle_passes(small):
    for k in range(small.CYCLE):
        assert small.verify(k, small.slim(k, small.op(k))) == [], k


def test_design_small_keeps_clear_of_the_known_defects(small):
    assert all(inp.design.n_blocks == 2 for inp in small.pool)
    a_maxes = [inp.a_max for inp in small.pool if inp.a_max is not None]
    assert max(a_maxes) < workloads.SINGULAR_A_MAX


def test_shared_block_code_on_two_blocks_is_not_a_known_cause(small):
    k, rec = _first(small, lambda inp: inp.design.n_blocks == 2)
    _share_codes(rec)
    causes = _causes(small, k, rec)
    assert "other" in causes and "shared_block_code" not in causes


def test_singular_full_rank_known_only_for_raw_ca_projection_at_large_a_max(
        small, probe):
    k, rec = _first(small, lambda inp: inp.a_max is not None)
    _singular(rec, "criteria")
    assert _causes(small, k, rec) == {"other"}

    k, rec = _first(small, lambda inp: inp.a_max is None)
    _singular(rec, "fit")
    assert _causes(small, k, rec) == {"other"}

    # the program's own failure at a large a_max is the known defect ...
    k = next(k for k, inp in enumerate(probe.pool) if inp.a_max is not None)
    rec = probe.slim(k, probe.op(k))
    assert _causes(probe, k, rec) == {"singular_full_rank"}
    # ... but not on the coded basis
    _singular(rec, "power")
    assert _causes(probe, k, rec) == {"singular_full_rank", "other"}


def test_defect_probe_shows_both_defects_and_nothing_else(tmp_path):
    defects, problems = workloads.defect_probe(7, str(tmp_path))
    assert defects == {"defect.singular_full_rank": 1.0,
                       "defect.shared_block_code": 1.0}
    assert problems == []
