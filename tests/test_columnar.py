"""Columnar designs against the per-run oracles in _oracles.py.

Random designs (m 2..6, random supports, 1-3 blocks, amount present or
absent, planted bad cells) go through the array code of oofa_expand,
write_design_csv, parse_design_csv and validate_design and through the
oracles that loop over Run objects; the two must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import design_csv, expand_runs, run_violations, support_pair_rules
from oamix.catalog import oofa_expand
from oamix.core import BlockedDesign, Run, pair_indices, validate_design
from oamix.errors import InvalidDesign, SchemaError
from oamix.pwo import pwo_from_run
from oamix.serialize import parse_design_csv, write_design_csv

SUPPORT_RULES = ("pwo_partial", "pwo_cyclic")
FINITE_PLANTS = ("negative", "sum", "z_range", "z_zero_component", "partial",
                 "flip", "block", "amount_absent", "amount_negative")
PLANTS = FINITE_PLANTS + ("nan_value", "inf_value", "inf_amount")


@st.composite
def designs(draw, ordered=True, plants=()):
    """A design whose values are exact in eighths (so they survive the
    6-digit CSV format), with every block used, and with up to three
    planted bad cells drawn from plants."""
    m = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["proportion", "amount"]))
    n_blocks = draw(st.integers(1, 3))
    n = draw(st.integers(n_blocks, 8))
    scale = draw(st.sampled_from([1.0, 2.5, 100.0])) if kind == "amount" else 1.0
    proportion_amount = draw(st.sampled_from([None, 0.5, 40.0]))
    blocks = draw(st.permutations([1 + i % n_blocks for i in range(n)]))
    runs = []
    for i in range(n):
        support = sorted(draw(st.sets(st.integers(1, m), min_size=1)))
        cuts = sorted(draw(st.sets(st.integers(1, 7), min_size=len(support) - 1,
                                   max_size=len(support) - 1)))
        parts = np.diff([0, *cuts, 8]) / 8.0
        values = [0.0] * m
        for c, part in zip(support, parts):
            values[c - 1] = float(part) * scale
        pwo = (0,) * (m * (m - 1) // 2)
        if ordered and draw(st.booleans()):
            pwo = pwo_from_run(values, draw(st.permutations(support)))
        amount = sum(values) if kind == "amount" else proportion_amount
        runs.append([values, list(pwo), blocks[i], amount])

    pairs = pair_indices(m)
    for _ in range(draw(st.integers(0, 3)) if plants else 0):
        run = runs[draw(st.integers(0, n - 1))]
        values, pwo = run[0], run[1]
        comp = draw(st.integers(0, m - 1))
        q = draw(st.integers(0, len(pairs) - 1))
        plant = draw(st.sampled_from(plants))
        if plant == "negative":
            values[comp] = -0.25
        elif plant == "sum":
            values[comp] += 0.25
        elif plant == "z_range":
            pwo[q] = draw(st.sampled_from([2, -3, 127]))
        elif plant == "z_zero_component":
            values[pairs[q][0] - 1] = 0.0
            pwo[q] = draw(st.sampled_from([1, -1]))
        elif plant == "partial":
            pwo[q] = 0
        elif plant == "flip":  # may make the order cyclic, or only swap two
            pwo[q] = -pwo[q]
        elif plant == "block":
            run[2] = draw(st.sampled_from([0, n_blocks + 1]))
        elif plant == "amount_absent":
            run[3] = None
        elif plant == "amount_negative":
            run[3] = -1.0 if run[3] is None else -run[3]
        elif plant == "nan_value":
            values[comp] = math.nan
        elif plant == "inf_value":
            values[comp] = draw(st.sampled_from([math.inf, -math.inf]))
        elif plant == "inf_amount":
            run[3] = draw(st.sampled_from([math.inf, -math.inf]))
    as_printed = draw(st.booleans())
    return BlockedDesign(m, kind, [Run(*r) for r in runs], n_blocks, as_printed)


def assert_same_columns(a: BlockedDesign, b: BlockedDesign):
    for name in ("values", "pwo", "block", "amount"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.pwo.dtype == b.pwo.dtype == np.int8


def assert_matches_oracles(report, m, kind, runs, n_blocks, as_printed):
    assert [v for v in report if v.rule not in SUPPORT_RULES] == \
        run_violations(m, kind, runs, n_blocks, as_printed)
    assert [(v.run_index, v.rule) for v in report if v.rule in SUPPORT_RULES] \
        == support_pair_rules(m, runs)


@settings(max_examples=150, deadline=None)
@given(designs(ordered=False))
def test_expand_matches_run_by_run_expansion(d):
    got = oofa_expand(d)
    assert got.runs == tuple(expand_runs(d.runs))
    assert (got.m, got.kind, got.n_blocks, got.as_printed) == \
        (d.m, d.kind, d.n_blocks, d.as_printed)


@settings(max_examples=150, deadline=None)
@given(designs(plants=FINITE_PLANTS))
def test_csv_is_byte_identical_to_the_run_by_run_writer(d):
    assert write_design_csv(d) == design_csv(d.m, d.kind, d.runs)


@settings(max_examples=150, deadline=None)
@given(designs())
def test_parse_of_write_gives_equal_columns(d):
    parsed = parse_design_csv(write_design_csv(d))
    assert_same_columns(parsed, d)
    assert (parsed.m, parsed.kind, parsed.n_blocks) == (d.m, d.kind, d.n_blocks)


@settings(max_examples=300, deadline=None)
@given(designs(plants=PLANTS))
def test_validate_matches_the_run_by_run_rules(d):
    assert_matches_oracles(validate_design(d), d.m, d.kind, d.runs,
                           d.n_blocks, d.as_printed)


@settings(max_examples=200, deadline=None)
@given(designs(plants=FINITE_PLANTS))
def test_parser_reports_the_run_by_run_rules(d):
    text = write_design_csv(d)
    n_blocks = min(int(d.block.max()), d.n)
    if d.kind == "amount" and np.isnan(d.amount).all():
        with pytest.raises(SchemaError, match="require a trailing 'A' column"):
            parse_design_csv(text)
        return
    try:
        parsed = parse_design_csv(text)
    except InvalidDesign as e:
        assert_matches_oracles(e.violations, d.m, d.kind, d.runs, n_blocks,
                               True)
    else:
        assert run_violations(d.m, d.kind, d.runs, n_blocks, True) == []
        assert support_pair_rules(d.m, d.runs) == []
        assert_same_columns(parsed, d)
