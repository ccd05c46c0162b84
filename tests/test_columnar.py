"""Columnar designs against the per-run oracles in _oracles.py.

Random designs (m 2..6, random supports, 1-3 blocks, amount present or
absent, planted bad cells) go through the array code of oofa_expand,
write_design_csv, parse_design_csv and validate_design and through the
oracles that loop over Run objects; the two must agree exactly. Design
files, written from such designs and then mutated cell by cell, go through
parse_design_csv and the per-cell reader, which must agree too.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (design_csv, design_csv_per_row, expand_runs,
                      parse_design_csv_per_cell, pwo_from_run, run_violations,
                      support_pair_rules)
from oamix.catalog import czitrom_d_oofa, oofa_expand
from oamix.core import BlockedDesign, Run, pair_indices, validate_design
from oamix.errors import InvalidDesign, OamixError, SchemaError
from oamix.serialize import _number, parse_design_csv, write_design_csv

SUPPORT_RULES = ("pwo_partial", "pwo_cyclic")
FINITE_PLANTS = ("negative", "sum", "z_range", "z_zero_component", "partial",
                 "flip", "block", "amount_absent", "amount_negative")
PLANTS = FINITE_PLANTS + ("nan_value", "inf_value", "inf_amount")


@st.composite
def designs(draw, ordered=True, plants=(), whole_totals=False,
            kinds=("proportion", "amount")):
    """A design whose values are exact in eighths (so they survive the
    6-digit CSV format), with every block used, and with up to three
    planted bad cells drawn from plants. With whole_totals, as a design
    file needs, a total is on every run or on none: amount_absent takes
    every run's, and amount_negative plants no total."""
    m = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(kinds))
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
            for r in runs if whole_totals else [run]:
                r[3] = None
        elif plant == "amount_negative":
            if run[3] is not None or not whole_totals:
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
@given(designs(plants=FINITE_PLANTS, whole_totals=True))
def test_csv_is_byte_identical_to_the_run_by_run_writer(d):
    assert write_design_csv(d) == design_csv(d.m, d.kind, d.runs)


@settings(max_examples=150, deadline=None)
@given(designs(plants=FINITE_PLANTS, whole_totals=True), st.booleans())
def test_csv_is_byte_identical_to_the_per_row_writer(d, expand):
    # amounts: on every run or on none
    if expand and not d.pwo.any() and (d.values > 0).any(axis=1).all():
        d = oofa_expand(d)
    assert write_design_csv(d) == design_csv_per_row(d)


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


@settings(max_examples=300, deadline=None)
@given(designs(kinds=("amount",), plants=PLANTS), st.integers(-400, 400))
def test_validate_verdicts_hold_at_any_power_of_two_scale(d, k):
    # scaling by 2^k is exact, so a rule relative to the total gives the
    # same (run, rule) list at every scale of units
    scaled = BlockedDesign.from_arrays(
        d.m, d.kind, np.ldexp(d.values, k), d.pwo, d.block,
        np.ldexp(d.amount, k), d.n_blocks, d.as_printed)
    assert [v[:2] for v in validate_design(scaled)] == \
        [v[:2] for v in validate_design(d)]


@settings(max_examples=100, deadline=None)
@given(designs(plants=FINITE_PLANTS, whole_totals=True), st.data())
def test_writer_refuses_partial_totals_by_run(d, data):
    assume(d.n > 1)
    without = sorted(data.draw(st.sets(st.integers(0, d.n - 1), min_size=1,
                                       max_size=d.n - 1)))
    amount = np.where(np.isnan(d.amount), 0.5, d.amount)
    amount[without] = math.nan
    partial = BlockedDesign.from_arrays(d.m, d.kind, d.values, d.pwo, d.block,
                                        amount, d.n_blocks, d.as_printed)
    with pytest.raises(InvalidDesign) as exc:
        write_design_csv(partial)
    assert [(v.run_index, v.rule, v.message) for v in exc.value.violations] \
        == [(r, "non_finite_value", "amount is nan") for r in without]


@settings(max_examples=200, deadline=None)
@given(designs(plants=FINITE_PLANTS, whole_totals=True))
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


# cell texts for the mutations of mutated_files; none holds an underscore
# or a non-ASCII digit, which the two readers treat differently on purpose
FRACTIONS = ("0.5", "1.5", "-0.25", "1.0", "-1.0", "2.0", "1e0", "nan", "inf")
WORDS = ("abc", "", " ", "1e", "1.2.3", "0x1", "1e5", "+1", ".5", "-inf",
         "Infinity", '""', "1 2")
BLANKS = ("", "  ", "\t")
MUTATIONS = ("blank", "space", "quote", "crlf", "fraction", "word", "drop",
             "extra", "run_comma")


@st.composite
def mutated_files(draw):
    """A written design file with up to five mutations: spaces or quotes
    around a cell, CRLF line ends, blank (or whitespace) lines, fractions
    or words in cells, a cell dropped or added, a comma quoted in a run
    cell."""
    d = draw(designs(plants=FINITE_PLANTS, whole_totals=True))
    rows = [line.split(",") for line in write_design_csv(d).splitlines()]
    ends = ["\n"] * len(rows)
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.integers(0, len(rows)))
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation == "blank" or r == len(rows):
            rows.insert(r, [draw(st.sampled_from(BLANKS))])
            ends.insert(r, "\n")
            continue
        row = rows[r]
        if not row or r == 0 and mutation not in ("space", "quote", "crlf"):
            continue  # the header keeps its names
        c = draw(st.integers(0, len(row) - 1))
        if mutation == "space":
            row[c] = draw(st.sampled_from([" ", "\t", "\xa0"])) + row[c] + " "
        elif mutation == "quote":
            row[c] = f'"{row[c]}"'
        elif mutation == "crlf":
            ends[r] = "\r\n"
        elif mutation == "fraction":
            row[c] = draw(st.sampled_from(FRACTIONS))
        elif mutation == "word":
            row[c] = draw(st.sampled_from(WORDS))
        elif mutation == "drop":
            del row[c]
        elif mutation == "extra":
            row.insert(c, draw(st.sampled_from(["0", "", "x"])))
        else:
            row[0] = f'"{row[0]},x"'
    text = "".join(",".join(row) + end for row, end in zip(rows, ends))
    return text[:-1] if draw(st.booleans()) else text


def read(parse, text):
    """parse(text) as comparable facts: the design's columns, or the
    refusal's type, message and violations."""
    try:
        d = parse(text)
    except OamixError as e:
        return type(e), str(e), getattr(e, "violations", None)
    return d.m, d.kind, d.n_blocks, [np.asarray(getattr(d, name)).tolist()
                                     for name in ("values", "pwo", "block")], \
        np.isnan(d.amount).tolist(), np.nan_to_num(d.amount).tolist()


@settings(max_examples=400, deadline=None)
@given(mutated_files())
def test_parser_matches_the_per_cell_reader(text):
    assert read(parse_design_csv, text) == \
        read(parse_design_csv_per_cell, text)


def with_amount_cells(cells: dict[int, str], x1: str = "") -> str:
    """czitrom-d-oofa with an `A` column of 50s, the `A` cell of each line
    in cells replaced (the header is line 1), and x1 of line 3 if given."""
    lines = write_design_csv(czitrom_d_oofa()).splitlines()
    lines = [lines[0] + ",A"] + [line + ",50" for line in lines[1:]]
    for lineno, cell in cells.items():
        lines[lineno - 1] = lines[lineno - 1].rsplit(",", 1)[0] + "," + cell
    if x1:
        row = lines[2].split(",")
        lines[2] = ",".join([row[0], x1, *row[2:]])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cells, x1, want", [
    ({3: ""}, "", "line 3: could not convert string to float: ''"),
    ({3: "  "}, "", "line 3: could not convert string to float: '  '"),
    ({3: '""'}, "", "line 3: could not convert string to float: ''"),
    ({2: "", 25: ""}, "", "line 2: could not convert string to float: ''"),
    ({3: "nan"}, "", "amount is nan"),
    ({3: " NaN "}, "", "amount is nan"),
    ({3: "abc"}, "", "line 3: could not convert string to float: 'abc'"),
    ({3: "1e"}, "", "line 3: could not convert string to float: '1e'"),
    ({4: "abc", 5: ""}, "",
     "line 4: could not convert string to float: 'abc'"),
    ({4: "", 5: "abc"}, "x",
     "line 3: could not convert string to float: 'x'"),
])
def test_amount_cells_read_as_the_per_cell_reader(cells, x1, want):
    # an A cell is a number cell: an empty one is refused by its line, and
    # a `nan` is a given total that is not finite
    text = with_amount_cells(cells, x1)
    got = read(parse_design_csv, text)
    assert got == read(parse_design_csv_per_cell, text)
    if want.startswith("line"):
        assert got[:2] == (SchemaError, want)
    else:
        assert got[0] is InvalidDesign
        assert [(v.run_index, v.rule, v.message) for v in got[2]] == \
            [(1, "non_finite_value", want)]


def test_amount_cell_with_an_underscore_is_refused_by_line():
    # float() reads 1_0, so the per-cell reader is no reference here
    with pytest.raises(SchemaError, match=r"^line 3: could not convert "
                       r"string to float: '1_0'$"):
        parse_design_csv(with_amount_cells({3: "1_0"}))


CELL_CHARS = "0123456789.eE+-_ \t\xa0\x0b\x0c\x1finfatyxI\u0661\uff11\u2003"


@settings(max_examples=500, deadline=None)
@given(st.text(CELL_CHARS, max_size=8))
def test_cell_rule_is_np_loadtxt_rule(cell):
    try:
        want = np.loadtxt(io.StringIO(f"0,{cell}\n"), delimiter=",",
                          usecols=[1], comments=None, quotechar='"').item()
    except ValueError:
        with pytest.raises(ValueError):
            _number(cell)
    else:
        assert np.array_equal(_number(cell), want, equal_nan=True)
