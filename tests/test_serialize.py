import math
import time

import numpy as np
import pytest

from _oracles import parse_design_csv_per_cell
from oamix.catalog import (component_amount_projection_design, czitrom_d_oofa,
                           czitrom_d_optimal)
from oamix.core import BlockedDesign, Run
from oamix.errors import EmptyDesign, InvalidDesign, SchemaError
from oamix.serialize import (parse_design_csv, parse_response_csv,
                              write_design_csv)

# header: run,x1,x2,x3,z12,z13,z23,block; line 2 is run 1, (0.168, 0.832, 0)
# added with z12 = +1 in block 1
X1, Z12, BLOCK = 1, 4, 7


def with_cell(col: int, value: str, lineno: int = 2) -> str:
    lines = write_design_csv(czitrom_d_oofa()).splitlines()
    cells = lines[lineno - 1].split(",")
    cells[col] = value
    lines[lineno - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("col, value", [(Z12, "0.9"), (Z12, "nan"),
                                        (BLOCK, "1.7"), (BLOCK, "inf")])
def test_fractional_pair_and_block_cells_are_refused(col, value):
    with pytest.raises(SchemaError, match="line 2: not an integer"):
        parse_design_csv(with_cell(col, value))


def test_integral_floats_are_accepted():
    text = with_cell(BLOCK, "1.0").replace("\n1,0.168,0.832,0,1,",
                                           "\n1,0.168,0.832,0,1.0,")
    assert "1.0,0,0,1.0\n" in text
    assert parse_design_csv(text).runs == parse_design_csv(
        write_design_csv(czitrom_d_oofa())).runs


# the two cells the reader refuses although float() reads them, where the
# per-cell reader of _oracles.py took them as numbers
@pytest.mark.parametrize("col, value", [(X1, "0.1_68"), (BLOCK, "0_1"),
                                        (X1, "\u0660.\u0661\u0666\u0668"),
                                        (Z12, "\uff11")])
def test_underscores_and_non_ascii_digits_are_refused_by_line(col, value):
    text = with_cell(col, value)
    assert parse_design_csv_per_cell(text).runs == czitrom_d_oofa().runs
    with pytest.raises(SchemaError, match=f"^line 2: could not convert "
                                          f"string to float: '{value}'$"):
        parse_design_csv(text)


def test_quotes_spaces_crlf_and_blank_lines_are_read_as_before():
    lines = write_design_csv(czitrom_d_oofa()).splitlines()
    lines[1] = '1," 0.168 ",\t0.832,0,"1",0,0,1.0 '
    text = "\r\n\r\n".join(lines) + "\r\n"
    assert parse_design_csv(text).runs == czitrom_d_oofa().runs
    assert parse_design_csv_per_cell(text).runs == czitrom_d_oofa().runs


def test_hash_starts_no_comment():
    text = with_cell(0, "#1").replace("\n2,", "\n#,", 1)
    assert parse_design_csv(text).runs == czitrom_d_oofa().runs
    with pytest.raises(SchemaError, match="line 2: .*'0.168#'"):
        parse_design_csv(with_cell(X1, "0.168#"))


def test_data_np_loadtxt_cannot_split_is_a_schema_error():
    # csv.reader skips a line of two carriage returns; np.loadtxt reads the
    # first as an unquoted line break inside the line
    with pytest.raises(SchemaError, match="^unreadable design data: "):
        parse_design_csv(write_design_csv(czitrom_d_oofa()) + "\r\r\n")


def test_bare_carriage_return_is_refused_by_line():
    # csv.reader cannot split a line holding a bare CR; the refusal names
    # the line, counted from the header with blank lines skipped
    lines = write_design_csv(czitrom_d_oofa()).splitlines()
    header = "\n".join([lines[0].replace(",x2,", ",\rx2,"), *lines[1:]])
    with pytest.raises(SchemaError, match="^line 1: new-line character"):
        parse_design_csv(header + "\n")
    lines[2] = lines[2].replace(",", ",\r", 1)
    data = "\n".join([*lines[:2], "", *lines[2:]])
    with pytest.raises(SchemaError, match="^line 3: new-line character"):
        parse_design_csv(data + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_component_is_refused(value):
    with pytest.raises(SchemaError, match="run 1: non_finite_value"):
        parse_design_csv(with_cell(X1, value))


def test_bad_cells_are_reported_in_reading_order():
    # line 3 has a fraction in a pair cell, line 5 a word in a value cell:
    # the first line wins, as does the first bad cell within a line
    text = with_cell(Z12, "0.5", lineno=3)
    lines = text.splitlines()
    lines[4] = lines[4].replace("0.832", "abc", 1)
    with pytest.raises(SchemaError, match="line 3: not an integer: '0.5'"):
        parse_design_csv("\n".join(lines) + "\n")
    lines = with_cell(BLOCK, "x", lineno=2).splitlines()
    lines[1] = lines[1].replace(",1,0,0,", ",0.5,0,0,")
    with pytest.raises(SchemaError, match="line 2: not an integer: '0.5'"):
        parse_design_csv("\n".join(lines) + "\n")
    short = with_cell(X1, "0.1", lineno=2).replace("\n2,", "\n2,0.5,", 1)
    with pytest.raises(SchemaError, match="line 3: expected 8 fields, got 9"):
        parse_design_csv(short)


# line 8 is run 7, the first full-support centroid, ordered 1,1,1
@pytest.mark.parametrize("pwo, rule", [("1,-1,1", "pwo_cyclic"),
                                       ("-1,1,-1", "pwo_cyclic"),
                                       ("1,0,0", "pwo_partial"),
                                       ("0,-1,0", "pwo_partial")])
def test_partial_and_cyclic_pwo_are_refused(pwo, rule):
    text = write_design_csv(czitrom_d_oofa()).replace(
        "\n7,0.333,0.333,0.334,1,1,1,1\n", f"\n7,0.333,0.333,0.334,{pwo},1\n")
    with pytest.raises(InvalidDesign) as exc:
        parse_design_csv(text)
    assert [(v.run_index, v.rule) for v in exc.value.violations] == [(6, rule)]
    assert f"run 7: {rule}" in str(exc.value)


def test_unordered_full_support_is_accepted():
    # the base designs carry no ordering: every support pair is 0
    d = parse_design_csv(write_design_csv(czitrom_d_optimal()))
    assert not d.pwo.any()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_amount_cell_is_one_rule(value):
    lines = write_design_csv(component_amount_projection_design(100.0)).splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
    with pytest.raises(InvalidDesign) as exc:
        parse_design_csv("\n".join(lines) + "\n")
    assert [(v.run_index, v.rule) for v in exc.value.violations] == \
        [(0, "non_finite_value")]
    assert exc.value.violations[0].message == f"amount is {float(value)}"


def with_amount_cell(cell: str | None) -> str:
    """The ca-projection file at a_max 100, the `A` cell of line 3 (run 2)
    replaced by cell unless it is None."""
    lines = write_design_csv(component_amount_projection_design(100.0))
    lines = lines.splitlines()
    if cell is not None:
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
    return "\n".join(lines) + "\n"


def test_empty_amount_cell_is_refused_by_its_line():
    # an amount design needs a total on every run, read like any cell
    with pytest.raises(SchemaError, match="^line 3: could not convert "
                                          "string to float: ''$"):
        parse_design_csv(with_amount_cell(""))


@pytest.mark.parametrize("cell", [None, "nan", ""])
def test_a_design_file_is_read_with_one_loadtxt_call(monkeypatch, cell):
    # a clean file, a `nan` total (non_finite_value) and an empty A cell
    # (refused by its line) each cost one np.loadtxt pass
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda *a, **kw: calls.append(a) or loadtxt(*a, **kw))
    try:
        parse_design_csv(with_amount_cell(cell))
    except (InvalidDesign, SchemaError):
        assert cell is not None
    assert len(calls) == 1


@pytest.mark.parametrize("label", ["400000", "1e9", "1e300"])
def test_huge_block_label_is_refused_at_once(label):
    # 24 runs fill at most 24 blocks, so the label is out of range; the
    # refusal must not list every empty label up to it
    start = time.perf_counter()
    with pytest.raises(InvalidDesign) as exc:
        parse_design_csv(with_cell(BLOCK, label))
    assert time.perf_counter() - start < 1.0
    assert (0, "block_label_range") in [(v.run_index, v.rule)
                                        for v in exc.value.violations]
    assert len(exc.value.violations) <= 24


@pytest.mark.parametrize("component, amount", [
    (math.nan, None), (math.inf, None), (-math.inf, None), (0.5, math.inf)])
def test_writer_refuses_non_finite_values_by_run(component, amount):
    runs = list(czitrom_d_optimal().runs)
    runs[2] = Run((component, 0.5, 0.0), (0, 0, 0), amount=amount)
    d = BlockedDesign(3, "proportion", runs, 2)
    with pytest.raises(InvalidDesign) as exc:
        write_design_csv(d)
    # a total on run 2 alone: every other run is named for having none
    named = range(len(runs)) if amount is not None else [2]
    assert [(v.run_index, v.rule) for v in exc.value.violations] == \
        [(r, "non_finite_value") for r in named]


def test_response_file_reads_the_last_cell_of_each_line():
    # a header, quotes, spaces, CRLF and blank lines, as in a design file
    text = 'run,y\r\n1, 2.5\r\n\r\n2,"1e3"\r\n3,-1\r\n'
    assert parse_response_csv(text, 3) == [2.5, 1000.0, -1.0]
    assert parse_response_csv("\n4\n5\n", 2) == [4.0, 5.0]


@pytest.mark.parametrize("text, lineno", [
    ("y\n\n1\n\nx\n", 3),  # blank lines are not counted
    ("1\ny\n", 2)])  # only the first line may be a header
def test_response_file_refuses_a_bad_cell_by_its_line(text, lineno):
    with pytest.raises(SchemaError, match=f"^response line {lineno}: "
                                          "not a number: "):
        parse_response_csv(text, 2)


def test_response_line_csv_cannot_split_is_named_as_a_response_line():
    with pytest.raises(SchemaError, match="^response line 2: new-line "
                                          "character seen in unquoted field"):
        parse_response_csv("y\n1\r2\n3\n", 3)


def test_response_count_must_match_the_runs():
    with pytest.raises(SchemaError, match="^response has 2 values for a "
                                          "design of 3 runs$"):
        parse_response_csv("y\n1\n2\n", 3)


def test_empty_and_header_only_design_files():
    with pytest.raises(SchemaError, match="^empty file: no header row$"):
        parse_design_csv("\n\n")
    with pytest.raises(EmptyDesign):
        parse_design_csv("run,x1,x2,x3,z12,z13,z23,block\n\n")


@pytest.mark.parametrize("header", [
    "run", "run,y1,y2,z12,block", "run,x1,a2,z12,block",
    "run,x2,x1,z12,block", "run,x1,z12,block"])
def test_component_columns_must_be_x1_to_xm_or_a1_to_am(header):
    with pytest.raises(SchemaError, match="^expected component columns "
                                          "x1..xm or a1..am, got "):
        parse_design_csv(header + "\n1,0.5,0.5,0,1\n")


def test_header_past_the_component_columns_must_match_exactly():
    header = "run,x1,x2,x3,z12,z13,z23,blok"
    with pytest.raises(SchemaError, match="^expected header run,x1,x2,x3,"
                                          f"z12,z13,z23,block, got {header}$"):
        parse_design_csv(header + "\n1,0.5,0.5,0,1,0,0,1\n")
