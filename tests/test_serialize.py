import math

import numpy as np
import pytest

from oamix.catalog import (component_amount_projection_design, czitrom_d_oofa,
                           czitrom_d_optimal)
from oamix.errors import InvalidDesign, SchemaError
from oamix.serialize import parse_design_csv, write_design_csv

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


def test_empty_amount_cell_is_absent():
    lines = write_design_csv(czitrom_d_oofa()).splitlines()
    lines = [lines[0] + ",A"] + [line + ("," if k else ",50")
                                 for k, line in enumerate(lines[1:])]
    d = parse_design_csv("\n".join(lines) + "\n")
    assert d.amount[0] == 50.0 and np.isnan(d.amount[1:]).all()
    assert d.runs[1].amount is None
    assert write_design_csv(d) == "\n".join(lines) + "\n"
