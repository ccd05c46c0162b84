import pytest

from oamix.catalog import czitrom_d_oofa
from oamix.errors import SchemaError
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
