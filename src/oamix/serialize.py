"""Design-file CSV format, response files and FDS output files.

Design CSV layout: header `run`, then `x1..xm` (proportion) or `a1..am`
(amount), the pairwise columns `z12..z(m-1)m` in pair order, `block`, and a
trailing `A` column when runs carry a total amount (required for amount
designs). Numbers are written with up to 6 significant digits, trailing
zeros trimmed; parsed designs are treated as printed data (rounded), so a
write/parse round trip preserves every catalog design exactly.

Cells are read in one format. A number is ASCII decimal text as float()
reads it (`0.25`, `-1`, `2.5e-3`, `1.0`, `inf`, `nan`), spaces around it
allowed; `1_000` and non-ASCII digits are refused. A cell may be quoted
with `"` (`""` inside quotes is one quote). Lines end in LF or CRLF; blank
lines are skipped; `#` starts no comment. Pair and block cells must hold
integers (`1` or `1.0`); a fraction there is refused, never truncated. An
`A` cell holds its run's total like any number cell; an empty one is
refused. A refusal names the first bad line, counting the header as line 1
and skipping blank lines, and its first bad cell.
"""

from __future__ import annotations

import csv
import io
import math
from typing import TYPE_CHECKING

import numpy as np

from .core import BlockedDesign, pair_indices, validate_columns
from .errors import EmptyDesign, InvalidDesign, SchemaError

if TYPE_CHECKING:  # annotations only: writing a design never loads evaluate
    from .evaluate import FDSCurve


def fmt_num(v: float) -> str:
    """Up to 6 significant digits, integers bare, trailing zeros trimmed."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _header(m: int, kind: str, with_amount: bool) -> list[str]:
    prefix = "a" if kind == "amount" else "x"
    cols = ["run"] + [f"{prefix}{i}" for i in range(1, m + 1)]
    cols += [f"z{j}{k}" for j, k in pair_indices(m)]
    cols.append("block")
    if with_amount:
        cols.append("A")
    return cols


def _formatted(a: np.ndarray, fmt) -> np.ndarray:
    """fmt of every entry of a, as an object array of a's shape; each
    distinct value is formatted once."""
    distinct, which = np.unique(a, return_inverse=True)
    cells = np.array([fmt(v) for v in distinct.tolist()], dtype=object)
    return cells[which.reshape(a.shape)]


# the cell of every int8 value, indexed by the value itself (negative
# values count from the end)
_INT8_CELLS = np.array([str(z) for z in (*range(128), *range(-128, 0))],
                       dtype=object)


def write_design_csv(design: BlockedDesign) -> str:
    """The design file of a design; InvalidDesign names each run holding a
    NaN or infinite component or amount, which no cell can hold. A design
    with a total on some runs needs one on every run: each run without one
    is named as the reader names a `nan` cell, "amount is nan"."""
    with_amount = not np.isnan(design.amount).all()
    if (not np.isfinite(design.values).all()
            or with_amount and not np.isfinite(design.amount).all()):
        raise InvalidDesign([v for v in validate_columns(
            design.m, design.kind, design.n_blocks, design.as_printed,
            design.values, design.pwo, design.block, design.amount,
            with_amount) if v.rule == "non_finite_value"])
    columns = [[*map(str, range(1, design.n + 1))],
               *_formatted(design.values.T, fmt_num).tolist(),
               *_INT8_CELLS[design.pwo.T].tolist(),
               _formatted(design.block, str).tolist()]
    if with_amount:
        columns.append(_formatted(design.amount, fmt_num).tolist())
    rows = [_header(design.m, design.kind, with_amount), *zip(*columns)]
    return "\n".join(map(",".join, rows)) + "\n"


def _number(cell: str) -> float:
    """A number cell as np.loadtxt reads one: float() of the stripped text
    when it is ASCII and holds no underscore; the refusal is float()'s."""
    s = cell.strip()
    if s.isascii() and "_" not in s:
        try:
            return float(s)
        except ValueError:
            pass
    raise ValueError(f"could not convert string to float: {cell!r}")


def _data_rows(data: str, start: int, prefix: str = ""):
    """(line number, cells) of every line of data, numbering its first line
    start and skipping blank lines; a line that csv cannot split (a bare CR
    inside it) is refused with SchemaError by its number, after prefix."""
    lineno = start - 1
    try:
        for row in filter(None, csv.reader(io.StringIO(data))):
            lineno += 1
            yield lineno, row
    except csv.Error as e:
        raise SchemaError(f"{prefix}line {lineno + 1}: {e}") from None


def _refuse_first_bad_line(data: str, m: int, npairs: int, with_amount: bool):
    """Raise SchemaError for the first data line with the wrong field count
    or a cell that is not a number (an integer in pair and block cells),
    reading cells in order: components, pairs, block, amount. Lines are
    counted from the header, blank lines skipped."""
    width = 1 + m + npairs + 1 + with_amount
    for lineno, row in _data_rows(data, 2):
        if len(row) != width:
            raise SchemaError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            for cell in row[1:1 + m]:
                _number(cell)
            for cell in row[1 + m:2 + m + npairs]:  # `1` or `1.0` only
                if not _number(cell).is_integer():
                    raise ValueError(f"not an integer: {cell.strip()!r}")
            if with_amount:
                _number(row[-1])
        except ValueError as e:
            raise SchemaError(f"line {lineno}: {e}") from None


def parse_design_csv(text: str) -> BlockedDesign:
    """Parse and validate a design file; see module doc for the layout."""
    f = io.StringIO(text)
    try:
        header = next(filter(None, csv.reader(f)), None)
    except csv.Error as e:
        raise SchemaError(f"line 1: {e}") from None
    if header is None:
        raise SchemaError("empty file: no header row")
    header = [h.strip() for h in header]
    if header[0] != "run":
        raise SchemaError(f"first column must be 'run', got {header[:1]}")

    # component columns: x1.. or a1.., contiguous from position 1
    prefix = header[1][:1] if len(header) > 1 else ""
    m = 0
    while 1 + m < len(header) and header[1 + m] == f"{prefix}{m + 1}":
        m += 1
    if prefix not in ("x", "a") or m < 2:
        raise SchemaError(
            f"expected component columns x1..xm or a1..am, got {header[1:3]}")
    kind = "amount" if prefix == "a" else "proportion"
    with_amount = header[-1] == "A"
    expected = _header(m, kind, with_amount)
    if header != expected:
        raise SchemaError(f"expected header {','.join(expected)}, "
                          f"got {','.join(header)}")
    if kind == "amount" and not with_amount:
        raise SchemaError("amount designs require a trailing 'A' column")

    data = f.read()  # every line after the header
    if not data.strip("\r\n"):
        raise EmptyDesign("design file has a header but no data rows")
    npairs = len(pair_indices(m))
    width = len(header)
    k = m + npairs + 1  # components, pairs and block; then A if present
    # one pass over every cell, then the checks on the whole array; the
    # line is looked for only when a check fails
    try:
        F = np.loadtxt(io.StringIO(data), delimiter=",",
                       usecols=range(1, width), ndmin=2, comments=None,
                       quotechar='"')
    except ValueError as e:
        _refuse_first_bad_line(data, m, npairs, with_amount)
        raise SchemaError(f"unreadable design data: {e}") from None
    integral = F[:, m:k]
    # usecols skips extra fields, so the commas count them; a comma quoted
    # in a run cell counts too, and the scan then finds no bad line
    if (data.count(",") != len(F) * (width - 1) or not
            (np.isfinite(integral) & (np.floor(integral) == integral)).all()):
        _refuse_first_bad_line(data, m, npairs, with_amount)
    V, Z, B = F[:, :m], F[:, m:m + npairs], F[:, k - 1]
    amount = F[:, k] if with_amount else np.full(len(F), math.nan)
    # n runs fill at most n blocks: a larger label is out of range
    n_blocks = min(int(B.max()), len(F))
    violations = validate_columns(m, kind, n_blocks, True, V, Z, B, amount,
                                  with_amount)
    if violations:
        raise InvalidDesign(violations)
    return BlockedDesign.from_arrays(m, kind, V, Z, B, amount, n_blocks,
                                     as_printed=True)


def parse_response_csv(text: str, n: int) -> list[float]:
    """The n responses of a response file, read by the design file's line
    and cell rules: each line's last cell is its response, and a first line
    that is not a number is a header. SchemaError names the first bad line,
    counting from line 1 and skipping blank lines, or the wrong count."""
    values = []
    for lineno, row in _data_rows(text, 1, "response "):
        try:
            values.append(_number(row[-1]))
        except ValueError:
            if lineno > 1:
                raise SchemaError(f"response line {lineno}: not a number: "
                                  f"{row[-1].strip()!r}") from None
    if len(values) != n:
        raise SchemaError(
            f"response has {len(values)} values for a design of {n} runs")
    return values


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag  # raw < 10 * mag


def fds_svg(curve: FDSCurve) -> str:
    """Self-contained 640 x 440 SVG polyline of variance vs fraction."""
    width, height = 640, 440
    left, right, top, bottom = 70, 20, 20, 50
    pw, ph = width - left - right, height - top - bottom
    vmax = max(curve.variances)
    step = _nice_step(vmax)
    ymax = step * math.ceil(vmax / step) if vmax > 0 else 1.0
    yticks = []
    t = 0.0
    while t <= ymax * (1 + 1e-9):
        yticks.append(t)
        t += step

    def sx(f: float) -> float:
        return left + f * pw

    def sy(v: float) -> float:
        return top + ph - (v / ymax) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" '
        'stroke="black"/>',
    ]
    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = sx(f)
        parts.append(f'<line x1="{x:.1f}" y1="{top + ph}" x2="{x:.1f}" '
                     f'y2="{top + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + ph + 20}" '
                     'font-size="12" text-anchor="middle">'
                     f'{fmt_num(f)}</text>')
    for v in yticks:
        y = sy(v)
        parts.append(f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="12" '
                     f'text-anchor="end">{fmt_num(round(v, 10))}</text>')
    parts.append(f'<text x="{left + pw / 2:.1f}" y="{height - 10}" '
                 'font-size="13" text-anchor="middle">'
                 'Fraction of design space</text>')
    parts.append(f'<text x="15" y="{top + ph / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 15 '
                 f'{top + ph / 2:.1f})">Prediction variance</text>')
    pts = " ".join(f"{sx(f):.2f},{sy(v):.2f}"
                   for f, v in zip(curve.fractions, curve.variances))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" '
                 'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_fds_outputs(curve: FDSCurve, base_path: str) -> tuple[str, str]:
    """Write `<base>.csv` (full precision) and `<base>.svg`; return paths."""
    csv_path = f"{base_path}.csv"
    svg_path = f"{base_path}.svg"
    with open(csv_path, "w", newline="") as fh:
        fh.write("fraction,variance\n" + "".join(
            f"{f!r},{v!r}\n"
            for f, v in zip(curve.fractions, curve.variances)))
    with open(svg_path, "w") as fh:
        fh.write(fds_svg(curve))
    return csv_path, svg_path
