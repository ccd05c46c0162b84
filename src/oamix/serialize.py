"""Design-file CSV format and FDS output files.

Design CSV layout: header `run`, then `x1..xm` (proportion) or `a1..am`
(amount), the pairwise columns `z12..z(m-1)m` in pair order, `block`, and a
trailing `A` column when runs carry a total amount (required for amount
designs). Numbers are written with up to 6 significant digits, trailing
zeros trimmed; parsed designs are treated as printed data (rounded), so a
write/parse round trip preserves every catalog design exactly. Pair and
block cells must hold integers (`1` or `1.0`); a fraction there is refused,
never truncated.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator

import numpy as np

from .core import (BlockedDesign, pair_indices, validate_columns,
                   validate_design)
from .errors import EmptyDesign, InvalidDesign, SchemaError
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
    NaN or infinite component or amount, which no cell can hold."""
    if not np.isfinite(design.values).all() or np.isinf(design.amount).any():
        raise InvalidDesign([v for v in validate_design(design)
                             if v.rule == "non_finite_value"])
    with_amount = not np.isnan(design.amount).all()
    header = ",".join(_header(design.m, design.kind, with_amount)) + "\n"
    columns = [_formatted(design.values, fmt_num), _INT8_CELLS[design.pwo],
               _formatted(design.block, str)[:, None]]
    if with_amount:
        columns.append(_formatted(
            design.amount, lambda a: "" if math.isnan(a) else fmt_num(a))[:, None])
    rows = map(",".join, np.hstack(columns).tolist())
    return header + "".join(f"{i},{row}\n" for i, row in enumerate(rows, 1))


def _integer(cell: str) -> int:
    """An integral cell such as `1` or `1.0`; anything else is refused."""
    v = float(cell)
    if not v.is_integer():
        raise ValueError(f"not an integer: {cell.strip()!r}")
    return int(v)


def _refuse_first_bad_line(data, m: int, npairs: int, with_amount: bool):
    """Raise SchemaError for the first data line with the wrong field count
    or a cell that is not a number (an integer in pair and block cells),
    reading cells in order: components, pairs, block, amount."""
    width = 1 + m + npairs + 1 + with_amount
    for lineno, row in enumerate(data, start=2):
        if len(row) != width:
            raise SchemaError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            for cell in row[1:1 + m]:
                float(cell)
            for cell in row[1 + m:2 + m + npairs]:
                _integer(cell)
            if with_amount and row[-1].strip():
                float(row[-1].strip())
        except ValueError as e:
            raise SchemaError(f"line {lineno}: {e}") from None


def parse_design_csv(text: str) -> BlockedDesign:
    """Parse and validate a design file; see module doc for the layout."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise SchemaError("empty file: no header row")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "run":
        raise SchemaError(f"first column must be 'run', got {header[:1]}")

    # component columns: x1.. or a1.., contiguous from position 1
    m = 0
    prefix = None
    for h in header[1:]:
        want = f"{prefix or h[:1]}{m + 1}"
        if h == want and h[:1] in ("x", "a"):
            prefix = h[:1]
            m += 1
        else:
            break
    if m < 2:
        raise SchemaError(
            f"expected component columns x1..xm or a1..am, got {header[1:3]}")
    kind = "amount" if prefix == "a" else "proportion"

    pos = 1 + m
    expected_z = [f"z{j}{k}" for j, k in pair_indices(m)]
    got_z = header[pos:pos + len(expected_z)]
    if got_z != expected_z:
        raise SchemaError(
            f"expected pair columns {expected_z}, got {got_z}")
    pos += len(expected_z)
    if pos >= len(header) or header[pos] != "block":
        raise SchemaError("missing 'block' column after the pair columns")
    pos += 1
    with_amount = pos < len(header) and header[pos] == "A"
    if with_amount:
        pos += 1
    if pos != len(header):
        raise SchemaError(f"unexpected trailing columns {header[pos:]}")
    if kind == "amount" and not with_amount:
        raise SchemaError("amount designs require a trailing 'A' column")

    data = rows[1:]
    if not data:
        raise EmptyDesign("design file has a header but no data rows")
    npairs = len(expected_z)
    given = ([row[-1].strip() for row in data] if with_amount
             else [""] * len(data))
    # components, pairs and block: one float per cell, then the checks on
    # the whole array; the line is looked for only when a check fails
    k = m + npairs + 1
    try:
        if set(map(len, data)) != {len(header)}:
            raise ValueError
        cells = np.fromiter(map(float, itertools.chain.from_iterable(
            map(operator.itemgetter(slice(1, 1 + k)), data))),
            dtype=float, count=len(data) * k)
        F = cells.reshape(len(data), k)
        integral = F[:, m:]
        if not (np.isfinite(integral) & (np.floor(integral) == integral)).all():
            raise ValueError
        amount = np.array([float(c) if c else math.nan for c in given])
    except ValueError:
        _refuse_first_bad_line(data, m, npairs, with_amount)
        raise
    V, Z, B = F[:, :m], F[:, m:m + npairs], F[:, -1]
    # n runs fill at most n blocks: a larger label is out of range
    n_blocks = min(int(B.max()), len(data))
    violations = validate_columns(m, kind, n_blocks, True, V, Z, B, amount,
                                  [c != "" for c in given])
    if violations:
        raise InvalidDesign(violations)
    return BlockedDesign.from_arrays(m, kind, V, Z, B, amount, n_blocks,
                                     as_printed=True)


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def fds_svg(curve: FDSCurve, width: int = 640, height: int = 440) -> str:
    """Self-contained SVG polyline of prediction variance vs fraction."""
    left, right, top, bottom = 70, 20, 20, 50
    pw = width - left - right
    ph = height - top - bottom
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
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["fraction", "variance"])
        for f, v in zip(curve.fractions, curve.variances):
            w.writerow([repr(f), repr(v)])
    with open(svg_path, "w") as fh:
        fh.write(fds_svg(curve))
    return csv_path, svg_path
