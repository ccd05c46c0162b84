"""Built-in blocked designs and the order-of-addition expansion.

The catalog ships two classic three-component mixture designs in two
orthogonal blocks (the Czitrom D-optimal and Aggarwal A-optimal blocked
designs), their order-of-addition expansions, and a 36-run order-of-addition
component-amount design obtained by projecting a simplex lattice onto three
components at four total-amount levels.

Values are the printed ones (edge pairs 0.168/0.832 and 0.239/0.761 placed
by a Latin-square rule, centroid 0.333/0.333/0.334, lattice levels
0.24/0.76), not closed forms, so matrices built from them match published
analyses digit for digit. No ordering is tabulated: every PWO column in the
catalog is oofa_expand of an unordered base design.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import BlockedDesign
from .errors import AlreadyExpanded, InvalidAmount
from .pwo import _expand

_CENTROID = (0.333, 0.333, 0.334)

# unordered base, rows (a1, a2, a3, block) at unit total-amount scale
_CA_PROJECTION_UNIT = (
    (0, 0, 0.24, 1),
    (0, 0.76, 0, 1),
    (0.24, 0, 0.76, 1),
    (0.76, 0.24, 0, 1),
    (0, 0, 0.24, 1),
    (0, 0.24, 0.76, 1),
    (0.24, 0.76, 0, 1),
    (0.76, 0, 0, 1),
    (0.25, 0.25, 0.25, 1),
    (0, 0.24, 0, 2),
    (0, 0, 0.76, 2),
    (0.24, 0.76, 0, 2),
    (0.76, 0, 0.24, 2),
    (0, 0.76, 0.24, 2),
    (0, 0, 0.76, 2),
    (0.24, 0, 0, 2),
    (0.76, 0.24, 0, 2),
    (0.25, 0.25, 0.25, 2),
)


def _latin_square_blocks(a: float, b: float) -> BlockedDesign:
    """Eight unordered proportion runs in two orthogonal blocks from the
    edge pair (a, b). Block 1 holds the rows of the Latin square on
    (a, b, 0), block 2 the same rows with components 2 and 3 swapped, and
    each block ends with the printed centroid."""
    square = np.array([(a, b, 0), (b, 0, a), (0, a, b)], dtype=float)
    values = np.vstack([square, _CENTROID, square[:, [0, 2, 1]], _CENTROID])
    return BlockedDesign.from_arrays(3, "proportion", values, np.zeros((8, 3)),
                                     [1] * 4 + [2] * 4, None, n_blocks=2,
                                     as_printed=True)


def czitrom_d_optimal() -> BlockedDesign:
    """Czitrom's D-optimal three-component design in two orthogonal blocks.

    Eight proportion runs, four per block: three edge blends per block plus
    one centroid replicate each. Carries no ordering information (all z = 0).
    """
    return _latin_square_blocks(0.168, 0.832)


def aggarwal_a_optimal() -> BlockedDesign:
    """Aggarwal's A-optimal counterpart of czitrom_d_optimal.

    Same block structure with edge support points 0.239/0.761: the edge
    point that minimizes trace((X'X)^-1) under the K-model (Kronecker
    quadratic, k_quadratic). Under the Scheffe quadratic the A-optimal edge
    point is 0.183 instead.
    """
    return _latin_square_blocks(0.239, 0.761)


def czitrom_d_oofa() -> BlockedDesign:
    """Order-of-addition expansion of the Czitrom design, 24 runs as
    conventionally tabulated (12 per block)."""
    return oofa_expand(czitrom_d_optimal())


def aggarwal_a_oofa() -> BlockedDesign:
    """Order-of-addition expansion of the Aggarwal design, 24 runs."""
    return oofa_expand(aggarwal_a_optimal())


def oofa_expand(base: BlockedDesign) -> BlockedDesign:
    """Replace each run of an unordered design by one run per addition order.

    Runs stay in their blocks; base run order is kept, and each run's
    orderings appear in enumerate_orderings order, smaller component first:
    the support ranked by increasing value (ties by index), its orderings in
    descending lexicographic order of their PWO vectors over those ranks. A
    run with s positive components contributes s! runs; a run with none is
    refused.
    """
    ordered = np.flatnonzero(base.pwo.any(axis=1))
    if ordered.size:
        idx = int(ordered[0])
        raise AlreadyExpanded(f"run {idx + 1} already carries an ordering "
                              f"{tuple(base.pwo[idx].tolist())}")
    rep, pwo = _expand(base.values)
    return BlockedDesign.from_arrays(
        base.m, base.kind, base.values[rep], pwo, base.block[rep],
        base.amount[rep], n_blocks=base.n_blocks, as_printed=base.as_printed)


def component_amount_projection_design(a_max: float) -> BlockedDesign:
    """Order-of-addition component-amount design, 36 runs in two blocks.

    A three-component projection of a simplex lattice with total amount
    varying over four levels {0.24, 0.75, 0.76, 1.0} x a_max. Component
    amounts are the unit-scale lattice values times a_max; each run's total
    is the row sum. a_max must be finite and positive, with a square that
    is a normal float (about 1.5e-154 to 1.3e154): a_max^2 neither
    overflows nor loses digits.
    """
    if not (a_max > 0 and sys.float_info.min <= a_max * a_max < math.inf):
        raise InvalidAmount(f"a_max must be positive with a normal float "
                            f"square (about 1.5e-154 to 1.3e154), got {a_max}")
    rows = np.array(_CA_PROJECTION_UNIT, dtype=float)
    values = rows[:, :3] * a_max
    # row totals, added left to right
    amount = values[:, 0] + values[:, 1] + values[:, 2]
    base = BlockedDesign.from_arrays(3, "amount", values, np.zeros((18, 3)),
                                     rows[:, -1], amount, n_blocks=2,
                                     as_printed=True)
    return oofa_expand(base)


CATALOG = {
    "czitrom-d": czitrom_d_optimal,
    "aggarwal-a": aggarwal_a_optimal,
    "czitrom-d-oofa": czitrom_d_oofa,
    "aggarwal-a-oofa": aggarwal_a_oofa,
    "ca-projection": component_amount_projection_design,
}
