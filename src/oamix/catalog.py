"""Built-in blocked designs and the order-of-addition expansion.

The catalog ships two classic three-component mixture designs in two
orthogonal blocks (the Czitrom D-optimal and Aggarwal A-optimal blocked
designs), their order-of-addition expansions, and a 36-run order-of-addition
component-amount design obtained by projecting a simplex lattice onto three
components at four total-amount levels.

Values are stored exactly as conventionally printed (0.168/0.832,
0.239/0.761, centroid split 0.333/0.333/0.334, lattice levels 0.24/0.76)
rather than re-derived from closed forms, so matrices built from them match
published analyses digit for digit.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import BlockedDesign
from .errors import AlreadyExpanded, InvalidAmount
from .pwo import enumerate_orderings

# rows: (x1, x2, x3, block)
_CZITROM_BASE = (
    (0.168, 0.832, 0, 1),
    (0.832, 0, 0.168, 1),
    (0, 0.168, 0.832, 1),
    (0.333, 0.333, 0.334, 1),
    (0.168, 0, 0.832, 2),
    (0.832, 0.168, 0, 2),
    (0, 0.832, 0.168, 2),
    (0.333, 0.333, 0.334, 2),
)

_AGGARWAL_BASE = (
    (0.239, 0.761, 0, 1),
    (0.761, 0, 0.239, 1),
    (0, 0.239, 0.761, 1),
    (0.333, 0.333, 0.334, 1),
    (0.239, 0, 0.761, 2),
    (0.761, 0.239, 0, 2),
    (0, 0.761, 0.239, 2),
    (0.333, 0.333, 0.334, 2),
)

# rows: (x1, x2, x3, z12, z13, z23, block)
_CZITROM_OOFA = (
    (0.168, 0.832, 0, 1, 0, 0, 1),
    (0.168, 0.832, 0, -1, 0, 0, 1),
    (0.832, 0, 0.168, 0, -1, 0, 1),
    (0.832, 0, 0.168, 0, 1, 0, 1),
    (0, 0.168, 0.832, 0, 0, 1, 1),
    (0, 0.168, 0.832, 0, 0, -1, 1),
    (0.333, 0.333, 0.334, 1, 1, 1, 1),
    (0.333, 0.333, 0.334, 1, 1, -1, 1),
    (0.333, 0.333, 0.334, 1, -1, -1, 1),
    (0.333, 0.333, 0.334, -1, 1, 1, 1),
    (0.333, 0.333, 0.334, -1, -1, 1, 1),
    (0.333, 0.333, 0.334, -1, -1, -1, 1),
    (0.168, 0, 0.832, 0, 1, 0, 2),
    (0.168, 0, 0.832, 0, -1, 0, 2),
    (0.832, 0.168, 0, -1, 0, 0, 2),
    (0.832, 0.168, 0, 1, 0, 0, 2),
    (0, 0.832, 0.168, 0, 0, -1, 2),
    (0, 0.832, 0.168, 0, 0, 1, 2),
    (0.333, 0.333, 0.334, 1, 1, 1, 2),
    (0.333, 0.333, 0.334, 1, 1, -1, 2),
    (0.333, 0.333, 0.334, 1, -1, -1, 2),
    (0.333, 0.333, 0.334, -1, 1, 1, 2),
    (0.333, 0.333, 0.334, -1, -1, 1, 2),
    (0.333, 0.333, 0.334, -1, -1, -1, 2),
)

_AGGARWAL_OOFA = (
    (0.239, 0.761, 0, 1, 0, 0, 1),
    (0.239, 0.761, 0, -1, 0, 0, 1),
    (0.761, 0, 0.239, 0, -1, 0, 1),
    (0.761, 0, 0.239, 0, 1, 0, 1),
    (0, 0.239, 0.761, 0, 0, 1, 1),
    (0, 0.239, 0.761, 0, 0, -1, 1),
    (0.333, 0.333, 0.334, 1, 1, 1, 1),
    (0.333, 0.333, 0.334, 1, 1, -1, 1),
    (0.333, 0.333, 0.334, 1, -1, -1, 1),
    (0.333, 0.333, 0.334, -1, 1, 1, 1),
    (0.333, 0.333, 0.334, -1, -1, 1, 1),
    (0.333, 0.333, 0.334, -1, -1, -1, 1),
    (0.239, 0, 0.761, 0, 1, 0, 2),
    (0.239, 0, 0.761, 0, -1, 0, 2),
    (0.761, 0.239, 0, -1, 0, 0, 2),
    (0.761, 0.239, 0, 1, 0, 0, 2),
    (0, 0.761, 0.239, 0, 0, -1, 2),
    (0, 0.761, 0.239, 0, 0, 1, 2),
    (0.333, 0.333, 0.334, 1, 1, 1, 2),
    (0.333, 0.333, 0.334, 1, 1, -1, 2),
    (0.333, 0.333, 0.334, 1, -1, -1, 2),
    (0.333, 0.333, 0.334, -1, 1, 1, 2),
    (0.333, 0.333, 0.334, -1, -1, 1, 2),
    (0.333, 0.333, 0.334, -1, -1, -1, 2),
)

# rows: (a1, a2, a3, z12, z13, z23, block) at unit total-amount scale
_CA_PROJECTION_UNIT = (
    (0, 0, 0.24, 0, 0, 0, 1),
    (0, 0.76, 0, 0, 0, 0, 1),
    (0.24, 0, 0.76, 0, 1, 0, 1),
    (0.24, 0, 0.76, 0, -1, 0, 1),
    (0.76, 0.24, 0, -1, 0, 0, 1),
    (0.76, 0.24, 0, 1, 0, 0, 1),
    (0, 0, 0.24, 0, 0, 0, 1),
    (0, 0.24, 0.76, 0, 0, 1, 1),
    (0, 0.24, 0.76, 0, 0, -1, 1),
    (0.24, 0.76, 0, 1, 0, 0, 1),
    (0.24, 0.76, 0, -1, 0, 0, 1),
    (0.76, 0, 0, 0, 0, 0, 1),
    (0.25, 0.25, 0.25, 1, 1, 1, 1),
    (0.25, 0.25, 0.25, 1, 1, -1, 1),
    (0.25, 0.25, 0.25, 1, -1, -1, 1),
    (0.25, 0.25, 0.25, -1, 1, 1, 1),
    (0.25, 0.25, 0.25, -1, -1, 1, 1),
    (0.25, 0.25, 0.25, -1, -1, -1, 1),
    (0, 0.24, 0, 0, 0, 0, 2),
    (0, 0, 0.76, 0, 0, 0, 2),
    (0.24, 0.76, 0, 1, 0, 0, 2),
    (0.24, 0.76, 0, -1, 0, 0, 2),
    (0.76, 0, 0.24, 0, -1, 0, 2),
    (0.76, 0, 0.24, 0, 1, 0, 2),
    (0, 0.76, 0.24, 0, 0, -1, 2),
    (0, 0.76, 0.24, 0, 0, 1, 2),
    (0, 0, 0.76, 0, 0, 0, 2),
    (0.24, 0, 0, 0, 0, 0, 2),
    (0.76, 0.24, 0, -1, 0, 0, 2),
    (0.76, 0.24, 0, 1, 0, 0, 2),
    (0.25, 0.25, 0.25, 1, 1, 1, 2),
    (0.25, 0.25, 0.25, 1, 1, -1, 2),
    (0.25, 0.25, 0.25, 1, -1, -1, 2),
    (0.25, 0.25, 0.25, -1, 1, 1, 2),
    (0.25, 0.25, 0.25, -1, -1, 1, 2),
    (0.25, 0.25, 0.25, -1, -1, -1, 2),
)


def _proportion_design(rows, with_pwo: bool) -> BlockedDesign:
    rows = np.array(rows, dtype=float)
    pwo = rows[:, 3:6] if with_pwo else np.zeros((len(rows), 3))
    return BlockedDesign.from_arrays(3, "proportion", rows[:, :3], pwo,
                                     rows[:, -1], None, n_blocks=2,
                                     as_printed=True)


def czitrom_d_optimal() -> BlockedDesign:
    """Czitrom's D-optimal three-component design in two orthogonal blocks.

    Eight proportion runs, four per block: three edge blends per block plus
    one centroid replicate each. Carries no ordering information (all z = 0).
    """
    return _proportion_design(_CZITROM_BASE, with_pwo=False)


def aggarwal_a_optimal() -> BlockedDesign:
    """Aggarwal's A-optimal counterpart of czitrom_d_optimal.

    Same block structure with edge support points 0.239/0.761.
    """
    return _proportion_design(_AGGARWAL_BASE, with_pwo=False)


def czitrom_d_oofa() -> BlockedDesign:
    """Order-of-addition expansion of the Czitrom design, 24 runs as
    conventionally tabulated (12 per block)."""
    return _proportion_design(_CZITROM_OOFA, with_pwo=True)


def aggarwal_a_oofa() -> BlockedDesign:
    """Order-of-addition expansion of the Aggarwal design, 24 runs."""
    return _proportion_design(_AGGARWAL_OOFA, with_pwo=True)


@functools.lru_cache
def _orderings(support: tuple[bool, ...]) -> np.ndarray:
    """enumerate_orderings of a run with this support pattern, as a
    read-only (s!, pairs) int8 table."""
    table = np.array(enumerate_orderings([float(on) for on in support]),
                     dtype=np.int8)
    table.flags.writeable = False
    return table


def oofa_expand(base: BlockedDesign) -> BlockedDesign:
    """Replace each run of an unordered design by one run per addition order.

    Runs stay in their blocks; base run order is kept, and each run's
    orderings appear in enumerate_orderings order. A run with s positive
    components contributes s! runs.
    """
    ordered = np.flatnonzero(base.pwo.any(axis=1))
    if ordered.size:
        idx = int(ordered[0])
        raise AlreadyExpanded(f"run {idx + 1} already carries an ordering "
                              f"{tuple(base.pwo[idx].tolist())}")
    # one ordering table per distinct support pattern, stacked after an
    # empty one (so that a design without runs stacks too); run i takes the
    # rows of its pattern's table
    patterns, which = np.unique(base.values > 0, axis=0, return_inverse=True)
    which = which.reshape(-1)
    tables = [np.empty((0, base.pwo.shape[1]), dtype=np.int8)]
    tables += [_orderings(tuple(p)) for p in patterns.tolist()]
    sizes = np.array([len(t) for t in tables[1:]], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    per_run = sizes[which]
    rep = np.repeat(np.arange(base.n), per_run)
    within = np.arange(per_run.sum()) - np.repeat(np.cumsum(per_run) - per_run,
                                                  per_run)
    pwo = np.concatenate(tables)[np.repeat(starts[which], per_run) + within]
    return BlockedDesign.from_arrays(
        base.m, base.kind, base.values[rep], pwo, base.block[rep],
        base.amount[rep], n_blocks=base.n_blocks, as_printed=base.as_printed)


def component_amount_projection_design(a_max: float) -> BlockedDesign:
    """Order-of-addition component-amount design, 36 runs in two blocks.

    A three-component projection of a simplex lattice with total amount
    varying over four levels {0.24, 0.75, 0.76, 1.0} x a_max. Component
    amounts are the unit-scale lattice values times a_max; each run's total
    is the row sum.
    """
    if not a_max > 0:
        raise InvalidAmount(f"a_max must be positive, got {a_max}")
    rows = np.array(_CA_PROJECTION_UNIT, dtype=float)
    values = rows[:, :3] * a_max
    # row totals, added left to right
    amount = values[:, 0] + values[:, 1] + values[:, 2]
    return BlockedDesign.from_arrays(3, "amount", values, rows[:, 3:6],
                                     rows[:, -1], amount, n_blocks=2,
                                     as_printed=True)


CATALOG = {
    "czitrom-d": czitrom_d_optimal,
    "aggarwal-a": aggarwal_a_optimal,
    "czitrom-d-oofa": czitrom_d_oofa,
    "aggarwal-a-oofa": aggarwal_a_oofa,
    "ca-projection": component_amount_projection_design,
}
