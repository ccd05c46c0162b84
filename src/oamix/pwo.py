"""Conversions between addition orders and pairwise-ordering (PWO) vectors.

For a pair (j, k) with j < k the PWO value z_jk is +1 when j enters the
blend before k, -1 when k enters first, and 0 when either component is
absent from the blend. A run's ordering therefore only ranges over its
support, the set of strictly positive components (a zero, negative or NaN
component is absent).

This module is the library's one encoder: every PWO row, of one order or of
a whole expanded design, comes from _rows, which reads a step table (the
addition step of each component) and a support mask. _steps decodes the
i-th addition order, _listing fixes the order in which a support's
orderings are listed, and _expand lists them for every run of a design.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .core import _incidence, _is_integer, pair_indices, validate_columns
from .errors import (EmptySupport, InconsistentPWO, InvalidPermutation,
                     SupportMismatch)


def _rows(step: np.ndarray, on: np.ndarray) -> np.ndarray:
    """PWO rows of an (n, m) step table: z_jk = sign(step_k - step_j) where
    components j and k are both on (an (n, m) bool mask), else 0."""
    J, K = _incidence(step.shape[1])[:2]
    return np.sign(step[:, K] - step[:, J]) * (on[:, J] & on[:, K])


def _steps(index: np.ndarray, s: int) -> np.ndarray:
    """(n, s) int8 step of each component in the index[i]-th tuple of
    itertools.permutations(range(s)). The index's factorial-base digits
    (Lehmer code) are placed from the last position back: digit d goes in
    front, and each component already placed at d or above moves up one."""
    order = np.zeros((len(index), s), dtype=np.int8)
    for j in range(s - 2, -1, -1):
        index, d = np.divmod(index, s - j)
        later = order[:, j + 1:]
        later += later >= d[:, None]
        order[:, j] = d
    return np.argsort(order, axis=1).astype(np.int8)


@functools.lru_cache
def _listing(s: int) -> np.ndarray:
    """Read-only (s!, s) int8 table of the addition step of each rank of an
    s-component support, one row per ordering, in descending lexicographic
    order of the orderings' PWO rows over those ranks."""
    steps = _steps(np.arange(math.factorial(s)), s)
    rows = _rows(steps, np.ones_like(steps, dtype=bool)).tolist()
    listed = sorted(range(len(rows)), key=rows.__getitem__, reverse=True)
    table = steps[listed]
    table.flags.writeable = False
    return table


def _expand(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordering of every run's support, run by run: (rep, pwo), where
    output row i is run rep[i] with PWO row pwo[i]. A run's support is
    ranked by increasing value (ties by index) and its orderings follow
    _listing; a run with s positive components gets s! rows, and a run
    with none is refused (EmptySupport, naming the first such run)."""
    m = values.shape[1]
    on = values > 0
    size = on.sum(axis=1)
    if not size.all():
        raise EmptySupport(
            f"run {size.argmin() + 1}: all component values are zero")
    per_run = np.cumprod([1, *range(1, m + 1)])[size]
    rep = np.repeat(np.arange(len(values)), per_run)
    within = np.arange(len(rep)) - (np.cumsum(per_run) - per_run)[rep]
    # absent components rank below the support, so the last s columns are
    # a run's support ranks 1..s
    by_value = np.argsort(np.where(on, values, -np.inf), axis=1,
                          kind="stable")[rep]
    # int8 keeps the pair differences in _rows cheap
    step = np.zeros((len(rep), m), dtype=np.int8)
    size_out = size[rep]
    for s in sorted(set(size.tolist())):
        rows = np.flatnonzero(size_out == s)
        step[rows[:, None], by_value[rows, m - s:]] = _listing(s)[within[rows]]
    return rep, _rows(step, on[rep])


def pwo_from_permutation(perm: Sequence[int], m: int) -> tuple[int, ...]:
    """PWO vector of a full addition order on all m components; no zeros.
    m and perm hold integers: a bool, float or string is an
    InvalidPermutation, never converted."""
    order = tuple(perm)
    if not _is_integer(m):
        raise InvalidPermutation(f"m must be an integer, got {m!r}")
    if (not all(map(_is_integer, order))
            or sorted(order) != list(range(1, m + 1))):
        raise InvalidPermutation(
            f"expected a permutation of 1..{m}, got {order}")
    step = np.argsort(order)[None]
    return tuple(_rows(step, np.ones_like(step, dtype=bool))[0].tolist())


def permutation_from_pwo(pwo: Sequence[int], support: Iterable[int],
                         m: int | None = None) -> tuple[int, ...]:
    """Recover the unique addition order encoded by a PWO vector.

    Judged as one run on its support by validate_columns: pwo_entry_range
    and pwo_cyclic raise InconsistentPWO, and its other PWO rules, a support
    member outside 1..m and a support with no ordered pair (a valid run, no
    order) SupportMismatch, with the validator's message. The support is
    ranked by precedence out-degree. m defaults to the count len(pwo) implies.
    An m or support member that is not an integer (a bool, 1.5 or "1") is
    a SupportMismatch naming it as given, never converted.
    """
    z = np.array(pwo).reshape(-1)
    if m is None:
        m = round((1 + (1 + 8 * len(z)) ** 0.5) / 2)
    elif not _is_integer(m):
        raise SupportMismatch(f"m must be an integer, got {m!r}")
    if len(z) != len(pair_indices(m)):
        raise SupportMismatch(f"pwo length {len(z)} does not match m={m}")
    given = list(support)
    if not all(map(_is_integer, given)):
        raise SupportMismatch(f"support {given} is not within 1..{m}")
    members = sorted({int(i) for i in given})  # numpy integers become int
    if members and not 1 <= members[0] <= members[-1] <= m:
        raise SupportMismatch(f"support {members} is not within 1..{m}")
    on = np.isin(np.arange(1, m + 1), members)[None]  # the run's values
    for v in validate_columns(m, "proportion", 1, False, on, z[None], [1],
                              [math.nan]):
        if v.rule in ("pwo_entry_range", "pwo_cyclic"):
            raise InconsistentPWO(v.message)
        if v.rule.startswith("pwo_"):  # ordered off the support or on part
            raise SupportMismatch(v.message)
    if len(members) > 1 and not z.any():
        raise SupportMismatch(f"z{members[0]}{members[1]} = 0 but both "
                              "components are in the support")
    # a valid ordered run: its support's out-degrees are s-1, ..., 0
    first, second = _incidence(m)[2:]
    wins = (z > 0) @ first + (z < 0) @ second
    return tuple(sorted(members, key=lambda i: wins[i - 1], reverse=True))


def enumerate_orderings(values: Sequence[float]) -> tuple[tuple[int, ...], ...]:
    """All |support|! PWO vectors a run's components can realize.

    Listed smaller component first: the support is relabelled 1..s by
    increasing value (ties by index), and the orderings come in descending
    lexicographic order of their PWO vectors over those labels. So
    (0.832, 0, 0.168) lists 3-before-1 first, (0, -1, 0) then (0, 1, 0), and
    a full 3-component support whose values increase with index lists
    (1,1,1), (1,1,-1), (1,-1,-1), (-1,1,1), (-1,-1,1), (-1,-1,-1).
    """
    v = np.array(values, dtype=float).reshape(1, -1)
    return tuple(map(tuple, _expand(v)[1].tolist()))
