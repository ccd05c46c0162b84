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

from .core import _incidence, pair_indices
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
    """PWO vector of a full addition order on all m components; no zeros."""
    order = tuple(perm)
    if sorted(order) != list(range(1, m + 1)):
        raise InvalidPermutation(
            f"expected a permutation of 1..{m}, got {order}")
    step = np.argsort(order)[None]
    return tuple(_rows(step, np.ones_like(step, dtype=bool))[0].tolist())


def permutation_from_pwo(pwo: Sequence[int], support: Iterable[int],
                         m: int | None = None) -> tuple[int, ...]:
    """Recover the unique addition order encoded by a PWO vector.

    Ranks the support by precedence out-degree. Refuses an entry outside
    {-1, 0, +1} and a cyclic pattern, whose out-degrees are not distinct
    (InconsistentPWO), and a support member outside 1..m, a zero support
    pair or a nonzero pair off the support (SupportMismatch). m defaults to
    the pair count implied by len(pwo).
    """
    z = np.array(pwo).reshape(-1)
    if m is None:
        m = round((1 + (1 + 8 * len(z)) ** 0.5) / 2)
    pairs = pair_indices(m)
    if len(z) != len(pairs):
        raise SupportMismatch(f"pwo length {len(z)} does not match m={m}")
    members = sorted({int(i) for i in support})
    if members and not 1 <= members[0] <= members[-1] <= m:
        raise SupportMismatch(f"support {members} is not within 1..{m}")
    on = np.zeros(m, dtype=bool)
    on[np.array(members, dtype=np.intp) - 1] = True
    J, K, first, second = _incidence(m)
    pair_on = on[J] & on[K]
    unit = (z == -1) | (z == 0) | (z == 1)
    for q in np.flatnonzero(~unit | (pair_on == (z == 0))):
        (j, k), zq = pairs[q], z[q].item()
        if not unit[q]:
            raise InconsistentPWO(f"z{j}{k} = {zq} is not in {{-1,0,+1}}")
        raise SupportMismatch(
            f"z{j}{k} = 0 but both components are in the support" if zq == 0
            else f"z{j}{k} = {zq:+g} but the pair touches an absent component")
    # every support pair is ordered: the pattern is a total order exactly
    # when the out-degrees are distinct (then s-1, ..., 0), and it is the
    # support sorted by them
    wins = (z > 0) @ first + (z < 0) @ second
    degrees = {i: int(wins[i - 1]) for i in members}
    if len(set(degrees.values())) < len(degrees):
        raise InconsistentPWO(
            f"precedence out-degrees {degrees} do not form a total order")
    return tuple(sorted(members, key=degrees.__getitem__, reverse=True))


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
