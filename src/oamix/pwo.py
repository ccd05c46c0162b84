"""Conversions between addition orders and pairwise-ordering (PWO) vectors.

For a pair (j, k) with j < k the PWO value z_jk is +1 when j enters the
blend before k, -1 when k enters first, and 0 when either component is
absent from the blend (value 0). A run's ordering therefore only ranges
over its support, the set of strictly positive components.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .core import pair_indices
from .errors import (EmptySupport, InconsistentPWO, InvalidPermutation,
                     SupportMismatch)


def _positions(perm: Sequence[int]) -> dict[int, int]:
    order = tuple(perm)
    pos = {e: i for i, e in enumerate(order)}
    if len(pos) != len(order):
        raise InvalidPermutation(f"duplicate elements in {order}")
    return pos


def pwo_from_permutation(perm: Sequence[int], m: int) -> tuple[int, ...]:
    """PWO vector of a full addition order on all m components; no zeros."""
    pos = _positions(perm)
    if set(pos) != set(range(1, m + 1)):
        raise InvalidPermutation(
            f"expected a permutation of 1..{m}, got {tuple(perm)}")
    return tuple(1 if pos[j] < pos[k] else -1 for j, k in pair_indices(m))


def pwo_from_run(values: Sequence[float],
                 perm: Sequence[int]) -> tuple[int, ...]:
    """PWO vector of an ordering over a run's support.

    Pairs touching an absent component get 0; support pairs get +/-1 by
    precedence in perm. perm must cover exactly the positive components.
    """
    m = len(values)
    support = {i for i in range(1, m + 1) if values[i - 1] > 0}
    pos = _positions(perm)
    if set(pos) != support:
        raise SupportMismatch(
            f"ordering {tuple(perm)} does not match support {sorted(support)}")
    out = []
    for j, k in pair_indices(m):
        if j not in support or k not in support:
            out.append(0)
        else:
            out.append(1 if pos[j] < pos[k] else -1)
    return tuple(out)


def permutation_from_pwo(pwo: Sequence[int], support: Iterable[int],
                         m: int | None = None) -> tuple[int, ...]:
    """Recover the unique addition order encoded by a PWO vector.

    Uses counting sort on precedence out-degrees: a transitive pattern on s
    elements has out-degrees exactly {s-1, ..., 1, 0}; anything else is
    cyclic. m defaults to the pair count implied by len(pwo).
    """
    support_set = set(int(i) for i in support)
    if m is None:
        # len(pwo) = m(m-1)/2
        m = 1
        while m * (m - 1) // 2 < len(pwo):
            m += 1
    pairs = pair_indices(m)
    if len(pwo) != len(pairs):
        raise SupportMismatch(
            f"pwo length {len(pwo)} does not match m={m}")

    wins = {i: 0 for i in support_set}
    for (j, k), z in zip(pairs, pwo):
        in_support = j in support_set and k in support_set
        if in_support:
            if z == 0:
                raise SupportMismatch(
                    f"z{j}{k} = 0 but both components are in the support")
            if z > 0:
                wins[j] += 1
            else:
                wins[k] += 1
        elif z != 0:
            raise SupportMismatch(
                f"z{j}{k} = {z:+d} but the pair touches an absent component")

    s = len(support_set)
    by_wins = sorted(support_set, key=lambda i: (-wins[i], i))
    if sorted(wins.values(), reverse=True) != list(range(s - 1, -1, -1)):
        raise InconsistentPWO(
            f"precedence out-degrees {wins} do not form a total order")
    return tuple(by_wins)


def enumerate_orderings(values: Sequence[float]) -> tuple[tuple[int, ...], ...]:
    """All |support|! PWO vectors a run's components can realize.

    Listed smaller component first: the support is relabelled 1..s by
    increasing value (ties by index), and the orderings come in descending
    lexicographic order of their PWO vectors over those labels. So
    (0.832, 0, 0.168) lists 3-before-1 first, (0, -1, 0) then (0, 1, 0), and
    a full 3-component support whose values increase with index lists
    (1,1,1), (1,1,-1), (1,-1,-1), (-1,1,1), (-1,-1,1), (-1,-1,-1).
    """
    support = [i for i in range(1, len(values) + 1) if values[i - 1] > 0]
    if not support:
        raise EmptySupport("all component values are zero")
    by_value = sorted(support, key=lambda i: (values[i - 1], i))
    s = len(by_value)
    ranked = sorted(itertools.permutations(range(1, s + 1)),
                    key=lambda p: pwo_from_permutation(p, s), reverse=True)
    return tuple(pwo_from_run(values, [by_value[r - 1] for r in p])
                 for p in ranked)
