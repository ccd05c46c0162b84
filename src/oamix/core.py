"""Shared domain types and structural validation for blocked designs.

A design is a sequence of runs in numbered blocks. Each run carries the
component values (proportions or amounts), the pairwise variables z_jk that
encode the order in which components enter the blend, a block label, and,
for amount designs, the total amount A. Pair order is lexicographic by
(j, k) with j < k throughout the library: z12, z13, ..., z23, ...
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import SingularMatrix, SpecError

PROPORTION_SUM_TOL = 1e-9
AMOUNT_SUM_TOL = 1e-9
# printed catalog tables carry 3-decimal rounding (0.333 / 0.334)
AS_PRINTED_SUM_TOL = 5e-3

SCHEFFE_LINEAR = "scheffe_linear"
SCHEFFE_QUADRATIC = "scheffe_quadratic"
K_QUADRATIC = "k_quadratic"
MIXTURE_AMOUNT_LINEAR = "mixture_amount_linear"
MIXTURE_AMOUNT_QUADRATIC = "mixture_amount_quadratic"
COMPONENT_AMOUNT_LINEAR = "component_amount_linear"
COMPONENT_AMOUNT_QUADRATIC = "component_amount_quadratic"

FAMILIES = frozenset({
    SCHEFFE_LINEAR,
    SCHEFFE_QUADRATIC,
    K_QUADRATIC,
    MIXTURE_AMOUNT_LINEAR,
    MIXTURE_AMOUNT_QUADRATIC,
    COMPONENT_AMOUNT_LINEAR,
    COMPONENT_AMOUNT_QUADRATIC,
})

# families defined on proportions (x sums to 1); the rest act on raw amounts
PROPORTION_FAMILIES = frozenset({
    SCHEFFE_LINEAR,
    SCHEFFE_QUADRATIC,
    K_QUADRATIC,
    MIXTURE_AMOUNT_LINEAR,
    MIXTURE_AMOUNT_QUADRATIC,
})
AMOUNT_FAMILIES = frozenset({
    COMPONENT_AMOUNT_LINEAR,
    COMPONENT_AMOUNT_QUADRATIC,
})
# amount models carry a free constant; simplex-constrained bases must not
INTERCEPT_FAMILIES = AMOUNT_FAMILIES


@functools.lru_cache
def pair_indices(m: int) -> tuple[tuple[int, int], ...]:
    """All component pairs (j, k), j < k, in lexicographic order, 1-based."""
    return tuple((j, k) for j in range(1, m) for k in range(j + 1, m + 1))


def n_pairs(m: int) -> int:
    return m * (m - 1) // 2


@dataclass(frozen=True)
class Run:
    """One experimental run.

    values: component proportions or amounts, length m.
    pwo: the m(m-1)/2 pairwise ordering values in {-1, 0, +1}, pair-lex order.
    block: 1-based block label.
    amount: total amount A for amount designs; None for proportion designs
    unless the design carries amount levels (mixture-amount use).
    """

    values: tuple[float, ...]
    pwo: tuple[int, ...]
    block: int = 1
    amount: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "pwo", tuple(int(z) for z in self.pwo))

    @property
    def support(self) -> tuple[int, ...]:
        """1-based indices of the strictly positive components."""
        return tuple(i + 1 for i, v in enumerate(self.values) if v > 0)


@dataclass(frozen=True)
class BlockedDesign:
    """An ordered sequence of runs partitioned into numbered blocks."""

    m: int
    kind: str  # "proportion" | "amount"
    runs: tuple[Run, ...]
    n_blocks: int
    as_printed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))

    @property
    def n(self) -> int:
        return len(self.runs)

    def amount_levels(self) -> tuple[float, ...]:
        """Distinct total-amount levels present, ascending."""
        levels = sorted({round(r.amount, 12) for r in self.runs
                         if r.amount is not None})
        return tuple(levels)


@dataclass(frozen=True)
class Permutation:
    """An addition order over a support set: each element appears once."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(i) for i in self.order))

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)


@dataclass(frozen=True)
class ModelSpec:
    """Which model family and which optional column groups to build."""

    family: str
    include_pwo: bool = False
    interaction_terms: tuple[tuple[int, tuple[int, int]], ...] = ()
    include_block: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown model family: {self.family!r}")
        terms = tuple((int(i), (int(k), int(l)))
                      for i, (k, l) in self.interaction_terms)
        object.__setattr__(self, "interaction_terms", terms)
        if terms and not self.include_pwo:
            raise SpecError("interaction terms require include_pwo=True")
        for i, (k, l) in terms:
            if not (1 <= k < l):
                raise SpecError(f"interaction pair ({k},{l}) must have k < l")
            if i not in (k, l):
                raise SpecError(
                    f"interaction component {i} must belong to its pair ({k},{l})")

    @property
    def include_intercept(self) -> bool:
        """The component-amount families carry an intercept; the simplex
        families never do, since their linear terms span the constant."""
        return self.family in INTERCEPT_FAMILIES


@dataclass(frozen=True)
class ModelMatrix:
    """A dense model matrix with named columns.

    basis records how component entries were formed: "raw" uses the run
    values as stored; "coded" maps each component affinely onto [-1, 1]
    before any polynomial or interaction term is formed.

    factor is the one factorization of data, made on first use and shared
    by every analysis of this matrix; data is a private read-only copy, so
    it cannot go stale.
    """

    columns: tuple[str, ...]
    data: np.ndarray
    basis: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise SpecError("model matrix shape does not match column names")
        if len(set(self.columns)) != len(self.columns):
            raise SpecError("duplicate column names in model matrix")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    @functools.cached_property
    def factor(self) -> linalg.Factor:
        """linalg.factor of data. A singular matrix is not cached: every
        access raises SingularMatrix again, naming the dependent columns."""
        try:
            return linalg.factor(self.data)
        except SingularMatrix as e:
            names = tuple(self.columns[i] for i in e.offending
                          if i < len(self.columns))
            raise SingularMatrix(e.args[0], offending=e.offending,
                                 names=names) from None


class Violation(NamedTuple):
    """One failed structural rule; run_index is None for design-level rules."""

    run_index: Optional[int]
    rule: str
    message: str


def validate_design(design: BlockedDesign) -> list[Violation]:
    """Check every structural invariant; an empty list means valid.

    Violations are data, not exceptions: the report lists each broken rule
    with the offending run index (0-based) and a stable rule name.
    """
    out: list[Violation] = []
    m = design.m
    npairs = n_pairs(m)
    pairs = pair_indices(m)
    sum_tol = AS_PRINTED_SUM_TOL if design.as_printed else PROPORTION_SUM_TOL

    if m < 2:
        out.append(Violation(None, "component_count",
                             f"m must be >= 2, got {m}"))
    if design.kind not in ("proportion", "amount"):
        out.append(Violation(None, "kind",
                             f"unknown design kind {design.kind!r}"))
    if not design.runs:
        out.append(Violation(None, "empty_design", "design has no runs"))

    for idx, run in enumerate(design.runs):
        if len(run.values) != m:
            out.append(Violation(idx, "values_length",
                                 f"expected {m} values, got {len(run.values)}"))
            continue  # downstream rules index into values
        for i, v in enumerate(run.values, start=1):
            if not math.isfinite(v):
                out.append(Violation(idx, "non_finite_value",
                                     f"component {i} is {v}"))
            elif v < 0:
                out.append(Violation(idx, "negative_value",
                                     f"component {i} is negative ({v})"))
        if run.amount is not None and not math.isfinite(run.amount):
            out.append(Violation(idx, "non_finite_value",
                                 f"amount is {run.amount}"))
        if len(run.pwo) != npairs:
            out.append(Violation(idx, "pwo_length",
                                 f"expected {npairs} pwo entries, "
                                 f"got {len(run.pwo)}"))
        else:
            for (j, k), z in zip(pairs, run.pwo):
                if z not in (-1, 0, 1):
                    out.append(Violation(idx, "pwo_entry_range",
                                         f"z{j}{k} = {z} not in {{-1,0,+1}}"))
                elif z != 0 and (run.values[j - 1] == 0 or run.values[k - 1] == 0):
                    out.append(Violation(
                        idx, "pwo_nonzero_for_zero_component",
                        f"z{j}{k} = {z:+d} but component {j if run.values[j-1] == 0 else k} is 0"))
        if design.kind == "proportion":
            s = sum(run.values)
            if abs(s - 1.0) > sum_tol:
                out.append(Violation(idx, "proportion_sum",
                                     f"values sum to {s}, expected 1"))
        elif design.kind == "amount":
            if run.amount is None:
                out.append(Violation(idx, "amount_mismatch",
                                     "amount kind requires a total amount"))
            else:
                s = sum(run.values)
                if abs(run.amount - s) > AMOUNT_SUM_TOL:
                    out.append(Violation(
                        idx, "amount_mismatch",
                        f"amount {run.amount} != value sum {s}"))
                if run.amount < 0:
                    out.append(Violation(idx, "negative_amount",
                                         f"amount {run.amount} < 0"))
        if not (1 <= run.block <= design.n_blocks):
            out.append(Violation(idx, "block_label_range",
                                 f"block {run.block} outside 1..{design.n_blocks}"))

    seen_blocks = {r.block for r in design.runs}
    for b in range(1, design.n_blocks + 1):
        if b not in seen_blocks:
            out.append(Violation(None, "empty_block", f"block {b} has no runs"))

    return out
