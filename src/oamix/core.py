"""Shared domain types and structural validation for blocked designs.

A design is a sequence of runs in numbered blocks. Each run carries the
component values (proportions or amounts), the pairwise variables z_jk that
encode the order in which components enter the blend, a block label, and,
for amount designs, the total amount A; BlockedDesign stores each of
these as one array over the runs. Pair order is lexicographic by (j, k)
with j < k throughout the library: z12, z13, ..., z23, ...
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import InvalidDesign, SpecError

PROPORTION_SUM_TOL = 1e-9
AMOUNT_SUM_TOL = 1e-9
# printed catalog tables carry 3-decimal rounding (0.333 / 0.334)
AS_PRINTED_SUM_TOL = 5e-3
# relative to the total: a printed total and its printed values keep 6
# significant digits, twice the worst case of the two roundings
AS_PRINTED_AMOUNT_TOL = 2e-5

SCHEFFE_LINEAR = "scheffe_linear"
SCHEFFE_QUADRATIC = "scheffe_quadratic"
K_QUADRATIC = "k_quadratic"
MIXTURE_AMOUNT_LINEAR = "mixture_amount_linear"
MIXTURE_AMOUNT_QUADRATIC = "mixture_amount_quadratic"
COMPONENT_AMOUNT_LINEAR = "component_amount_linear"
COMPONENT_AMOUNT_QUADRATIC = "component_amount_quadratic"


class Family(NamedTuple):
    """A model family: the design kind it needs, whether it carries an
    intercept, its mixture term groups in column order, and the powers of
    the total amount A that multiply copies of those groups."""

    kind: str
    intercept: bool
    groups: tuple[str, ...]
    amount_powers: tuple[int, ...] = ()


FAMILIES = {
    SCHEFFE_LINEAR: Family("proportion", False, ("linear",)),
    SCHEFFE_QUADRATIC: Family("proportion", False, ("linear", "cross")),
    K_QUADRATIC: Family("proportion", False, ("square", "cross")),
    MIXTURE_AMOUNT_LINEAR: Family("proportion", False, ("linear",), (1,)),
    MIXTURE_AMOUNT_QUADRATIC: Family("proportion", False, ("linear", "cross"),
                                     (1, 2)),
    COMPONENT_AMOUNT_LINEAR: Family("amount", True, ("linear",)),
    COMPONENT_AMOUNT_QUADRATIC: Family("amount", True,
                                       ("linear", "square", "cross")),
}


@functools.lru_cache
def pair_indices(m: int) -> tuple[tuple[int, int], ...]:
    """All component pairs (j, k), j < k, in lexicographic order, 1-based."""
    return tuple((j, k) for j in range(1, m) for k in range(j + 1, m + 1))


@dataclass(frozen=True)
class Run:
    """One experimental run.

    values: component proportions or amounts, length m.
    pwo: the m(m-1)/2 pairwise ordering values in {-1, 0, +1}, pair-lex order.
    block: 1-based block label. Neither pwo nor block is truncated.
    amount: total amount A for amount designs; None for proportion designs
    unless the design carries amount levels (mixture-amount use).
    """

    values: tuple[float, ...]
    pwo: tuple[int, ...]
    block: int = 1
    amount: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        object.__setattr__(self, "pwo", tuple(self.pwo))


@dataclass(frozen=True, init=False, eq=False)
class BlockedDesign:
    """An ordered sequence of runs partitioned into numbered blocks.

    The runs are held as read-only columns: values (n x m float), pwo
    (n x pairs int8), block (n int) and amount (n float, NaN where a run has
    no total amount). BlockedDesign(m, kind, runs, n_blocks) takes Run
    objects and refuses with InvalidDesign what the columns cannot hold: a
    run of the wrong length, a NaN amount (NaN is "no amount"), a pwo entry
    or block label its integer column would change (validate_columns' rule
    and message). runs is a view of the columns as Run objects.
    """

    m: int
    kind: str  # "proportion" | "amount"
    values: np.ndarray
    pwo: np.ndarray
    block: np.ndarray
    amount: np.ndarray
    n_blocks: int
    as_printed: bool = False

    def __init__(self, m: int, kind: str, runs, n_blocks: int,
                 as_printed: bool = False):
        runs = tuple(runs)
        npairs = len(pair_indices(m))
        bad = []
        for idx, r in enumerate(runs):
            if len(r.values) != m:
                bad.append(Violation(idx, "values_length",
                                     f"expected {m} values, got {len(r.values)}"))
                continue
            if r.amount is not None and math.isnan(r.amount):
                bad.append(Violation(idx, "non_finite_value",
                                     f"amount is {r.amount}"))
            if len(r.pwo) != npairs:
                bad.append(Violation(idx, "pwo_length",
                                     f"expected {npairs} pwo entries, "
                                     f"got {len(r.pwo)}"))
        if bad:
            raise InvalidDesign(bad)
        self._store(m, kind, n_blocks, as_printed,
                    [r.values for r in runs], [r.pwo for r in runs],
                    [r.block for r in runs],
                    [math.nan if r.amount is None else r.amount for r in runs])

    @classmethod
    def from_arrays(cls, m: int, kind: str, values, pwo, block, amount,
                    n_blocks: int, as_printed: bool = False) -> "BlockedDesign":
        """A design from its columns; amount None means no run has one."""
        design = object.__new__(cls)
        n = len(block)
        if amount is None:
            amount = np.full(n, math.nan)
        design._store(m, kind, n_blocks, as_printed, values, pwo, block, amount)
        return design

    def _store(self, m, kind, n_blocks, as_printed, values, pwo, block,
               amount) -> None:
        n = len(block)
        shapes = {"values": (n, m), "pwo": (n, len(pair_indices(m))),
                  "block": (n,), "amount": (n,)}
        columns = {"values": np.array(values, dtype=float),
                   "pwo": np.asarray(pwo),
                   "block": np.asarray(block),
                   "amount": np.array(amount, dtype=float)}
        # a column of another run count or width is refused, never reshaped
        wrong = [Violation(None, "column_shape", f"{name} has shape "
                           f"{a.shape}, expected {shapes[name]}")
                 for name, a in columns.items() if a.shape[:1] != (n,)
                 or a.size != math.prod(shapes[name])]
        if wrong:
            raise InvalidDesign(wrong)
        columns = {name: a.reshape(shapes[name])
                   for name, a in columns.items()}
        with np.errstate(invalid="ignore"):
            cast = {"pwo": columns["pwo"].astype(np.int8),
                    "block": columns["block"].astype(np.int64)}
        # an entry its cast changes is out of range: the validator names it
        if any((a != columns[name]).any() for name, a in cast.items()):
            raise InvalidDesign([
                v for v in validate_columns(m, kind, n_blocks, as_printed,
                                            **columns)
                if v.rule in ("pwo_entry_range", "block_label_range")])
        columns.update(cast)
        for a in columns.values():
            a.flags.writeable = False
        fields = dict(columns, m=m, kind=kind, n_blocks=n_blocks,
                      as_printed=as_printed)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.block)

    @functools.cached_property
    def runs(self) -> tuple[Run, ...]:
        """The runs as Run objects, built from the columns on first access
        and kept, so that indexing runs in a loop stays cheap."""
        amounts = [None if math.isnan(a) else a for a in self.amount.tolist()]
        return tuple(itertools.starmap(Run, zip(
            self.values.tolist(), self.pwo.tolist(), self.block.tolist(),
            amounts)))

    def amount_levels(self) -> tuple[float, ...]:
        """Distinct total amounts to 12 significant digits, ascending."""
        given = self.amount[~np.isnan(self.amount)].tolist()
        return tuple(sorted({float(f"{a:.12g}") for a in given}))


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
        if self.interaction_terms and not self.include_pwo:
            raise SpecError("interaction terms require include_pwo=True")
        terms = []
        for term in self.interaction_terms:
            try:  # numpy integers become int: the term table is cached by spec
                i, k, l = map(operator.index, (term[0], *term[1]))
            except TypeError:
                raise SpecError(f"interaction term {term} has an index that "
                                "is not an integer") from None
            if not (1 <= k < l):
                raise SpecError(f"interaction pair ({k},{l}) must have k < l")
            if i not in (k, l):
                raise SpecError(
                    f"interaction component {i} must belong to its pair ({k},{l})")
            terms.append((i, (k, l)))
        object.__setattr__(self, "interaction_terms", tuple(terms))

    @property
    def include_intercept(self) -> bool:
        """The component-amount families carry an intercept; the simplex
        families never do, since their linear terms span the constant."""
        return FAMILIES[self.family].intercept


@dataclass(frozen=True, eq=False)
class ModelMatrix:
    """A dense model matrix with named columns.

    basis records how component entries were formed: "raw" uses the run
    values as stored; "coded" maps each component affinely onto [-1, 1]
    before any polynomial or interaction term is formed.

    factor is the one factorization of data, made on first use and shared
    by every analysis of this matrix, and so are the prediction variances
    of its own rows; data is a private read-only copy, so neither can go
    stale; its factor holds no raw-unit (X'X)^-1 (see linalg). Only a
    success is kept: a singular matrix is refused by linalg.factor on every
    access. A matrix equals only itself and hashes by identity, as a
    BlockedDesign does.
    """

    columns: tuple[str, ...]
    data: np.ndarray
    basis: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise SpecError("model matrix shape does not match column names")
        if not self.columns:
            raise SpecError("model matrix has no columns")
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
        """linalg.factor of data, kept once made. A singular matrix keeps
        nothing: every access factors it again and raises SingularMatrix
        naming its dependent columns."""
        return linalg.factor(self.data, self.columns)

    @functools.cached_property
    def _own_variances(self) -> np.ndarray:
        """v'(X'X)^-1 v for each row v of data, read-only; made once for
        criteria_report and for predict at the fitted matrix itself."""
        f = self.factor
        pv = linalg._point_variances(f, f.Xs)
        pv.flags.writeable = False
        return pv


class Violation(NamedTuple):
    """One failed structural rule; run_index is None for design-level rules."""

    run_index: Optional[int]
    rule: str
    message: str


@functools.lru_cache
def _incidence(m: int):
    """0-based pair members J, K and their pairs x m one-hot matrices."""
    J, K = (np.array([p[i] - 1 for p in pair_indices(m)], dtype=np.intp)
            for i in (0, 1))
    eye = np.eye(m)
    return J, K, eye[J], eye[K]


def validate_design(design: BlockedDesign) -> list[Violation]:
    """Check every structural invariant; an empty list means valid.

    Violations are data, not exceptions: the report lists each broken rule
    with the offending run index (0-based) and a stable rule name, ordered
    by run and, within a run, by component, amount, pair, sum and block.
    """
    return validate_columns(design.m, design.kind, design.n_blocks,
                            design.as_printed, design.values, design.pwo,
                            design.block, design.amount)


def _support_pair_rules(add, Z, absent, on, ordered, bad, first, second):
    """pwo_partial and pwo_cyclic for the runs with no out-of-range entry:
    a run's support pairs (on) are all 0 or all ordered, and then the
    precedence out-degrees of its support components are {s-1, ..., 0}."""
    judged = ~bad.any(axis=1)
    n_on = on.sum(axis=1)
    n_ordered = (ordered & on).sum(axis=1)
    add(3, "pwo_partial", judged & (n_ordered > 0) & (n_ordered < n_on),
        lambda r, _: f"{n_on[r] - n_ordered[r]} of the {n_on[r]} support "
                     "pairs are 0; a run is ordered on all of them or on none")
    # float operands put the products in BLAS; counts below m are exact
    wins = (((Z > 0) & on) @ first + ((Z < 0) & on) @ second).astype(np.int64)
    # s out-degrees in 0..s-1 summing to s(s-1)/2 are {s-1, ..., 0} iff
    # they are distinct; absent components get distinct negative fillers
    m = absent.shape[1]
    degrees = np.sort(np.where(absent, -1 - np.arange(m), wins), axis=1)

    def message(r, _):
        support = np.flatnonzero(~absent[r])
        degs = dict(zip((support + 1).tolist(), wins[r, support].tolist()))
        return f"precedence out-degrees {degs} do not form a total order"

    add(3, "pwo_cyclic", judged & (n_ordered == n_on) & (n_on > 0)
        & (np.diff(degrees, axis=1) == 0).any(axis=1), message)


def validate_columns(m: int, kind: str, n_blocks: int, as_printed: bool,
                     values, pwo, block, amount,
                     has_amount=None) -> list[Violation]:
    """validate_design on bare columns, in one pass over the arrays.

    pwo and block may be any numeric type: a fraction, NaN or inf is out of
    range in either, and is printed as given. has_amount, a bool, says
    whether the runs were given amounts (a design file's `A` column gives
    every run one), so that a given NaN is non-finite, not absent; by
    default a run has one when it is not NaN. A run's support
    pairs are those whose components are both positive (a zero, negative
    or NaN component is absent, as in oamix.pwo); they must be all 0
    (unordered) or all +/-1 with precedence out-degrees {s-1, ..., 0}.
    """
    V = np.asarray(values, dtype=float)
    Z, B = np.asarray(pwo), np.asarray(block)
    A = np.asarray(amount, dtype=float)
    n = len(B)
    has = ~np.isnan(A) if has_amount is None else np.full(n, has_amount)
    head, found = [], []
    if m < 2:
        head.append(Violation(None, "component_count",
                              f"m must be >= 2, got {m}"))
    if kind not in ("proportion", "amount"):
        head.append(Violation(None, "kind", f"unknown design kind {kind!r}"))
    if not n:
        head.append(Violation(None, "empty_design", "design has no runs"))

    def given(x):  # a pwo or block entry as given, a whole one as an int
        return str(int(x)) if float(x).is_integer() else str(x)

    def add(rank, rule, mask, message):
        """One violation per True entry of mask (n, or n x k), sorted by
        (run, rank, entry); message(r, c) formats entry c of run r."""
        if not mask.any():
            return
        hits = (zip(np.flatnonzero(mask).tolist(), itertools.repeat(0))
                if mask.ndim == 1 else zip(*(a.tolist() for a in np.nonzero(mask))))
        for r, c in hits:
            found.append((r, rank, c, Violation(r, rule, message(r, c))))

    pairs = pair_indices(m)
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(V)
        add(0, "non_finite_value", ~finite,
            lambda r, i: f"component {i + 1} is {float(V[r, i])}")
        add(0, "negative_value", finite & (V < 0),
            lambda r, i: f"component {i + 1} is negative ({float(V[r, i])})")
        add(1, "non_finite_value", has & ~np.isfinite(A),
            lambda r, _: f"amount is {float(A[r])}")
        if pairs:
            J, K, first, second = _incidence(m)
            bad = ~((Z == 0) | (np.abs(Z) == 1))  # fractions, NaN, inf
            add(2, "pwo_entry_range", bad,
                lambda r, q: f"z{pairs[q][0]}{pairs[q][1]} = "
                             f"{given(Z[r, q])} not in {{-1,0,+1}}")
            absent = ~(V > 0)  # the support rule of pwo.py; NaN is absent
            off = absent[:, J] | absent[:, K]
            ordered = (Z != 0) & ~bad

            def absent_message(r, q):
                j, k = pairs[q]
                c = j if absent[r, J[q]] else k
                v = float(V[r, c - 1])
                return (f"z{j}{k} = {int(Z[r, q]):+d} but component {c} is "
                        + ("0" if v == 0 else f"not positive ({v})"))

            add(2, "pwo_nonzero_for_zero_component", ordered & off,
                absent_message)
            on = ~off
            if (ordered & on).any():
                _support_pair_rules(add, Z, absent, on, ordered, bad, first,
                                    second)
        s = np.zeros(n)
        for i in range(V.shape[1]):
            s = s + V[:, i]  # left to right, as the built-in sum adds
        if kind == "proportion":
            tol = AS_PRINTED_SUM_TOL if as_printed else PROPORTION_SUM_TOL
            add(4, "proportion_sum", np.abs(s - 1.0) > tol,
                lambda r, _: f"values sum to {float(s[r])}, expected 1")
        elif kind == "amount":
            add(4, "amount_mismatch", ~has,
                lambda r, _: "amount kind requires a total amount")
            # a non-finite amount is reported once, above
            finite_a = has & np.isfinite(A)
            # relative to the total, so that a verdict holds at any scale
            tol = (AS_PRINTED_AMOUNT_TOL if as_printed
                   else AMOUNT_SUM_TOL) * np.abs(A)
            add(4, "amount_mismatch", finite_a & (np.abs(A - s) > tol),
                lambda r, _: f"amount {float(A[r])} != value sum {float(s[r])}")
            add(5, "negative_amount", finite_a & (A < 0),
                lambda r, _: f"amount {float(A[r])} < 0")
        add(6, "block_label_range", ~((B >= 1) & (B <= n_blocks) & (B % 1 == 0)),
            lambda r, _: f"block {given(B[r])} outside 1..{n_blocks}")

    found.sort(key=lambda t: t[:3])
    seen_blocks = set(B.tolist())
    tail = [Violation(None, "empty_block", f"block {b} has no runs")
            for b in range(1, n_blocks + 1) if b not in seen_blocks]
    return head + [v for *_, v in found] + tail
