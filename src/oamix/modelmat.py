"""Model-matrix construction for all supported families.

Canonical column order: intercept, linear terms, pure quadratic terms,
cross products, amount-multiplied copies of the mixture terms grouped by
power of A, pairwise-ordering columns z_jk, component-by-ordering
interaction columns in ModelSpec.interaction_terms order, and finally the block
column coded -1 (block 1) / +1 (block 2). One column cannot separate more
than two blocks, so requesting it for such a design raises Unsupported.

One term table per (spec, m), assembled from the family's record in
core.FAMILIES and cached (ModelSpec is frozen), pairs each column name with
its blocking condition and a builder over the run arrays; column names,
matrices, model_rows and the blocking check all come from it.

Two bases are available. build_model_matrix uses the run values exactly as
stored. coded_model_matrix first maps every component affinely onto [-1, 1]
(the usual two-level coding c = 2 v - 1 of a [0, 1]-scaled value) and forms
all polynomial and interaction terms from the coded values; intercept, z,
and block columns are unchanged. Published per-coefficient tables (standard
errors, collinearity R-squared, power) for designs like these follow the
coded convention, so power_table and term_r_squared consume this basis.
For amount designs the [0, 1] scaling divides by the largest total amount,
and runs whose components are all equal are coded at the run total rather
than the per-component amount (the convention under which the reference
analyses of the shipped component-amount design were produced).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable

import numpy as np

from .core import FAMILIES, BlockedDesign, ModelMatrix, ModelSpec, pair_indices
from .errors import (EmptyDesign, InvalidAmount, KindMismatch, SpecError,
                     Unsupported)

_EQUAL_TOL = 1e-9


def default_interaction_subset(m: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """The standard three-term interaction set for m = 3.

    It is not closed under relabelling the components: on czitrom-d-oofa
    and aggarwal-a-oofa, d_criterion under it moves by up to 4e-4 relative
    with the labels, and under the empty or the full set it does not.
    """
    if m != 3:
        raise Unsupported(
            f"no default interaction subset for m={m}; supply one explicitly")
    return ((1, (1, 2)), (1, (1, 3)), (2, (2, 3)))


def full_interaction_set(m: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """Every component-by-pair interaction with i in the pair; estimable
    on every expanded catalog design, with or without the block column."""
    return tuple((i, (j, k)) for j, k in pair_indices(m) for i in (j, k))


@functools.lru_cache
def _terms(spec: ModelSpec,
           m: int) -> tuple[tuple[str, str | None, Callable], ...]:
    """The term table: one (column name, condition, builder) entry per column.

    condition names the blocking condition the column's block sums test
    (see evaluate.check_orthogonal_blocking); the block column has none. A
    builder maps the arrays V (values, n x m), Z (PWO, n x pairs), B (block
    labels, n) and A (total amounts, n) to one model column.
    """
    if m > 9:
        raise Unsupported("column grammar supports at most 9 components")
    family = FAMILIES[spec.family]
    c = "a" if family.kind == "amount" else "x"
    pairs = pair_indices(m)
    groups = {
        "linear": [(f"{c}{i + 1}", "component_sum",
                    lambda V, Z, B, A, i=i: V[:, i]) for i in range(m)],
        "square": [(f"{c}{i + 1}^2", "square_sum",
                    lambda V, Z, B, A, i=i: V[:, i] * V[:, i])
                   for i in range(m)],
        "cross": [(f"{c}{j}*{c}{k}", "cross_product_sum",
                   lambda V, Z, B, A, j=j - 1, k=k - 1: V[:, j] * V[:, k])
                  for j, k in pairs],
    }
    mixture = [t for g in family.groups for t in groups[g]]
    terms = ([("1", "intercept_sum", lambda V, Z, B, A: np.ones(len(V)))]
             if family.intercept else [])
    terms += mixture
    for power in family.amount_powers:
        times = "*A" if power == 1 else f"*A^{power}"
        # f*A*A, not f*A**2, which differs in the last bit
        terms += [(name + times, "amount_product_sum",
                   lambda V, Z, B, A, f=f, k=power:
                   functools.reduce(operator.mul, [A] * k, f(V, Z, B, A)))
                  for name, _, f in mixture]
    if spec.include_pwo:
        terms += [(f"z{j}{k}", "pwo_sum", lambda V, Z, B, A, q=q: Z[:, q])
                  for q, (j, k) in enumerate(pairs)]
    for i, (k, l) in spec.interaction_terms:
        if l > m:  # ModelSpec checks 1 <= k < l and i in (k, l)
            raise SpecError(f"interaction ({i},({k},{l})) is outside 1..{m}")
        terms.append((f"{c}{i}*z{k}{l}", "interaction_sum",
                      lambda V, Z, B, A, i=i - 1, q=pairs.index((k, l)):
                      V[:, i] * Z[:, q]))
    if spec.include_block:
        terms.append(("blk", None,
                      lambda V, Z, B, A: np.where(B == 1, -1.0, 1.0)))
    return tuple(terms)


def column_names(spec: ModelSpec, m: int) -> tuple[str, ...]:
    """Canonical column names for a family on m components."""
    return tuple(name for name, _, _ in _terms(spec, m))


def _fill(terms, V, Z, B, A) -> np.ndarray:
    """The model columns as the rows of a (p, n) array, each written in one
    contiguous pass."""
    out = np.empty((len(terms), len(V)))
    for j, (_, _, build) in enumerate(terms):
        out[j] = build(V, Z, B, A)
    return out


def model_rows(spec: ModelSpec, m: int, values, pwo, block,
               amount=None) -> np.ndarray:
    """Raw-basis model rows, one per design-space point.

    values is n x m, pwo n x m(m-1)/2, block and amount have length n;
    amount is needed only by the mixture-amount families.
    """
    A = None if amount is None else np.asarray(amount, dtype=float)
    return np.ascontiguousarray(_fill(
        _terms(spec, m), np.asarray(values, dtype=float),
        np.asarray(pwo, dtype=float), np.asarray(block), A).T)


def _check_kind(design: BlockedDesign, spec: ModelSpec) -> None:
    family = FAMILIES[spec.family]
    if design.kind != family.kind:
        article = "an" if family.kind == "amount" else "a"
        raise KindMismatch(
            f"family {spec.family} needs {article} {family.kind} design")
    if family.amount_powers and np.isnan(design.amount).any():
        raise KindMismatch(
            f"family {spec.family} needs a total amount on every run")


def _coded(V: np.ndarray, A: np.ndarray, kind: str) -> np.ndarray:
    if kind == "proportion":
        return 2.0 * V - 1.0
    equal = V.max(axis=1) - V.min(axis=1) <= _EQUAL_TOL * np.abs(A)
    V = np.where(equal[:, None], A[:, None], V)  # equal blend coded at total
    if not A.max() > 0:
        raise InvalidAmount(f"coding divides by the largest total, {A.max()}")
    return 2.0 * V / A.max() - 1.0


def _columns(design: BlockedDesign, spec: ModelSpec, basis: str,
             runs=slice(None)) -> np.ndarray:
    """The model columns of design, on the runs an index or mask selects,
    as the rows of a (p, n) array."""
    _check_kind(design, spec)
    if not design.n:
        raise EmptyDesign("design has no runs")
    if spec.include_block and design.n_blocks > 2:
        raise Unsupported(
            f"the block column codes 2 blocks as -1/+1; the design has "
            f"{design.n_blocks} blocks")
    terms = _terms(spec, design.m)
    V, A = design.values, design.amount
    if basis == "coded":
        V = _coded(V, A, design.kind)
    return _fill(terms, V[runs], design.pwo[runs].astype(float),
                 design.block[runs], A[runs])


def _build(design: BlockedDesign, spec: ModelSpec, basis: str) -> ModelMatrix:
    cols = _columns(design, spec, basis)
    # ModelMatrix's private copy of the transposed view is C-contiguous
    return ModelMatrix(columns=column_names(spec, design.m), data=cols.T,
                       basis=basis)


def build_model_matrix(design: BlockedDesign, spec: ModelSpec) -> ModelMatrix:
    """Model matrix with entries computed from the run fields as stored."""
    return _build(design, spec, "raw")


def coded_model_matrix(design: BlockedDesign, spec: ModelSpec) -> ModelMatrix:
    """Model matrix on the [-1, 1] coded component scale (see module doc)."""
    return _build(design, spec, "coded")
