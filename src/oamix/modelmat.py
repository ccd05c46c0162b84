"""Model-matrix construction for all supported families.

Canonical column order: intercept, linear terms, pure quadratic terms,
cross products, amount-multiplied copies of the mixture terms grouped by
power of A, pairwise-ordering columns z_jk, component-by-ordering
interaction columns in ModelSpec.interaction_terms order, and finally the block
column coded -1 (block 1) / +1 (block 2). One column cannot separate more
than two blocks, so requesting it for such a design raises Unsupported.

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

import numpy as np

from .core import (AMOUNT_FAMILIES, BlockedDesign, COMPONENT_AMOUNT_LINEAR,
                   COMPONENT_AMOUNT_QUADRATIC, K_QUADRATIC,
                   MIXTURE_AMOUNT_LINEAR, MIXTURE_AMOUNT_QUADRATIC,
                   ModelMatrix, ModelSpec, PROPORTION_FAMILIES, Run,
                   SCHEFFE_LINEAR, SCHEFFE_QUADRATIC, pair_indices)
from .errors import KindMismatch, SpecError, Unsupported

_EQUAL_TOL = 1e-9


def default_interaction_subset(m: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """The identifiable three-term interaction set for m = 3.

    With all six component-by-pair interactions the matrix is rank
    deficient on the shipped designs; this subset is the standard choice.
    """
    if m != 3:
        raise Unsupported(
            f"no default interaction subset for m={m}; supply one explicitly")
    return ((1, (1, 2)), (1, (1, 3)), (2, (2, 3)))


def full_interaction_set(m: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """Every component-by-pair interaction with i in the pair.

    Rank deficient on the shipped designs; provided for collinearity study.
    """
    out = []
    for j, k in pair_indices(m):
        out.append((j, (j, k)))
        out.append((k, (j, k)))
    return tuple(out)


def _prefix(family: str) -> str:
    return "a" if family in AMOUNT_FAMILIES else "x"


def column_names(spec: ModelSpec, m: int) -> tuple[str, ...]:
    """Canonical column names for a family on m components."""
    if m > 9:
        raise Unsupported("column grammar supports at most 9 components")
    c = _prefix(spec.family)
    pairs = pair_indices(m)
    linear = [f"{c}{i}" for i in range(1, m + 1)]
    squares = [f"{c}{i}^2" for i in range(1, m + 1)]
    crosses = [f"{c}{j}*{c}{k}" for j, k in pairs]

    names: list[str] = []
    if spec.include_intercept:
        names.append("1")
    fam = spec.family
    if fam == SCHEFFE_LINEAR:
        names += linear
    elif fam == SCHEFFE_QUADRATIC:
        names += linear + crosses
    elif fam == K_QUADRATIC:
        names += squares + crosses
    elif fam == MIXTURE_AMOUNT_LINEAR:
        names += linear
        names += [f"{t}*A" for t in linear]
    elif fam == MIXTURE_AMOUNT_QUADRATIC:
        base = linear + crosses
        names += base
        names += [f"{t}*A" for t in base]
        names += [f"{t}*A^2" for t in base]
    elif fam == COMPONENT_AMOUNT_LINEAR:
        names += linear
    elif fam == COMPONENT_AMOUNT_QUADRATIC:
        names += linear + squares + crosses

    if spec.include_pwo:
        names += [f"z{j}{k}" for j, k in pairs]
    for i, (k, l) in spec.interaction_terms:
        if not (1 <= k < l <= m) or not (1 <= i <= m):
            raise SpecError(
                f"interaction ({i},({k},{l})) is outside 1..{m}")
        names.append(f"{c}{i}*z{k}{l}")
    if spec.include_block:
        names.append("blk")
    return tuple(names)


def _check_kind(design: BlockedDesign, spec: ModelSpec) -> None:
    fam = spec.family
    if fam in PROPORTION_FAMILIES and design.kind != "proportion":
        raise KindMismatch(f"family {fam} needs a proportion design")
    if fam in AMOUNT_FAMILIES and design.kind != "amount":
        raise KindMismatch(f"family {fam} needs an amount design")
    if fam in (MIXTURE_AMOUNT_LINEAR, MIXTURE_AMOUNT_QUADRATIC):
        if any(r.amount is None for r in design.runs):
            raise KindMismatch(
                f"family {fam} needs a total amount on every run")


def _coded_components(run: Run, kind: str, scale: float) -> tuple[float, ...]:
    if kind == "proportion":
        return tuple(2.0 * v - 1.0 for v in run.values)
    vals = run.values
    spread = max(vals) - min(vals)
    if spread <= _EQUAL_TOL * max(1.0, abs(run.amount or 0.0)):
        vals = tuple(run.amount for _ in vals)  # equal blend coded at total
    return tuple(2.0 * v / scale - 1.0 for v in vals)


def _row(run: Run, spec: ModelSpec, m: int, kind: str, basis: str,
         scale: float) -> list[float]:
    if basis == "coded":
        v = _coded_components(run, kind, scale)
    else:
        v = run.values
    pairs = pair_indices(m)
    linear = list(v)
    squares = [x * x for x in v]
    crosses = [v[j - 1] * v[k - 1] for j, k in pairs]

    row: list[float] = []
    if spec.include_intercept:
        row.append(1.0)
    fam = spec.family
    if fam == SCHEFFE_LINEAR:
        row += linear
    elif fam == SCHEFFE_QUADRATIC:
        row += linear + crosses
    elif fam == K_QUADRATIC:
        row += squares + crosses
    elif fam == MIXTURE_AMOUNT_LINEAR:
        A = run.amount
        row += linear
        row += [t * A for t in linear]
    elif fam == MIXTURE_AMOUNT_QUADRATIC:
        A = run.amount
        base = linear + crosses
        row += base
        row += [t * A for t in base]
        row += [t * A * A for t in base]
    elif fam == COMPONENT_AMOUNT_LINEAR:
        row += linear
    elif fam == COMPONENT_AMOUNT_QUADRATIC:
        row += linear + squares + crosses

    if spec.include_pwo:
        row += [float(z) for z in run.pwo]
    pair_pos = {pk: idx for idx, pk in enumerate(pairs)}
    for i, (k, l) in spec.interaction_terms:
        row.append(v[i - 1] * run.pwo[pair_pos[(k, l)]])
    if spec.include_block:
        row.append(-1.0 if run.block == 1 else 1.0)
    return row


def _build(design: BlockedDesign, spec: ModelSpec, basis: str) -> ModelMatrix:
    _check_kind(design, spec)
    if spec.include_block and design.n_blocks > 2:
        raise Unsupported(
            f"the block column codes 2 blocks as -1/+1; the design has "
            f"{design.n_blocks} blocks")
    names = column_names(spec, design.m)
    scale = 1.0
    if basis == "coded" and design.kind == "amount":
        scale = max(r.amount for r in design.runs)
    data = np.array([_row(r, spec, design.m, design.kind, basis, scale)
                     for r in design.runs], dtype=float)
    return ModelMatrix(columns=names, data=data, basis=basis)


def build_model_matrix(design: BlockedDesign, spec: ModelSpec) -> ModelMatrix:
    """Model matrix with entries computed from the run fields as stored."""
    return _build(design, spec, "raw")


def coded_model_matrix(design: BlockedDesign, spec: ModelSpec) -> ModelMatrix:
    """Model matrix on the [-1, 1] coded component scale (see module doc)."""
    return _build(design, spec, "coded")


def model_row(spec: ModelSpec, m: int, kind: str, values, pwo, block: int,
              amount: float | None = None) -> np.ndarray:
    """A single raw-basis model row for an arbitrary design-space point."""
    run = Run(tuple(values), tuple(pwo), block, amount)
    return np.array(_row(run, spec, m, kind, "raw", 1.0), dtype=float)
