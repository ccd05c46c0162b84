"""Design-quality mathematics.

Covers orthogonal-blocking verification, the D/A/G optimality summary,
prediction variance, fraction-of-design-space curves, per-coefficient
standard errors and power, and per-term collinearity R-squared. The power
kernel lives in _nct, and linalg and pwo are imported by the functions
that use them, so that check-blocks loads none of the three.

Conventions, also carried in every report's notes field: prediction
variance is the unscaled v'(X'X)^{-1}v in units of sigma^2; G-efficiency is
100*p/(n*max_pv); d_criterion is det(X'X)^(1/p)/n with the raw determinant
reported alongside; power_2sd is the probability that a two-sided t-test at
the given level detects a single coefficient of size effect_sd*sigma.
Externally published D-efficiency scalars or power percentages computed
under other (often unstated, software-specific) conventions will differ;
they are deliberately not matched.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .core import (FAMILIES, BlockedDesign, ModelMatrix, ModelSpec,
                   _is_integer, _Record)
from .errors import InsufficientDF, NothingToCheck, SchemaError, Unsupported
from .modelmat import _columns, _terms, build_model_matrix, model_rows

_MASK64 = (1 << 64) - 1
# FDS samples turned into model rows and variances per batch; bounds the
# memory of the row arrays
_CHUNK = 1024
_LOG_MAX = math.log(np.finfo(float).max)  # exp of more overflows

CONVENTION_NOTES = (
    "prediction variance is unscaled v'(X'X)^-1 v (units of sigma^2); "
    "g_efficiency = 100*p/(n*max_pv) over the evaluated points",
    "d_criterion = det(X'X)^(1/p)/n, det_xtx raw; externally reported "
    "D-efficiency scalars under other normalizations are not comparable "
    "and are not reproduced",
    "power_2sd = two-sided noncentral-t power for one coefficient of size "
    "effect_sd*sigma at level alpha; published power columns based on "
    "other effect-size conventions are not comparable and are not "
    "reproduced",
)


class ConditionCheck(NamedTuple):
    condition: str
    term: str
    block_sums: tuple[float, ...]
    discrepancy: float
    tol: float
    ok: bool


class BlockingReport(NamedTuple):
    passed: bool
    tol: float
    conditions: tuple[ConditionCheck, ...]

    def failed(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.conditions if not c.ok)


# ordering and interaction columns must balance exactly (tol 0), though an
# interaction x_i*z_jk is real-valued; polynomial sums only to printed
# rounding
_EXACT_CONDITIONS = {"pwo_sum", "interaction_sum"}


def check_orthogonal_blocking(design: BlockedDesign, spec: ModelSpec,
                              tol: float = 5e-3) -> BlockingReport:
    """Verify equal per-block sums for every non-block model column.

    Orthogonal blocking holds exactly when each model term sums to the same
    value in every block. Each column's condition comes from its entry in
    the model's term table. Ordering and interaction columns must balance
    exactly (tol 0): the ordering columns are integers, the interactions
    x_i*z_jk are not. Component polynomial sums are compared at tol, an
    absolute bound in the column's own units (amount designs need it
    scaled), and a negative or NaN tol raises Unsupported. Block sums are
    correctly rounded (math.fsum), so the verdict does not depend on the
    order of runs within a block.
    """
    if not tol >= 0:
        raise Unsupported(f"tol must be a number >= 0, got {tol}")
    if design.n_blocks < 2:
        raise NothingToCheck(
            f"blocking needs at least 2 blocks, design has {design.n_blocks}")
    spec = ModelSpec(spec.family, spec.include_pwo, spec.interaction_terms)
    # per block, its own (p, n_b) columns, so that no (p, n) buffer is
    # copied into selections; fsum reads each row in place
    by_block = [_columns(design, spec, "raw", design.block == b)
                for b in range(1, design.n_blocks + 1)]
    records = []
    for j, (term, cond, _) in enumerate(_terms(spec, design.m)):
        sums = tuple(math.fsum(memoryview(rows[j])) for rows in by_block)
        disc = max(sums) - min(sums)
        use_tol = 0.0 if cond in _EXACT_CONDITIONS else tol
        records.append(ConditionCheck(cond, term, sums, disc, use_tol,
                                      disc <= use_tol))
    return BlockingReport(passed=all(r.ok for r in records), tol=tol,
                          conditions=tuple(records))


class ColumnStats(NamedTuple):
    name: str
    se: float
    r_squared: float
    power_2sd: float


class EvalReport(NamedTuple):
    n: int
    p: int
    det_xtx: float
    d_criterion: float
    a_criterion: float
    max_pv: float
    avg_pv: float
    g_efficiency: float
    columns: tuple[ColumnStats, ...]
    notes: tuple[str, ...] = CONVENTION_NOTES


def _column_r2(X: ModelMatrix) -> list[float]:
    # RSS_j/TSS_j is free of units: both on Xs, where RSS_j = 1/|W_j|^2
    T, W = X.factor.Xs, X.factor.W
    if "1" in X.columns:
        # centre every column but the intercept about its mean
        T = T - np.where(np.array(X.columns) == "1", 0.0, T.mean(axis=0))
    tss = np.sum(T * T, axis=0)
    tss[tss <= 1e-300] = math.nan
    return (1.0 - (1.0 / np.sum(W * W, axis=1)) / tss).tolist()


def criteria_report(X: ModelMatrix,
                    eval_points: Optional[np.ndarray] = None) -> EvalReport:
    """Full optimality and per-coefficient summary of a model matrix.

    max_pv and avg_pv are taken over the design's own rows unless an
    explicit point set (rows in the same column basis) is supplied; a point
    set that is not a non-empty (k, p) array of finite values raises
    SchemaError.
    """
    from . import _nct
    from .linalg import _point_variances, det_xtx, log_det_xtx
    f = X.factor
    n, p = X.n, X.p
    if eval_points is None:
        pv = X._own_variances
    else:
        try:
            pts = np.asarray(eval_points, float)
        except (TypeError, ValueError):
            raise SchemaError("eval points are not numbers") from None
        if pts.ndim != 2 or pts.shape[1] != p or not len(pts):
            raise SchemaError(f"eval points have shape {pts.shape}; the "
                              f"model matrix needs one or more rows of {p} "
                              "columns")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise SchemaError(f"eval point row {bad[0] + 1} is not finite")
        pv = _point_variances(f, pts / f.norms)
    max_pv = float(pv.max())
    df = n - p
    power = (_nct.power(f.se, df, 0.05, 2.0) if df > 0
             else np.full(p, math.nan))
    cols = tuple(ColumnStats(name, float(se), r, float(pw)) for name, se, r, pw
                 in zip(X.columns, f.se, _column_r2(X), power))
    log_d = log_det_xtx(f) / p
    with np.errstate(over="ignore"):  # a_criterion reads inf past the range
        return EvalReport(
            n=n, p=p, det_xtx=det_xtx(f),
            d_criterion=math.exp(log_d) / n if log_d < _LOG_MAX else math.inf,
            a_criterion=float(np.sum(f.se * f.se)), max_pv=max_pv,
            avg_pv=float(pv.mean()), g_efficiency=100.0 * p / (n * max_pv),
            columns=cols)


# Names the FDS sample stream; changes whenever a fixed seed's samples do
FDS_SAMPLER = "per-sample-pcg64/1"


class FDSCurve(_Record):
    """Sorted prediction variances, their fractions (i - 0.5)/n and seed.
    Curves are equal, and hash alike, when their variances and seeds are."""

    _fields = ("variances", "seed")
    sampler = FDS_SAMPLER

    def __init__(self, variances: tuple[float, ...], seed: int):
        self.__dict__.update(variances=variances, seed=seed)

    @property
    def n_samples(self) -> int:
        return len(self.variances)

    @functools.cached_property
    def fractions(self) -> tuple[float, ...]:
        n = len(self.variances)
        return tuple((i - 0.5) / n for i in range(1, n + 1))

    def median(self) -> float:
        return float(np.median(self.variances))

    def maximum(self) -> float:
        return self.variances[-1]


def _fds_draws(n: int, m: int, n_levels: Optional[int], seed: int):
    """The FDS sample stream, as arrays: sample s's generator draws m unit
    exponentials, a level index (only with n_levels, else level is None),
    an ordering index and a block index, in that order."""
    E = np.empty((n, m))
    level = None if n_levels is None else np.empty(n, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)
    block = np.empty(n, dtype=int)
    n_orders = math.factorial(m)
    stream = (seed & _MASK64) << 64  # the high half of every sample's seed
    for s in range(n):
        rng = np.random.default_rng(stream | s)
        E[s] = rng.standard_exponential(m)
        if level is not None:
            level[s] = rng.integers(n_levels)
        order[s] = rng.integers(n_orders)
        block[s] = rng.integers(2)
    return E, level, order, block


def fds_curve(design: BlockedDesign, spec: ModelSpec, n_samples: int,
              seed: int = 0) -> FDSCurve:
    """Fraction-of-design-space curve from uniform design-space sampling.

    Each sample draws a uniform simplex direction (normalized unit
    exponentials), a total amount uniform over the design's amount levels
    when the model uses one, an addition order uniform over the full
    support, and a fair +/-1 block; its prediction variance comes from the
    design's information matrix. Sample s draws from its own generator,
    seeded by the 128-bit integer (seed mod 2^64) * 2^64 + s: partitioned or
    partial runs agree with full runs sample for sample, and two seeds never
    share a sample's stream; FDSCurve.sampler names that stream.
    Only the draws run per sample: normalization, amounts, PWO rows (decoded
    from the ordering indices, no m! table) and model rows are array passes.
    Variances are sorted ascending against fractions (i - 0.5)/n_samples.
    An n_samples that is not an integer >= 1, or a seed that is not an
    integer (bool is neither), raises Unsupported.
    """
    if not _is_integer(n_samples) or n_samples < 1:
        raise Unsupported(f"n_samples must be an integer >= 1, "
                          f"got {n_samples!r}")
    if not _is_integer(seed):
        raise Unsupported(f"seed must be an integer, got {seed!r}")
    from .linalg import _point_variances
    from .pwo import _rows, _steps
    f = build_model_matrix(design, spec).factor
    m = design.m
    levels = design.amount_levels()
    use_amount = (design.kind == "amount"
                  or bool(FAMILIES[spec.family].amount_powers))

    values, level, order, block = _fds_draws(
        n_samples, m, len(levels) if use_amount else None, int(seed))
    values /= values.sum(axis=1, keepdims=True)
    amount = np.asarray(levels)[level] if use_amount else None
    if design.kind == "amount":
        values *= amount[:, None]
    block += 1
    pwo = _rows(_steps(order, m), np.ones((1, m), dtype=bool))
    pvs = np.empty(n_samples)
    for lo in range(0, n_samples, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        rows = model_rows(spec, m, values[part], pwo[part], block[part],
                          None if amount is None else amount[part])
        pvs[part] = _point_variances(f, rows / f.norms)

    pvs.sort()
    return FDSCurve(variances=tuple(float(v) for v in pvs), seed=seed)


class PowerRow(NamedTuple):
    se: float
    power: float


def power_table(X: ModelMatrix, alpha: float = 0.05,
                effect_sd: float = 2.0) -> dict[str, PowerRow]:
    """Per-coefficient standard error and detection power.

    se_j = sqrt((X'X)^-1_jj) in units of sigma; power is the two-sided
    noncentral-t probability of detecting a coefficient of effect_sd*sigma
    at the given level with n - p error degrees of freedom. An alpha
    outside (0, 1) or a non-finite effect_sd raises Unsupported.
    """
    if not 0 < alpha < 1:
        raise Unsupported(f"alpha must lie in (0, 1), got {alpha}")
    if not math.isfinite(effect_sd):
        raise Unsupported(f"effect_sd must be finite, got {effect_sd}")
    n, p = X.n, X.p
    if n <= p:
        raise InsufficientDF(f"n={n} <= p={p}: no residual degrees of freedom")
    from . import _nct
    ses = X.factor.se
    return {name: PowerRow(se=float(se), power=float(pw)) for name, se, pw
            in zip(X.columns, ses, _nct.power(ses, n - p, alpha, effect_sd))}


def term_r_squared(X: ModelMatrix) -> dict[str, float]:
    """Collinearity R^2 of each column regressed on all the others.

    Uses R2_j = 1 - RSS_j/TSS_j with RSS_j = 1/(X'X)^-1_jj; TSS is about
    the column mean when an intercept column is present, about zero
    otherwise.
    """
    if X.p < 2:
        raise Unsupported(f"term R^2 needs at least 2 columns, got {X.p}")
    return dict(zip(X.columns, _column_r2(X)))
