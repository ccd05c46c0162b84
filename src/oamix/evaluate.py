"""Design-quality mathematics.

Covers orthogonal-blocking verification, the D/A/G optimality summary,
prediction variance, fraction-of-design-space curves, per-coefficient
standard errors and power, and per-term collinearity R-squared.

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

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import BlockedDesign, ModelMatrix, ModelSpec, n_pairs
from .errors import InsufficientDF, NothingToCheck
from .linalg import det_xtx, log_det_xtx
from .modelmat import build_model_matrix, model_rows
from .pwo import pwo_from_run

_MASK64 = (1 << 64) - 1
# FDS samples drawn and evaluated per batch; bounds the sampler's memory
_CHUNK = 1024

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


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    term: str
    block_sums: tuple[float, ...]
    discrepancy: float
    tol: float
    ok: bool


@dataclass(frozen=True)
class BlockingReport:
    passed: bool
    tol: float
    conditions: tuple[ConditionCheck, ...]

    def failed(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.conditions if not c.ok)


def _condition_name(term: str) -> str:
    if term == "1":
        return "intercept_sum"
    if "*z" in term:
        return "interaction_sum"
    if term.startswith("z"):
        return "pwo_sum"
    if "*A" in term:
        return "amount_product_sum"
    if "^2" in term:
        return "square_sum"
    if "*" in term:
        return "cross_product_sum"
    return "component_sum"


# integer-valued columns must balance exactly; mixture sums only to
# printed rounding
_EXACT_CONDITIONS = {"pwo_sum", "interaction_sum"}


def check_orthogonal_blocking(design: BlockedDesign, spec: ModelSpec,
                              tol: float = 5e-3) -> BlockingReport:
    """Verify equal per-block sums for every non-block model column.

    Orthogonal blocking holds exactly when each model term sums to the same
    value in every block. Ordering and interaction columns are integer
    valued and must balance exactly; component polynomial sums are compared
    at the given tolerance. Block sums are correctly rounded (math.fsum),
    so the verdict does not depend on the order of runs within a block.
    """
    if design.n_blocks < 2:
        raise NothingToCheck(
            f"blocking needs at least 2 blocks, design has {design.n_blocks}")
    X = build_model_matrix(design, replace(spec, include_block=False))
    # per block, the columns as lists of floats (fsum is fast on lists)
    by_block = [X.data[design.block == b].T.tolist()
                for b in range(1, design.n_blocks + 1)]
    records = []
    for j, term in enumerate(X.columns):
        sums = tuple(math.fsum(cols[j]) for cols in by_block)
        disc = max(sums) - min(sums)
        cond = _condition_name(term)
        use_tol = 0.0 if cond in _EXACT_CONDITIONS else tol
        records.append(ConditionCheck(cond, term, sums, disc, use_tol,
                                      disc <= use_tol))
    return BlockingReport(passed=all(r.ok for r in records), tol=tol,
                          conditions=tuple(records))


@dataclass(frozen=True)
class ColumnStats:
    name: str
    se: float
    r_squared: float
    power_2sd: float


@dataclass(frozen=True)
class EvalReport:
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


def _point_variances(rows: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """v'(X'X)^-1 v for every row v."""
    return np.sum((rows @ inv) * rows, axis=1)


def _column_r2(X: ModelMatrix, inv: np.ndarray) -> list[float]:
    T = X.data
    if "1" in X.columns:
        # centre every column but the intercept about its mean
        T = T - np.where(np.array(X.columns) == "1", 0.0, T.mean(axis=0))
    tss = np.sum(T * T, axis=0)
    tss[tss <= 1e-300] = math.nan
    return (1.0 - (1.0 / np.diag(inv)) / tss).tolist()


def _power(se: np.ndarray, df: int, alpha: float,
           effect_sd: float) -> np.ndarray:
    """Two-sided noncentral-t power for every standard error in se.

    se is in units of sigma, so the noncentrality effect_sd/se does not
    depend on sigma. scipy.special is imported here so that only the
    commands reporting power load it. The upper tail uses
    sf(t; df, ncp) = F(-t; df, -ncp), which matches scipy.stats.nct.sf bit
    for bit where 1 - F does not.
    """
    from scipy import special
    tcrit = special.stdtrit(df, 1.0 - alpha / 2.0)
    ncp = effect_sd / se
    hi = special.nctdtr(df, -ncp, -tcrit)
    lo = special.nctdtr(df, ncp, -tcrit)
    # far lower tail under a large noncentrality; negligible mass
    lo = np.where(np.isfinite(lo), lo, 0.0)
    return hi + lo


def criteria_report(X: ModelMatrix,
                    eval_points: Optional[np.ndarray] = None) -> EvalReport:
    """Full optimality and per-coefficient summary of a model matrix.

    max_pv and avg_pv are taken over the design's own rows unless an
    explicit point set (rows in the same column basis) is supplied.
    """
    f = X.factor
    inv = f.inv
    n, p = X.n, X.p
    pts = X.data if eval_points is None else np.asarray(eval_points, float)
    pv = _point_variances(pts, inv)
    max_pv = float(pv.max())
    avg_pv = float(pv.mean())
    g_eff = 100.0 * p / (n * max_pv)
    ses = np.sqrt(np.diag(inv))
    r2 = _column_r2(X, inv)
    df = n - p
    power = (_power(ses, df, 0.05, 2.0) if df > 0
             else np.full(p, math.nan))
    cols = tuple(ColumnStats(name, float(se), r, float(pw))
                 for name, se, r, pw in zip(X.columns, ses, r2, power))
    return EvalReport(
        n=n, p=p, det_xtx=det_xtx(f),
        d_criterion=math.exp(log_det_xtx(f) / p) / n,
        a_criterion=float(np.trace(inv)),
        max_pv=max_pv, avg_pv=avg_pv, g_efficiency=g_eff,
        columns=cols)


@dataclass(frozen=True)
class FDSCurve:
    fractions: tuple[float, ...]
    variances: tuple[float, ...]
    n_samples: int
    seed: int

    def median(self) -> float:
        return float(np.median(self.variances))

    def maximum(self) -> float:
        return self.variances[-1]


def _needs_amount(design: BlockedDesign, spec: ModelSpec) -> bool:
    return design.kind == "amount" or spec.family.startswith("mixture_amount")


def fds_curve(design: BlockedDesign, spec: ModelSpec, n_samples: int,
              seed: int = 0) -> FDSCurve:
    """Fraction-of-design-space curve from uniform design-space sampling.

    Each sample draws a uniform simplex direction (normalized unit
    exponentials), a total amount uniform over the design's amount levels
    when the model uses one, an addition order uniform over the full
    support, and a fair +/-1 block; its prediction variance comes from the
    design's information matrix. Sample s uses an independent substream
    seeded by seed XOR s, so partitioned or partial runs agree with full
    runs sample for sample. Variances are sorted ascending against
    fractions (i - 0.5)/n_samples.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    X = build_model_matrix(design, spec)
    inv = X.factor.inv
    m = design.m
    perms = list(itertools.permutations(range(1, m + 1)))
    levels = design.amount_levels()
    use_amount = _needs_amount(design, spec)

    pvs = np.empty(n_samples)
    for lo in range(0, n_samples, _CHUNK):
        k = min(_CHUNK, n_samples - lo)
        values = np.empty((k, m))
        pwo = np.empty((k, n_pairs(m)))
        block = np.empty(k, dtype=int)
        amount = np.full(k, math.nan) if use_amount else None
        for i in range(k):
            rng = np.random.default_rng((seed ^ (lo + i)) & _MASK64)
            e = rng.standard_exponential(m)
            x = e / e.sum()
            if use_amount:
                amount[i] = levels[int(rng.integers(len(levels)))]
            values[i] = x * amount[i] if design.kind == "amount" else x
            order = perms[int(rng.integers(len(perms)))]
            pwo[i] = pwo_from_run(values[i], order)
            block[i] = 1 + int(rng.integers(2))
        rows = model_rows(spec, m, values, pwo, block, amount)
        pvs[lo:lo + k] = np.einsum("ij,jk,ik->i", rows, inv, rows)

    pvs.sort()
    fracs = tuple((i - 0.5) / n_samples for i in range(1, n_samples + 1))
    return FDSCurve(fractions=fracs, variances=tuple(float(v) for v in pvs),
                    n_samples=n_samples, seed=seed)


class PowerRow(NamedTuple):
    se: float
    power: float


def power_table(X: ModelMatrix, alpha: float = 0.05,
                effect_sd: float = 2.0) -> dict[str, PowerRow]:
    """Per-coefficient standard error and detection power.

    se_j = sqrt((X'X)^-1_jj) in units of sigma; power is the two-sided
    noncentral-t probability of detecting a coefficient of effect_sd*sigma
    at the given level with n - p error degrees of freedom.
    """
    n, p = X.n, X.p
    if n <= p:
        raise InsufficientDF(f"n={n} <= p={p}: no residual degrees of freedom")
    ses = np.sqrt(np.diag(X.factor.inv))
    power = _power(ses, n - p, alpha, effect_sd)
    return {name: PowerRow(se=float(se), power=float(pw))
            for name, se, pw in zip(X.columns, ses, power)}


def term_r_squared(X: ModelMatrix) -> dict[str, float]:
    """Collinearity R^2 of each column regressed on all the others.

    Uses R2_j = 1 - RSS_j/TSS_j with RSS_j = 1/(X'X)^-1_jj; TSS is about
    the column mean when an intercept column is present, about zero
    otherwise.
    """
    if X.p < 2:
        raise ValueError("need at least 2 columns")
    return dict(zip(X.columns, _column_r2(X, X.factor.inv)))
