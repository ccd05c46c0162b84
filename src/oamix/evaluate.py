"""Design-quality mathematics.

Covers orthogonal-blocking verification, the D/A/G optimality summary,
prediction variance, fraction-of-design-space curves, per-coefficient
standard errors and power, and per-term collinearity R-squared. The power
is computed with numpy and math alone (see _power); no scipy.

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
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from .core import FAMILIES, BlockedDesign, ModelMatrix, ModelSpec
from .errors import InsufficientDF, NothingToCheck, SchemaError, Unsupported
from .linalg import _point_variances, det_xtx, log_det_xtx
from .modelmat import _columns, _terms, build_model_matrix, model_rows
from .pwo import _rows, _steps

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


# integer-valued columns must balance exactly; mixture sums only to
# printed rounding
_EXACT_CONDITIONS = {"pwo_sum", "interaction_sum"}


def check_orthogonal_blocking(design: BlockedDesign, spec: ModelSpec,
                              tol: float = 5e-3) -> BlockingReport:
    """Verify equal per-block sums for every non-block model column.

    Orthogonal blocking holds exactly when each model term sums to the same
    value in every block. Each column's condition comes from its entry in
    the model's term table. Ordering and interaction columns are integer
    valued and must balance exactly; component polynomial sums are compared
    at tol, an absolute bound in the column's own units (amount designs
    need it scaled), and a negative or NaN tol raises Unsupported. Block
    sums are correctly rounded (math.fsum), so the verdict does not depend
    on the order of runs within a block.
    """
    if not tol >= 0:
        raise Unsupported(f"tol must be a number >= 0, got {tol}")
    if design.n_blocks < 2:
        raise NothingToCheck(
            f"blocking needs at least 2 blocks, design has {design.n_blocks}")
    spec = replace(spec, include_block=False)
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


def _column_r2(X: ModelMatrix) -> list[float]:
    # RSS_j/TSS_j is free of units: both on Xs, where RSS_j = 1/|W_j|^2
    T, W = X.factor.Xs, X.factor.W
    if "1" in X.columns:
        # centre every column but the intercept about its mean
        T = T - np.where(np.array(X.columns) == "1", 0.0, T.mean(axis=0))
    tss = np.sum(T * T, axis=0)
    tss[tss <= 1e-300] = math.nan
    return (1.0 - (1.0 / np.sum(W * W, axis=1)) / tss).tolist()


# The power kernel. For integer df, the two-sided power is a Poisson
# mixture of central incomplete-beta tails (Lenth 1989, AS 243; Benton and
# Krishnamoorthy 2003): with c the critical value, x = c^2/(c^2 + df) and
# lambda = ncp^2/2,
#     power = 1 - sum_j e^-lambda lambda^j/j! T_j,  T_j = I_x(j + 1/2, df/2).
# The odd terms of the noncentral-t CDF cancel between the two tails.
_NCP_MAX = 2.0 ** 31.5  # scipy's nctdtr, the former kernel, reads nan here
_TABLE_MAX = 1 << 16  # most T_j kept per (df, alpha)
_SERIES_MAX = 1 << 20  # most terms summed for a critical value (df < ~2e5)
_LOG_DROP = -40.0  # series terms below e^-40 of the largest are dropped
_LOG_2_RTPI = math.log(2.0 / math.sqrt(math.pi))  # ln 1/Gamma(3/2)
_LN_FACTORIAL = np.cumsum(np.log(np.arange(1.0, 16.0)))  # ln j!, j = 1..15


def _log_gamma_ratio(b: float) -> float:
    """ln(Gamma(b + 1/2)/Gamma(b)); from 16 on, an asymptotic series, which
    does not lose the digits that a difference of two lgamma values does."""
    if b < 16:
        return math.lgamma(b + 0.5) - math.lgamma(b)
    r = 1.0 / b
    r2 = r * r
    return 0.5 * math.log(b) - r * (1 / 8 - r2 * (1 / 192 - r2 * (
        1 / 640 - r2 * (17 / 14336 - r2 * 31 / 18432))))


def _log_terms(log_first: float, log_z: float, num: float, den: float,
               limit: int) -> np.ndarray:
    """ln t_k of a positive series with t_{k+1}/t_k = z (k + num)/(k + den).

    The count of terms doubles from 64 until the rest of the series is
    below e^-40 of its largest term, or until it reaches limit.
    """
    z = math.exp(log_z)
    n = 64
    while True:
        k = np.arange(n - 1.0)
        lt = np.empty(n)
        lt[0] = log_first
        np.cumsum(log_z + np.log((k + num) / (k + den)), out=lt[1:])
        lt[1:] += log_first
        # every later ratio lies between the last one and z
        r = max(z * (n - 1 + num) / (n - 1 + den), z)
        if n >= limit or (r < 1 and lt[-1] + math.log(r / (1 - r))
                          < lt.max() + _LOG_DROP):
            return lt
        n *= 2


def _log_sum(lt: np.ndarray) -> float:
    top = lt.max()
    return top + math.log(np.exp(lt - top).sum())


def _beta_logs(df: int, u: float) -> tuple[float, float, float]:
    """ln x, ln(1 - x) and ln g_0 at the critical value c = e^u, where
    g_0 = x^1/2 (1 - x)^(df/2) Gamma(df/2 + 1/2)/(Gamma(3/2) Gamma(df/2))
    is the first term of T_0 and equals 2 c f(c), f the t density."""
    s = 2.0 * u - math.log(df)  # ln(c^2/df); log1p of e^-|s| keeps digits
    soft = math.log1p(math.exp(-abs(s)))
    log_x, log_y = (-soft, -s - soft) if s > 0 else (s - soft, -soft)
    b = df / 2
    return (log_x, log_y,
            0.5 * log_x + b * log_y + _log_gamma_ratio(b) + _LOG_2_RTPI)


def _log_critical(df: int, alpha: float) -> float:
    """ln c for P(|T| > c) = alpha, T Student's t with df degrees of freedom.

    Newton's method in u = ln c on ln P(|T| > e^u), which is concave in u.
    The start comes from the tail bound P(|T| > c) <= K c^-df, so it lies
    right of the root and the steps fall to it monotonically. Below c = 3
    the tail is 1 - I_x(1/2, df/2); above, it is I_(1-x)(df/2, 1/2) summed
    in logs, which keeps its digits at any alpha (x near 1 included).
    """
    if df == 1:
        return -math.log(math.tan(0.5 * math.pi * alpha))
    b = df / 2
    log_alpha = math.log(alpha)
    u = (_LOG_2_RTPI + _log_gamma_ratio(b) + (b - 1) * math.log(df)
         - log_alpha) / df
    for _ in range(200):
        log_x, log_y, log_g0 = _beta_logs(df, u)
        if u < math.log(3.0):
            lt = _log_terms(log_g0, log_x, b + 0.5, 1.5, _SERIES_MAX)
            log_tail = math.log1p(-math.exp(_log_sum(lt)))
        else:
            lt = _log_terms(log_g0 - math.log(df), log_y, b + 0.5, b + 1,
                            _SERIES_MAX)
            log_tail = _log_sum(lt)
        step = (log_tail - log_alpha) * math.exp(log_tail - log_g0)
        u += step
        if abs(step) < 1e-13:  # the step after a quadratic one is this small
            break
    return u


class _TailTable(NamedTuple):
    T: np.ndarray  # T_j = I_x(j + 1/2, df/2), j < len(T)
    cut: bool  # T ends before its terms fall below e^-40 of the largest
    log_c: float
    log_base: np.ndarray  # -ln(2 pi j)/2 - (Stirling error of ln j!), j >= 1


@functools.lru_cache(maxsize=32)
def _tail_table(df: int, alpha: float) -> _TailTable:
    """The tail table of one (df, alpha): T_j = sum_{k>=j} g_k, summed from
    the far end, with g_{k+1}/g_k = x (k + 1/2 + df/2)/(k + 3/2), and tied
    to T_0 = 1 - alpha: a table cut at _TABLE_MAX adds what its terms miss
    of T_0 to every T_j, a whole one is scaled to it."""
    u = _log_critical(df, alpha)
    log_x, _, log_g0 = _beta_logs(df, u)
    lt = _log_terms(log_g0, log_x, df / 2 + 0.5, 1.5, _TABLE_MAX)
    lt = lt[:np.flatnonzero(lt >= lt.max() + _LOG_DROP)[-1] + 1]
    T = np.cumsum(np.exp(lt[::-1]))[::-1]
    rest = (1.0 - alpha) - T[0]  # rounding, unless the series was cut
    cut = rest > 1e-14
    if cut:
        T += rest
    else:  # the rounding of the summed logs, common to every T_j
        T *= (1.0 - alpha) / T[0]
    j = np.arange(1.0, len(T))
    r2 = 1.0 / (j * j)
    stirling = np.where(
        j < 16, _LN_FACTORIAL[np.minimum(j, 15).astype(int) - 1]
        - (j * np.log(j) - j + 0.5 * np.log(2 * math.pi * j)),
        (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680))) / j)
    log_base = np.concatenate(
        ([0.0], -0.5 * np.log(2 * math.pi * j) - stirling))
    for arr in (T, log_base):
        arr.flags.writeable = False
    return _TailTable(T, cut, u, log_base)


def _log_poisson(lam: np.ndarray, log_base: np.ndarray) -> np.ndarray:
    """ln P(N = j), j < len(log_base), one row per N ~ Poisson(lam), in
    Loader's saddle-point form: ln(j/lam) as a log1p keeps the digits that
    j ln(lam) - ln(j!) loses at large lam. lam = 0 gives -inf for j >= 1
    (under the caller's errstate)."""
    j = np.arange(1.0, len(log_base))
    d = lam[:, None]
    out = np.empty((len(lam), len(log_base)))
    out[:, 0] = -lam
    terms = np.subtract(j, d, out=out[:, 1:])  # j - lam, in place
    r = np.log1p(terms / d)
    r *= j
    terms -= r
    terms += log_base[1:]
    return out


def _far_power(ncp: np.ndarray, df: int, log_c: float) -> np.ndarray:
    """Power past the end of a cut table (x near 1, ncp above about 250).

    The upper tail is the mean over Z ~ N(0, 1) of
    P(chi2_df < df (ncp - Z)^2/c^2), which is smooth on the scale of
    c/sqrt(df) > 40 here: 40-point Gauss-Hermite. The lower tail and the
    kink at Z = ncp lie past every node.
    """
    from numpy.polynomial.hermite import hermgauss
    z, weight = hermgauss(40)
    # ln w, w = df t^2/(2 c^2) at t = ncp - sqrt(2) z
    lw = (2.0 * np.log(ncp[:, None] - math.sqrt(2.0) * z)
          + math.log(df / 2) - 2.0 * log_c)
    # the chi-square upper tail Q(df/2, w), a finite sum for integer df
    k = np.arange(df // 2) + df % 2 / 2
    lg = np.array([math.lgamma(v + 1.0) for v in k])
    q = np.exp(k * lw[..., None] - np.exp(lw)[..., None] - lg).sum(axis=-1)
    if df % 2:
        q += np.vectorize(math.erfc)(np.exp(0.5 * lw))
    return (1.0 - q) @ weight / math.sqrt(math.pi)


def _power(se: np.ndarray, df: int, alpha: float,
           effect_sd: float) -> np.ndarray:
    """Two-sided noncentral-t power for every standard error in se.

    se is in units of sigma, so the noncentrality effect_sd/se does not
    depend on sigma. The tail table of (df, alpha) is built once and
    cached; a call is one (p x J) exp and one matrix-vector product, J the
    end of the Poisson weights of the largest noncentrality or of the
    table, whichever comes first. The power reads nan where se is 0 or NaN
    and where |effect_sd/se| >= 2^31.5, the range of the scipy kernel it
    replaces; it raises no floating-point warning.
    """
    table = _tail_table(int(df), float(alpha))
    L = len(table.T)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ncp = np.abs(effect_sd / np.asarray(se, float))
        power = np.full(ncp.shape, math.nan)
        ok = ncp < _NCP_MAX
        lam = 0.5 * ncp[ok] ** 2
        # the Poisson mass outside lam +- spread is below e^-70
        spread = 12.0 * np.sqrt(lam) + 40.0
        # past the end of a whole table the power is 1; past the end of a
        # cut one it comes from _far_power
        near = lam + spread <= L if table.cut else lam - spread < L
        J = int(min(L, np.ceil(lam + spread)[near].max(initial=1.0)))
        got = np.ones(len(lam))
        got[near] -= (np.exp(_log_poisson(lam[near], table.log_base[:J]))
                      @ table.T[:J])
        if table.cut and not near.all():
            got[~near] = _far_power(ncp[ok][~near], int(df), table.log_c)
        power[ok] = got
    return power


def criteria_report(X: ModelMatrix,
                    eval_points: Optional[np.ndarray] = None) -> EvalReport:
    """Full optimality and per-coefficient summary of a model matrix.

    max_pv and avg_pv are taken over the design's own rows unless an
    explicit point set (rows in the same column basis) is supplied; a point
    set that is not a non-empty (k, p) array of finite values raises
    SchemaError.
    """
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
    power = (_power(f.se, df, 0.05, 2.0) if df > 0
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


@dataclass(frozen=True)
class FDSCurve:
    """Sorted prediction variances, their fractions (i - 0.5)/n and seed."""
    variances: tuple[float, ...]
    seed: int
    sampler: ClassVar[str] = FDS_SAMPLER

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


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
    ses = X.factor.se
    return {name: PowerRow(se=float(se), power=float(pw)) for name, se, pw
            in zip(X.columns, ses, _power(ses, n - p, alpha, effect_sd))}


def term_r_squared(X: ModelMatrix) -> dict[str, float]:
    """Collinearity R^2 of each column regressed on all the others.

    Uses R2_j = 1 - RSS_j/TSS_j with RSS_j = 1/(X'X)^-1_jj; TSS is about
    the column mean when an intercept column is present, about zero
    otherwise.
    """
    if X.p < 2:
        raise Unsupported(f"term R^2 needs at least 2 columns, got {X.p}")
    return dict(zip(X.columns, _column_r2(X)))
