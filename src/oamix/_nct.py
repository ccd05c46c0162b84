"""The noncentral-t power kernel of criteria_report and power_table.

For integer df, the two-sided power is a Poisson mixture of central
incomplete-beta tails (Lenth 1989, AS 243; Benton and Krishnamoorthy 2003):
with c the critical value, x = c^2/(c^2 + df) and lambda = ncp^2/2,
    power = 1 - sum_j e^-lambda lambda^j/j! T_j,  T_j = I_x(j + 1/2, df/2).
The odd terms of the noncentral-t CDF cancel between the two tails. It is
computed with numpy and math alone; no scipy. Only the commands that
report power import this module.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

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


def power(se: np.ndarray, df: int, alpha: float,
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
        out = np.full(ncp.shape, math.nan)
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
        out[ok] = got
    return out
