"""Ordinary least squares on a model matrix."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import ModelMatrix
from .errors import InsufficientDF, SchemaError, Unsupported
from .linalg import _inverse, _point_variances, lstsq


@dataclass(frozen=True)
class FitResult:
    columns: tuple[str, ...]
    estimates: tuple[float, ...]
    se: tuple[float, ...]
    sigma_hat: float
    df_residual: int
    r_squared: float
    residuals: tuple[float, ...]
    fitted: tuple[float, ...]
    matrix: ModelMatrix = field(repr=False, compare=False)

    @functools.cached_property
    def info_inv(self) -> np.ndarray:
        """(X'X)^-1 in raw units, read-only, formed on first read."""
        return _inverse(self.matrix.factor)

    def coefficient(self, name: str) -> float:
        return self.estimates[self.columns.index(name)]


def _refuse_past_range(what: str, a: np.ndarray, columns) -> None:
    huge = np.flatnonzero(~np.isfinite(a)).tolist()
    if huge:
        raise Unsupported(
            f"the {what} of columns {', '.join(columns[j] for j in huge)}"
            " are past the largest float: scale their units up")


def ols_fit(X: ModelMatrix, y) -> FitResult:
    """Least-squares fit from one factorization of the model matrix.

    Residuals are orthogonal to every column; se_j = sigma_hat * |W_j|/D_j;
    no inverse is formed. R-squared is computed about the response
    mean when the columns span a constant (intercept or a full simplex
    linear basis), about zero otherwise. Every statistic is formed on y/2^e,
    below 1 in size, and scaled back by 2^e: exactly, so the fit holds at
    any scale of the response. An estimate or se past the float range (a
    column in tiny units) raises Unsupported naming its column.
    """
    y = np.asarray(y, dtype=float)
    n, p = X.n, X.p
    if y.shape != (n,):
        raise SchemaError(f"response length {y.shape} does not match n={n}")
    if not np.all(np.isfinite(y)):
        raise SchemaError("response has non-finite values")
    if n <= p:
        raise InsufficientDF(f"n={n} <= p={p}")
    f = X.factor  # raises SingularMatrix with column names
    e = np.frexp(np.abs(y).max())[1]
    y = np.ldexp(y, -e)
    b = lstsq(f, y)
    with np.errstate(over="ignore"):
        beta = np.ldexp(b, e)
    _refuse_past_range("estimates", beta, X.columns)
    fitted = X.data @ b
    resid = y - fitted
    rss = float(resid @ resid)
    df = n - p
    sigma = np.sqrt(rss / df)
    ones = np.ones(n)  # the columns span a constant if ones fits exactly
    if np.max(np.abs(X.data @ lstsq(f, ones) - ones)) <= 1e-8:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    with np.errstate(over="ignore"):
        se, sigma_hat, resid, fitted = (
            np.ldexp(a, e) for a in (sigma * f.se, sigma, resid, fitted))
    _refuse_past_range("standard errors", se, X.columns)
    return FitResult(
        columns=X.columns,
        estimates=tuple(beta.tolist()),
        se=tuple(se.tolist()),
        sigma_hat=float(sigma_hat),
        df_residual=df,
        r_squared=float(r2),
        residuals=tuple(resid.tolist()),
        fitted=tuple(fitted.tolist()), matrix=X)


def predict(fit: FitResult, X_new: ModelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Predicted values and their variances sigma_hat^2 * v'(X'X)^-1 v;
    X_new must have the fit's columns in the fit's basis."""
    X = fit.matrix  # at X itself, the variances made for criteria_report
    if X_new.basis != X.basis:
        raise SchemaError(f"basis mismatch: fit is in the {X.basis} basis, "
                          f"new matrix in the {X_new.basis} basis")
    if tuple(X_new.columns) != tuple(fit.columns):
        raise SchemaError(
            f"column mismatch: fit has {fit.columns}, new matrix has "
            f"{X_new.columns}")
    pv = (X._own_variances if X_new is X
          else _point_variances(X.factor, X_new.data / X.factor.norms))
    return X_new.data @ np.array(fit.estimates), fit.sigma_hat ** 2 * pv
