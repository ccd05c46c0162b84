"""Ordinary least squares on a model matrix."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ModelMatrix
from .errors import InsufficientDF, SchemaError
from .linalg import Factor, _inverse, _point_variances, lstsq


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
    info_inv: np.ndarray
    factor: Factor = field(repr=False, compare=False)

    def coefficient(self, name: str) -> float:
        return self.estimates[self.columns.index(name)]


def ols_fit(X: ModelMatrix, y) -> FitResult:
    """Least-squares fit from one factorization of the model matrix.

    Residuals are orthogonal to every column; se_j = sigma_hat * |W_j|/D_j;
    info_inv is (X'X)^-1, read-only. R-squared is computed about the response
    mean when the columns span a constant (intercept or a full simplex
    linear basis), about zero otherwise.
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
    beta = lstsq(f, y)
    fitted = X.data @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    df = n - p
    sigma_hat = np.sqrt(rss / df)
    ones = np.ones(n)  # the columns span a constant if ones fits exactly
    if np.max(np.abs(X.data @ lstsq(f, ones) - ones)) <= 1e-8:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return FitResult(
        columns=X.columns,
        estimates=tuple(beta.tolist()),
        se=tuple((sigma_hat * f.se).tolist()),
        sigma_hat=float(sigma_hat),
        df_residual=df,
        r_squared=float(r2),
        residuals=tuple(resid.tolist()),
        fitted=tuple(fitted.tolist()),
        info_inv=_inverse(f), factor=f)


def predict(fit: FitResult, X_new: ModelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Predicted values and their variances sigma_hat^2 * v'(X'X)^-1 v."""
    if tuple(X_new.columns) != tuple(fit.columns):
        raise SchemaError(
            f"column mismatch: fit has {fit.columns}, new matrix has "
            f"{X_new.columns}")
    f = fit.factor
    variances = fit.sigma_hat ** 2 * _point_variances(f, X_new.data / f.norms)
    return X_new.data @ np.array(fit.estimates), variances
