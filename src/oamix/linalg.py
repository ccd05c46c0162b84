"""Dense linear-algebra kernel: one factorization per model matrix.

The columns of X are first equilibrated to unit norm, Xs = X D^-1, so the
result does not depend on the units of the columns. Householder QR of Xs
gives the p x p triangle R (Q is never formed), and the SVD R = U S V'
gives everything downstream: the rank, det(X'X), (X'X)^-1, least-squares
solves, and the columns to blame when X is rank deficient (Golub & Van
Loan, Matrix Computations, ch. 5). (X'X)^-1 is formed here, once per
factorization, and every report reads it from Factor.inv.

A tall Xs is factored in row blocks (TSQR; Demmel, Grigori, Hoemmen &
Langou 2012, SIAM J. Sci. Comput. 34(1)): the R of each block of
_BLOCK_ROWS rows, then the R of those stacked triangles. With more than
one BLAS thread, a single QR of a tall, skinny matrix spends much of its
time handing panels between threads; cache-sized blocks do not (730 x 32:
0.55 -> 0.31 ms at 2 OpenBLAS threads on a 2-core x86 box). The result is
the same backward-stable R up to the signs of its rows, which leave the
singular values and W W' unchanged. Shorter matrices take one QR call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularMatrix

_EPS = np.finfo(float).eps
# rows per block of the row-blocked QR; up to twice as many rows are
# factored in one call
_BLOCK_ROWS = 256


class Factor(NamedTuple):
    """The factorization of a full-rank n x p model matrix X; read-only."""

    Xs: np.ndarray     # X D^-1, every column of unit norm
    norms: np.ndarray  # the column norms D
    s: np.ndarray      # singular values of Xs, descending
    W: np.ndarray      # V S^-1, so that (Xs'Xs)^-1 = W W'
    inv: np.ndarray    # (X'X)^-1 = D^-1 W W' D^-1, symmetric by construction


def _dependent(R: np.ndarray, tol: float) -> tuple[int, ...]:
    # Xs[:, :k] and R[:k, :k] share their singular values: a column adds
    # no direction when the rank of its prefix does not grow
    dep, r = [], 0
    for k in range(R.shape[1]):
        sk = np.linalg.svd(R[:k + 1, :k + 1], compute_uv=False)
        rk = int(np.count_nonzero(sk > tol))
        if rk == r:
            dep.append(k)
        r = rk
    return tuple(dep)


def _tall_r(Xs: np.ndarray) -> np.ndarray:
    """The triangle R of Xs = QR, up to row signs; see the module doc."""
    if len(Xs) <= 2 * _BLOCK_ROWS:
        return np.linalg.qr(Xs, mode="r")
    return np.linalg.qr(np.vstack([
        np.linalg.qr(Xs[i:i + _BLOCK_ROWS], mode="r")
        for i in range(0, len(Xs), _BLOCK_ROWS)]), mode="r")


def factor(X) -> Factor:
    """Factor X once; SingularMatrix names the dependent columns.

    The rank counts the singular values of Xs above s_max*max(n, p)*eps.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0] = 1.0  # a zero column stays zero, so the rank drops
    Xs = X / norms
    R = _tall_r(Xs)
    _, s, Vt = np.linalg.svd(R)
    p = Xs.shape[1]
    tol = float(s.max(initial=0.0)) * max(Xs.shape) * _EPS
    r = int(np.count_nonzero(s > tol))
    if r < p:
        cond = s[0] / s[-1] if s.size == p and s[-1] > 0 else np.inf
        raise SingularMatrix(
            f"model matrix has rank {r} of {p} columns (equilibrated "
            f"condition number {cond:.3g})", offending=_dependent(R, tol))
    W = Vt.T / s
    Wd = W / norms[:, None]
    f = Factor(Xs=Xs, norms=norms, s=s, W=W, inv=Wd @ Wd.T)
    for a in f:
        a.flags.writeable = False
    return f


def _point_variances(rows: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """v'(X'X)^-1 v for every row v, given inv = Factor.inv."""
    return np.sum((rows @ inv) * rows, axis=1)


def det_xtx(f: Factor) -> float:
    """det(X'X) = det(D)^2 * prod(s)^2, the plain product: inf or 0 where
    it leaves the float range (log_det_xtx stays finite)."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.prod((f.s * f.norms) ** 2))


def log_det_xtx(f: Factor) -> float:
    """log det(X'X), finite wherever X has full rank."""
    return 2.0 * float(np.sum(np.log(f.s * f.norms)))


def lstsq(f: Factor, y) -> np.ndarray:
    """Coefficients b minimizing |X b - y|, in the units of X.

    Corrected semi-normal equations: solve R'R x = Xs'y, then one
    refinement step on the residual, which restores the accuracy of a QR
    solve without forming Q.
    """
    y = np.asarray(y, dtype=float)
    x = f.W @ (f.W.T @ (f.Xs.T @ y))
    r = y - f.Xs @ x
    x += f.W @ (f.W.T @ (f.Xs.T @ r))
    return x / f.norms
