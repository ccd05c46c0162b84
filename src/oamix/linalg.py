"""Dense linear-algebra kernel: one factorization per model matrix.

The columns of X are first equilibrated to unit norm, Xs = X D^-1, so the
result does not depend on the units of the columns. Householder QR of Xs
gives the p x p triangle R (Q is never formed), and the SVD R = U S V'
gives everything downstream: the rank, det(X'X), least-squares solves,
and the columns to blame when X is rank deficient (Golub & Van Loan,
Matrix Computations, ch. 5). With (Xs'Xs)^-1 = W W', each v'(X'X)^-1 v is
|W'(v/D)|^2 and each se is |W_j|/D_j: no raw-unit (X'X)^-1 is formed.

Above _CHOLQR_ROWS rows, R comes from CholeskyQR2 (Fukaya, Nakatsukasa,
Yanagisawa & Yamamoto 2014, ScalA; error analysis in Yamamoto et al. 2015,
ETNA 44): R1 = chol(Xs'Xs), Q = Xs R1^-1, R = chol(Q'Q) R1, with the p x p
R1^-1 formed once. Its three products over the n rows are BLAS-3, where
a Householder QR of a tall, skinny matrix runs as BLAS-2 and spends much
of its time handing panels between threads (1632 x 44, best of 50 at 2
OpenBLAS threads on a 2-core x86 box: 2.6 ms for the QR, 1.2 ms for
CholeskyQR2 and the SVD of its R). CholeskyQR2 holds until the first
Cholesky factorization fails near cond(Xs) = eps^-1/2 (about 1e8); its R
is kept only when the SVD of R puts cond(Xs) at _CHOLQR_COND or below. On
300 random and structured matrices of 513-2000 rows, up to 44 columns and
cond(Xs) up to 1e6, its (Xs'Xs)^-1 agreed with that of one Householder QR
to within cond(Xs) * eps, the accuracy of either. A failed Cholesky
factorization, a larger condition number and every matrix of at most
_CHOLQR_ROWS rows take one Householder QR, so singular and ill-conditioned
matrices get the rank and dependent columns of a backward-stable R. Both
R are the same up to the signs of their rows, which leave the singular
values and W W' unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularMatrix

_EPS = np.finfo(float).eps
# matrices of more rows take R from CholeskyQR2, if it is well conditioned
_CHOLQR_ROWS = 512
# the largest cond(Xs) at which a CholeskyQR2 R is kept
_CHOLQR_COND = 1e5


class Factor(NamedTuple):
    """The factorization of a full-rank n x p model matrix X; read-only."""

    Xs: np.ndarray     # X D^-1, every column of unit norm
    norms: np.ndarray  # the column norms D
    s: np.ndarray      # singular values of Xs, descending
    W: np.ndarray      # V S^-1, so that (Xs'Xs)^-1 = W W'
    se: np.ndarray     # sqrt((X'X)^-1_jj) = |W_j|/D_j; inf or 0 off range


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


def _r_and_svd(Xs: np.ndarray):
    """The triangle R of Xs = QR, up to row signs, and the singular values
    and right singular vectors of R; see the module doc."""
    if len(Xs) > _CHOLQR_ROWS:
        try:
            R1 = np.linalg.cholesky(Xs.T @ Xs).T
            Q = Xs @ np.linalg.inv(R1)
            R = np.linalg.cholesky(Q.T @ Q).T @ R1
        except np.linalg.LinAlgError:
            pass  # not positive definite to working precision
        else:
            _, s, Vt = np.linalg.svd(R)
            if s.max(initial=0.0) <= _CHOLQR_COND * s.min(initial=np.inf):
                return R, s, Vt
    R = np.linalg.qr(Xs, mode="r")
    _, s, Vt = np.linalg.svd(R)
    return R, s, Vt


def factor(X, names: tuple[str, ...] = ()) -> Factor:
    """Factor X once, or raise SingularMatrix naming the dependent columns
    by names (one per column), or by their 0-based indices where none are
    given; it keeps nothing, so a singular X is refused on every call.

    The rank counts the singular values of Xs above s_max*max(n, p)*eps. A
    column whose norm is past the largest float counts as zero; the refusal
    names it and says so.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    names = names or tuple(map(str, range(X.shape[1])))
    # norms and se read inf or 0 off the float range; where squares may leave
    # the normal range, a norm is that of the column scaled by 2^-e (exact)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(X, axis=0)
        for j in np.flatnonzero((norms < 2.0 ** -480) | (norms > 2.0 ** 480)):
            e = np.frexp(np.abs(X[:, j]).max(initial=0.0))[1]
            norms[j] = np.ldexp(np.linalg.norm(np.ldexp(X[:, j], -e)), e)
        norms[norms == 0] = 1.0  # a zero column stays zero: the rank drops
        Xs = X / norms
        R, s, Vt = _r_and_svd(Xs)
        p = Xs.shape[1]
        tol = float(s.max(initial=0.0)) * max(Xs.shape) * _EPS
        r = int(np.count_nonzero(s > tol))
        if r < p:
            cond = s[0] / s[-1] if s.size == p and s[-1] > 0 else np.inf
            message = (f"model matrix has rank {r} of {p} columns "
                       f"(equilibrated condition number {cond:.3g})")
            huge = [names[j] for j in np.flatnonzero(np.isinf(norms))]
            if huge:
                message += (f"; the norms of columns {', '.join(huge)} are "
                            "past the largest float, so they count as zero: "
                            "scale their units down")
            dep = _dependent(R, tol)
            raise SingularMatrix(message, dep, tuple(names[j] for j in dep))
        W = Vt.T / s
        f = Factor(Xs, norms, s, W, np.linalg.norm(W, axis=1) / norms)
    for a in f:
        a.flags.writeable = False
    return f


def _point_variances(f: Factor, scaled: np.ndarray) -> np.ndarray:
    """v'(X'X)^-1 v = |W'(v/D)|^2 for each row v/D of scaled; one BLAS call
    per row, so a point's variance does not depend on its batch."""
    t = np.matmul(scaled[:, None, :], f.W)[:, 0]
    return np.square(t, out=t).sum(axis=1)


def _inverse(f: Factor) -> np.ndarray:
    """(X'X)^-1 = D^-1 W W' D^-1 in raw units, read-only; inf/0 off range."""
    with np.errstate(over="ignore", under="ignore"):
        Wd = f.W / f.norms[:, None]
        inv = Wd @ Wd.T
    inv.flags.writeable = False
    return inv


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
    solve without forming Q. A coefficient past the float range reads inf.
    """
    y = np.asarray(y, dtype=float)
    x = f.W @ (f.W.T @ (f.Xs.T @ y))
    r = y - f.Xs @ x
    x += f.W @ (f.W.T @ (f.Xs.T @ r))
    with np.errstate(over="ignore"):
        return x / f.norms
