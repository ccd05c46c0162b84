"""Independent reference for checking oamix outputs (numpy and scipy only).

Nothing here imports oamix. Model-matrix columns are rebuilt from their
names ("x1", "a2^2", "x1*x2*A^2", "z13", "a1*z12", "1"); block columns
(names starting with "blk") are only checked for a distinct code per
block, since their coding is the program's choice. Criteria, inverses,
fits and powers are computed with numpy on the column-equilibrated matrix
(unit-norm columns, SVD), never bitwise like the program, so any correct
factorization passes. The FDS reference draws from the documented sampling
distribution with vectorized numpy and is compared by KS distance.

Check functions take plain records (dicts of numbers and arrays) and return
a list of problem strings; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

# relative tolerances against the equilibrated numpy reference; loose enough
# for the normal-equations kernel on well-conditioned designs, tight enough
# to reject a 1e-4 relative error in any reported value
RTOL = 2e-6
SKETCH_RTOL = 1e-9
# a blocking verdict may differ only when the discrepancy sits within this
# of its tolerance (float summation order)
BLOCK_EDGE = 1e-9
KS_ALPHA = 1e-6

_FACTOR = re.compile(r"^(?:([xa])(\d)(?:\^(\d))?|A(?:\^(\d))?|z(\d)(\d)|1)$")


def pairs(m: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(1, m) for k in range(j + 1, m + 1)]


def is_block_column(name: str) -> bool:
    return name.startswith("blk")


def coded_components(values, amount, kind: str, scale: float) -> np.ndarray:
    """Components mapped onto [-1, 1]: 2v - 1 for proportions; for amounts
    2v/scale - 1 with equal blends coded at their run total."""
    values = np.asarray(values, dtype=float)
    if kind == "proportion":
        return 2.0 * values - 1.0
    amount = np.asarray(amount, dtype=float)
    v = values.copy()
    spread = v.max(axis=1) - v.min(axis=1)
    equal = spread <= 1e-9 * np.maximum(1.0, np.abs(amount))
    v[equal] = amount[equal, None]
    return 2.0 * v / scale - 1.0


def basis_components(arr: dict, coded: bool = False) -> np.ndarray:
    """A design's components in the raw or the coded basis; amounts are
    coded against the design's largest run total."""
    if not coded:
        return np.asarray(arr["values"], dtype=float)
    scale = np.nanmax(arr["amount"]) if arr["kind"] == "amount" else 1.0
    return coded_components(arr["values"], arr["amount"], arr["kind"], scale)


def design_matrix(arr: dict, columns, coded: bool = False) -> np.ndarray:
    """The model matrix of a two-block design given as arrays (values, pwo,
    block, amount, kind), its block columns coded -1 in block 1 and +1 in
    block 2."""
    X, blk = term_matrix(columns, basis_components(arr, coded), arr["pwo"],
                         arr["amount"])
    X[:, blk] = np.where(np.asarray(arr["block"]) == 1, -1.0, 1.0)[:, None]
    return X


def term_matrix(columns, comp, pwo, amount) -> tuple[np.ndarray, list[int]]:
    """Evaluate named model terms on point arrays.

    comp: (n, m) component values in the wanted basis; pwo: (n, m(m-1)/2)
    in pair order; amount: (n,) totals (ignored unless a term uses A).
    Returns the matrix and the indices of block columns, left as NaN.
    """
    comp = np.asarray(comp, dtype=float)
    pwo = np.asarray(pwo, dtype=float)
    n, m = comp.shape
    pos = {pk: i for i, pk in enumerate(pairs(m))}
    out = np.empty((n, len(columns)))
    blk = []
    for c, name in enumerate(columns):
        if is_block_column(name):
            blk.append(c)
            out[:, c] = np.nan
            continue
        col = np.ones(n)
        for factor in name.split("*"):
            hit = _FACTOR.match(factor)
            if hit is None:
                raise ValueError(f"unknown model term {name!r}")
            comp_i, power, amount_power, zj, zk = hit.groups()[1:]
            if comp_i is not None:
                col = col * comp[:, int(comp_i) - 1] ** int(power or 1)
            elif factor.startswith("A"):
                col = col * np.asarray(amount, float) ** int(amount_power or 1)
            elif zj is not None:
                col = col * pwo[:, pos[(int(zj), int(zk))]]
        out[:, c] = col
    return out, blk


def sketch_weights(size: int, salt: int) -> np.ndarray:
    """Fixed pseudo-random weights used to compare large arrays by sketch."""
    return np.random.default_rng([size, salt]).uniform(0.5, 1.5, size)


def sketch(X) -> dict:
    """Row and column sketches of a matrix: X w_p and w_n X."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    wn, wp = sketch_weights(n, 1), sketch_weights(p, 2)
    return {"rows": X @ wp, "cols": wn @ X,
            "row_scale": np.abs(X) @ wp, "col_scale": wn @ np.abs(X)}


def vector_sketch(v) -> tuple[float, float]:
    v = np.asarray(v, dtype=float)
    w = sketch_weights(v.size, 3)
    return float(w @ v), float(w @ np.abs(v))


class Analysis:
    """Rank, inverse of X'X and log det from the equilibrated matrix."""

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        self.X = X
        self.n, self.p = X.shape
        norms = np.linalg.norm(X, axis=0)
        norms[norms == 0] = 1.0  # a zero column stays zero: rank drops
        self.norms = norms
        U, s, Vt = np.linalg.svd(X / norms, full_matrices=False)
        tol = s.max() * max(self.n, self.p) * np.finfo(float).eps
        self.rank = int(np.sum(s > tol))
        self.full_rank = self.rank == self.p
        self.cond = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
        if self.full_rank:
            inv_s = (Vt.T / s ** 2) @ Vt
            self.inv = inv_s / np.outer(norms, norms)
            self.logdet = float(2 * np.sum(np.log(s)) + 2 * np.sum(np.log(norms)))

    def point_variances(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        return np.einsum("ij,jk,ik->i", rows, self.inv, rows)


def power(se, df: int, sigma: float = 1.0, alpha: float = 0.05,
          effect_sd: float = 2.0) -> np.ndarray:
    """Two-sided noncentral-t power for coefficients of size effect_sd*sigma."""
    from scipy import stats  # only checks need scipy; keep it out of set-up
    tcrit = stats.t.ppf(1.0 - alpha / 2.0, df)
    ncp = effect_sd * sigma / np.asarray(se, dtype=float)
    hi = stats.nct.sf(tcrit, df, ncp)
    lo = stats.nct.cdf(-tcrit, df, ncp)
    return hi + np.where(np.isfinite(lo), lo, 0.0)


def column_r2(columns, X, inv) -> np.ndarray:
    centered = "1" in columns
    out = np.empty(len(columns))
    for j, name in enumerate(columns):
        col = X[:, j]
        t = col - col.mean() if centered and name != "1" else col
        tss = float(t @ t)
        out[j] = 1.0 - (1.0 / inv[j, j]) / tss if tss > 1e-300 else math.nan
    return out


def criteria(columns, an: Analysis) -> dict:
    """Reference of oamix's criteria report on the design's own rows."""
    pv = an.point_variances(an.X)
    se = np.sqrt(np.diag(an.inv))
    df = an.n - an.p
    return {
        "log_det_xtx": an.logdet,
        "log_d_criterion": an.logdet / an.p - math.log(an.n),
        "a_criterion": float(np.trace(an.inv)),
        "max_pv": float(pv.max()), "avg_pv": float(pv.mean()),
        "g_efficiency": 100.0 * an.p / (an.n * float(pv.max())),
        "se": se, "r_squared": column_r2(columns, an.X, an.inv),
        "power": power(se, df) if df > 0 else np.full(an.p, math.nan),
    }


def ols(an: Analysis, y) -> dict:
    """Least squares on the equilibrated matrix."""
    y = np.asarray(y, dtype=float)
    Xs = an.X / an.norms
    coef, *_ = np.linalg.lstsq(Xs, y, rcond=None)
    beta = coef / an.norms
    fitted = an.X @ beta
    resid = y - fitted
    df = an.n - an.p
    rss = float(resid @ resid)
    sigma = math.sqrt(rss / df)
    ones = np.ones(an.n)
    c1, *_ = np.linalg.lstsq(Xs, ones, rcond=None)
    if np.max(np.abs(Xs @ c1 - ones)) <= 1e-8:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    return {"beta": beta, "fitted": fitted, "sigma_hat": sigma,
            "se": sigma * np.sqrt(np.diag(an.inv)), "df": df,
            "r_squared": 1.0 - rss / tss if tss > 0 else 1.0}


def block_codes(X, columns, blocks) -> dict:
    """Distinct block-column rows seen in each block: {block: [code, ...]}."""
    X = np.asarray(X, dtype=float)
    idx = [j for j, name in enumerate(columns) if is_block_column(name)]
    blocks = np.asarray(blocks)
    return {int(b): sorted({tuple(r) for r in X[blocks == b][:, idx]})
            for b in np.unique(blocks)} if idx else {}


def check_block_codes(codes: dict) -> list[str]:
    """Each block needs one code, and different blocks different codes."""
    for b, seen in codes.items():
        if len(seen) != 1:
            return [f"block {b} has {len(seen)} different block codes"]
    if len({seen[0] for seen in codes.values()}) != len(codes):
        return ["blocks share a block code: " + ", ".join(
            f"{b}: {seen[0]}" for b, seen in sorted(codes.items()))]
    return []


def fill_block_columns(X_ref, columns, blocks, codes: dict) -> np.ndarray:
    """Put each block's (single) code into the NaN block columns."""
    X = np.array(X_ref, dtype=float)
    idx = [j for j, name in enumerate(columns) if is_block_column(name)]
    blocks = np.asarray(blocks)
    for b, seen in codes.items():
        X[np.ix_(blocks == b, idx)] = seen[0]
    return X


def block_sums(X, blocks) -> np.ndarray:
    """(n_blocks, p) per-block column sums, blocks labelled 1..k."""
    X = np.asarray(X, dtype=float)
    blocks = np.asarray(blocks)
    return np.array([X[blocks == b].sum(axis=0)
                     for b in range(1, int(blocks.max()) + 1)])


def ks_distance(a, b) -> float:
    a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_limit(n1: int, n2: int, alpha: float = KS_ALPHA) -> float:
    """Two-sample KS critical distance at level alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt(
        (n1 + n2) / (n1 * n2))


def fds_sample(columns, an: Analysis, m: int, kind: str, levels,
               use_amount: bool, n: int, rng) -> np.ndarray:
    """Sorted prediction variances at n points of the documented FDS
    distribution: a uniform simplex direction, a total uniform over the
    design's amount levels (when the model uses one), an addition order
    uniform over all m! orders, and a fair two-level block."""
    e = rng.standard_exponential((n, m))
    x = e / e.sum(axis=1, keepdims=True)
    amount = np.full(n, np.nan)
    if use_amount:
        amount = np.asarray(levels, float)[rng.integers(len(levels), size=n)]
    values = x * amount[:, None] if kind == "amount" else x
    order = np.argsort(rng.random((n, m)), axis=1)
    position = np.argsort(order, axis=1)
    z = np.column_stack([np.where(position[:, j - 1] < position[:, k - 1],
                                  1.0, -1.0) for j, k in pairs(m)])
    rows, blk = term_matrix(columns, values, z, amount)
    if len(blk) > 1:
        raise ValueError("the FDS reference draws two blocks only")
    if blk:
        rows[:, blk[0]] = np.where(rng.integers(2, size=n) == 0, -1.0, 1.0)
    return np.sort(an.point_variances(rows))


# ---------------------------------------------------------------- checks

def _close(problems, what, got, want, rtol=RTOL, scale=None):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape} != {want.shape}")
        return
    both_nan = np.isnan(got) & np.isnan(want)
    ref = np.abs(want) if scale is None else np.asarray(scale, float)
    bad = ~both_nan & ~(np.abs(got - want) <= rtol * ref + 1e-300)
    if np.any(bad):
        i = np.flatnonzero(bad.ravel())[0]
        problems.append(f"{what}: got {got.ravel()[i]!r}, "
                        f"reference {want.ravel()[i]!r}")


def check_matrix(record: dict, X_ref) -> list[str]:
    """Program matrix sketch against the reference matrix (non-block
    columns only; block columns are left NaN in X_ref)."""
    problems = []
    keep = ~np.isnan(X_ref[0]) if len(X_ref) else np.ones(0, bool)
    ref = sketch(X_ref[:, keep])
    for key in ("rows", "cols"):
        _close(problems, f"model matrix {key} sketch", record[key], ref[key],
               SKETCH_RTOL, ref[f"{key[:3]}_scale"])
    return problems


def check_criteria(record: dict, columns, an: Analysis) -> list[str]:
    ref = criteria(columns, an)
    problems = []
    with np.errstate(divide="ignore"):
        _close(problems, "log det_xtx", math.log(abs(record["det_xtx"]))
               if record["det_xtx"] else -math.inf, ref["log_det_xtx"],
               scale=max(1.0, abs(ref["log_det_xtx"])))
        _close(problems, "log d_criterion", math.log(record["d_criterion"])
               if record["d_criterion"] > 0 else -math.inf,
               ref["log_d_criterion"], scale=max(1.0, abs(ref["log_d_criterion"])))
    for key in ("a_criterion", "max_pv", "avg_pv", "g_efficiency", "se"):
        _close(problems, key, record[key], ref[key])
    for key in ("r_squared", "power"):  # shares in [0, 1]: absolute
        _close(problems, key, record[key], ref[key], scale=1.0)
    return problems


def check_power(record: dict, columns, an: Analysis) -> list[str]:
    se = np.sqrt(np.diag(an.inv))
    problems = []
    _close(problems, "power se", record["se"], se)
    _close(problems, "power", record["power"], power(se, an.n - an.p),
           scale=1.0)
    _close(problems, "term r_squared", record["r_squared"],
           column_r2(columns, an.X, an.inv), scale=1.0)
    return problems


def check_inverse(inv, an: Analysis) -> list[str]:
    """An inverse of X'X, compared in the equilibrated scale."""
    problems = []
    D = np.outer(an.norms, an.norms)
    ref = an.inv * D
    _close(problems, "info inverse", np.asarray(inv) * D, ref,
           scale=np.full(ref.shape, np.max(np.abs(ref))))
    return problems


def check_fit(record: dict, an: Analysis, y) -> list[str]:
    """Coefficients (equilibrated scale), se, sigma, R^2 and fitted values."""
    ref = ols(an, y)
    problems = []
    got = np.asarray(record["estimates"]) * an.norms
    want = ref["beta"] * an.norms
    _close(problems, "estimates", got, want,
           scale=np.full(want.shape, max(np.max(np.abs(want)), 1e-300)))
    _close(problems, "fit se", record["se"], ref["se"])
    _close(problems, "sigma_hat", record["sigma_hat"], ref["sigma_hat"])
    _close(problems, "fit r_squared", record["r_squared"], ref["r_squared"],
           scale=1.0)
    if record["df"] != ref["df"]:
        problems.append(f"df {record['df']} != {ref['df']}")
    if "fitted" in record:
        s, scale = vector_sketch(ref["fitted"])
        _close(problems, "fitted sketch", record["fitted"], s, scale=scale)
    return problems


def check_predict(record: dict, an: Analysis, fit_ref: dict, X_new) -> list[str]:
    """Sketches of predicted values and their variances at the rows X_new."""
    values = np.asarray(X_new) @ fit_ref["beta"]
    var = fit_ref["sigma_hat"] ** 2 * an.point_variances(X_new)
    problems = []
    for key, want in (("predicted values", values),
                      ("prediction variances", var)):
        s, scale = vector_sketch(want)
        _close(problems, key, record[key], s, scale=scale)
    return problems


def check_blocking(record: dict, X_ref, columns, blocks, tol: float) -> list[str]:
    """Per-block column sums and the pass/fail verdict of a blocking check.

    Integer-valued ordering and interaction columns must balance exactly,
    the rest within tol. A term whose discrepancy lies within BLOCK_EDGE of
    its tolerance may go either way (float summation order).
    """
    sums = block_sums(X_ref, blocks)
    problems = []
    failing = undecided = False
    for term, got in record["conditions"]:
        want = sums[:, list(columns).index(term)]
        edge = BLOCK_EDGE * max(1.0, float(np.max(np.abs(want))))
        _close(problems, f"block sums of {term}", got, want,
               scale=np.full(want.shape, edge / BLOCK_EDGE))
        use_tol = 0.0 if term.startswith("z") or "*z" in term else tol
        disc = float(want.max() - want.min())
        failing |= disc > use_tol + edge
        undecided |= abs(disc - use_tol) <= edge
    if failing and record["passed"]:
        problems.append("blocking check passed a design that is not "
                        "orthogonally blocked")
    if not failing and not undecided and not record["passed"]:
        problems.append("blocking check failed an orthogonally blocked design")
    return problems


def run_row(values, pwo, block, amount) -> tuple:
    """One run as plain Python numbers, for comparing designs row by row."""
    return (tuple(float(v) for v in values), tuple(int(z) for z in pwo),
            int(block), float(amount))


def expansion_rows(values, block, amount) -> list[tuple]:
    """Rows (values, pwo, block, amount) of the order-of-addition expansion:
    one row per distinct addition order of each run's positive support."""
    rows = []
    for vals, b, a in zip(np.asarray(values, float), block, amount):
        m = len(vals)
        support = [i + 1 for i in range(m) if vals[i] > 0]
        seen = set()
        for order in itertools.permutations(support):
            pos = {c: i for i, c in enumerate(order)}
            seen.add(tuple(0 if j not in pos or k not in pos
                           else (1 if pos[j] < pos[k] else -1)
                           for j, k in pairs(m)))
        rows += [run_row(vals, z, b, a) for z in seen]
    return rows
