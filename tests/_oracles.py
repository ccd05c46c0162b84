"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own linear-algebra kernel so that
agreement between the two is evidence, not tautology; direct_factor is the
kernel's recipe with one Householder QR call over the whole matrix in
place of the kernel's CholeskyQR2 for tall matrices. The per-run design
oracles (expansion, CSV writing, structural validation) loop over Run
objects one at a time, the way the
library did before designs were held as columns. The design-file reader
converts one cell at a time with float(), the way the library did before
it read files with np.loadtxt, and design_csv_per_row is the columnar
writer before it joined the run number in as a cell. The FDS oracle is
the sampler's per-sample loop; it shares the library's model rows and
inverse, so it checks the sampler alone. The blocking oracle sums lists of
the built matrix's columns per block, the way the check did before it read
its column buffer in place. The PWO oracles
(pwo_from_run, listed_orderings) encode one pair at a time with Python
loops and share no code with the library's encoder in oamix.pwo.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator

import numpy as np

from oamix.core import (AMOUNT_SUM_TOL, AS_PRINTED_AMOUNT_TOL,
                        AS_PRINTED_SUM_TOL, FAMILIES, PROPORTION_SUM_TOL,
                        BlockedDesign, ModelSpec, Run, Violation,
                        pair_indices, validate_columns)
from oamix.errors import (EmptyDesign, EmptySupport, InvalidDesign,
                          InvalidPermutation, SchemaError, SingularMatrix,
                          SupportMismatch)
from oamix.evaluate import _CHUNK, _MASK64, FDSCurve
from oamix.linalg import _point_variances
from oamix.modelmat import build_model_matrix, model_rows
from oamix.serialize import _INT8_CELLS, _formatted, _header, fmt_num


def _positions(perm) -> dict[int, int]:
    order = tuple(perm)
    pos = {e: i for i, e in enumerate(order)}
    if len(pos) != len(order):
        raise InvalidPermutation(f"duplicate elements in {order}")
    return pos


def pwo_from_run(values, perm) -> tuple[int, ...]:
    """PWO vector of an ordering over a run's support.

    Pairs touching an absent component get 0; support pairs get +/-1 by
    precedence in perm. perm must cover exactly the positive components.
    """
    m = len(values)
    support = {i for i in range(1, m + 1) if values[i - 1] > 0}
    pos = _positions(perm)
    if set(pos) != support:
        raise SupportMismatch(
            f"ordering {tuple(perm)} does not match support {sorted(support)}")
    out = []
    for j, k in pair_indices(m):
        if j not in support or k not in support:
            out.append(0)
        else:
            out.append(1 if pos[j] < pos[k] else -1)
    return tuple(out)


def listed_orderings(values) -> tuple[tuple[int, ...], ...]:
    """A run's PWO vectors in listing order: the support relabelled 1..s by
    increasing value (ties by index), the orderings in descending
    lexicographic order of their PWO vectors over those labels."""
    support = [i for i in range(1, len(values) + 1) if values[i - 1] > 0]
    if not support:
        raise EmptySupport("all component values are zero")
    by_value = sorted(support, key=lambda i: (values[i - 1], i))
    s = len(by_value)
    ranked = sorted(itertools.permutations(range(1, s + 1)),
                    key=lambda p: pwo_from_run((1.0,) * s, p), reverse=True)
    return tuple(pwo_from_run(values, [by_value[r - 1] for r in p])
                 for p in ranked)


def expand_runs(runs) -> list[Run]:
    """Each run replaced by one run per addition order, in
    listed_orderings order."""
    return [Run(r.values, vec, r.block, r.amount)
            for r in runs for vec in listed_orderings(r.values)]


def design_csv(m: int, kind: str, runs) -> str:
    """The design file, written one run and one cell at a time; runs hold
    a total on every run or on none."""
    with_amount = any(r.amount is not None for r in runs)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(_header(m, kind, with_amount))
    for i, run in enumerate(runs, start=1):
        row = [str(i)]
        row += [fmt_num(v) for v in run.values]
        row += [str(z) for z in run.pwo]
        row.append(str(run.block))
        if with_amount:
            row.append(fmt_num(run.amount))
        w.writerow(row)
    return out.getvalue()


def design_csv_per_row(design: BlockedDesign) -> str:
    """The design file as the columnar writer first wrote it: every cell
    formatted per column, then one f-string per row for the run number."""
    with_amount = not np.isnan(design.amount).all()
    header = ",".join(_header(design.m, design.kind, with_amount)) + "\n"
    columns = [_formatted(design.values, fmt_num), _INT8_CELLS[design.pwo],
               _formatted(design.block, str)[:, None]]
    if with_amount:
        columns.append(_formatted(design.amount, fmt_num)[:, None])
    rows = map(",".join, np.hstack(columns).tolist())
    return header + "".join(f"{i},{row}\n" for i, row in enumerate(rows, 1))


def _integer(cell: str) -> int:
    v = float(cell)
    if not v.is_integer():
        raise ValueError(f"not an integer: {cell.strip()!r}")
    return int(v)


def _refuse_first_bad_line(data, m: int, npairs: int, with_amount: bool):
    width = 1 + m + npairs + 1 + with_amount
    for lineno, row in enumerate(data, start=2):
        if len(row) != width:
            raise SchemaError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            for cell in row[1:1 + m]:
                float(cell)
            for cell in row[1 + m:2 + m + npairs]:
                _integer(cell)
            if with_amount:
                float(row[-1])
        except ValueError as e:
            raise SchemaError(f"line {lineno}: {e}") from None


def parse_design_csv_per_cell(text: str) -> BlockedDesign:
    """The design-file reader: csv.reader over the whole file, one float()
    per cell; a failed check scans for the first bad line."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise SchemaError("empty file: no header row")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "run":
        raise SchemaError(f"first column must be 'run', got {header[:1]}")
    prefix = header[1][:1] if len(header) > 1 else ""
    m = 0
    while 1 + m < len(header) and header[1 + m] == f"{prefix}{m + 1}":
        m += 1
    if prefix not in ("x", "a") or m < 2:
        raise SchemaError(
            f"expected component columns x1..xm or a1..am, got {header[1:3]}")
    kind = "amount" if prefix == "a" else "proportion"
    with_amount = header[-1] == "A"
    expected = _header(m, kind, with_amount)
    if header != expected:
        raise SchemaError(f"expected header {','.join(expected)}, "
                          f"got {','.join(header)}")
    if kind == "amount" and not with_amount:
        raise SchemaError("amount designs require a trailing 'A' column")

    data = rows[1:]
    if not data:
        raise EmptyDesign("design file has a header but no data rows")
    npairs = len(pair_indices(m))
    k = m + npairs + 1 + with_amount
    try:
        if set(map(len, data)) != {len(header)}:
            raise ValueError
        cells = np.fromiter(map(float, itertools.chain.from_iterable(
            map(operator.itemgetter(slice(1, 1 + k)), data))),
            dtype=float, count=len(data) * k)
        F = cells.reshape(len(data), k)
        integral = F[:, m:m + npairs + 1]
        if not (np.isfinite(integral)
                & (np.floor(integral) == integral)).all():
            raise ValueError
    except ValueError:
        _refuse_first_bad_line(data, m, npairs, with_amount)
        raise
    V, Z, B = F[:, :m], F[:, m:m + npairs], F[:, m + npairs]
    amount = F[:, -1] if with_amount else np.full(len(data), math.nan)
    n_blocks = min(int(B.max()), len(data))
    violations = validate_columns(m, kind, n_blocks, True, V, Z, B, amount,
                                  with_amount)
    if violations:
        raise InvalidDesign(violations)
    return BlockedDesign.from_arrays(m, kind, V, Z, B, amount, n_blocks,
                                     as_printed=True)


def run_violations(m: int, kind: str, runs, n_blocks: int,
                   as_printed: bool = False) -> list[Violation]:
    """Every structural rule but the support-pair ones (pwo_partial,
    pwo_cyclic), checked run by run. A non-finite amount is reported once,
    as non_finite_value, and not compared with the value sum."""
    out: list[Violation] = []
    npairs = len(pair_indices(m))
    pairs = pair_indices(m)
    sum_tol = AS_PRINTED_SUM_TOL if as_printed else PROPORTION_SUM_TOL
    amount_tol = AS_PRINTED_AMOUNT_TOL if as_printed else AMOUNT_SUM_TOL

    if m < 2:
        out.append(Violation(None, "component_count",
                             f"m must be >= 2, got {m}"))
    if kind not in ("proportion", "amount"):
        out.append(Violation(None, "kind", f"unknown design kind {kind!r}"))
    if not runs:
        out.append(Violation(None, "empty_design", "design has no runs"))

    for idx, run in enumerate(runs):
        if len(run.values) != m:
            out.append(Violation(idx, "values_length",
                                 f"expected {m} values, got {len(run.values)}"))
            continue
        for i, v in enumerate(run.values, start=1):
            if not math.isfinite(v):
                out.append(Violation(idx, "non_finite_value",
                                     f"component {i} is {v}"))
            elif v < 0:
                out.append(Violation(idx, "negative_value",
                                     f"component {i} is negative ({v})"))
        if run.amount is not None and not math.isfinite(run.amount):
            out.append(Violation(idx, "non_finite_value",
                                 f"amount is {run.amount}"))
        if len(run.pwo) != npairs:
            out.append(Violation(idx, "pwo_length",
                                 f"expected {npairs} pwo entries, "
                                 f"got {len(run.pwo)}"))
        else:
            for (j, k), z in zip(pairs, run.pwo):
                if z not in (-1, 0, 1):
                    out.append(Violation(idx, "pwo_entry_range",
                                         f"z{j}{k} = {z} not in {{-1,0,+1}}"))
                elif z != 0 and not (run.values[j - 1] > 0
                                     and run.values[k - 1] > 0):
                    c = k if run.values[j - 1] > 0 else j
                    v = run.values[c - 1]
                    out.append(Violation(
                        idx, "pwo_nonzero_for_zero_component",
                        f"z{j}{k} = {z:+d} but component {c} is "
                        + ("0" if v == 0 else f"not positive ({v})")))
        if kind == "proportion":
            s = sum(run.values)
            if abs(s - 1.0) > sum_tol:
                out.append(Violation(idx, "proportion_sum",
                                     f"values sum to {s}, expected 1"))
        elif kind == "amount":
            if run.amount is None:
                out.append(Violation(idx, "amount_mismatch",
                                     "amount kind requires a total amount"))
            elif math.isfinite(run.amount):
                s = sum(run.values)
                if abs(run.amount - s) > amount_tol * abs(run.amount):
                    out.append(Violation(
                        idx, "amount_mismatch",
                        f"amount {run.amount} != value sum {s}"))
                if run.amount < 0:
                    out.append(Violation(idx, "negative_amount",
                                         f"amount {run.amount} < 0"))
        if not (1 <= run.block <= n_blocks):
            out.append(Violation(idx, "block_label_range",
                                 f"block {run.block} outside 1..{n_blocks}"))

    seen_blocks = {r.block for r in runs}
    for b in range(1, n_blocks + 1):
        if b not in seen_blocks:
            out.append(Violation(None, "empty_block", f"block {b} has no runs"))
    return out


def fsum_block_sums(design: BlockedDesign, spec) -> list[tuple[float, ...]]:
    """Per non-block model column, math.fsum of its entries in each block,
    summed from per-block lists of the columns of build_model_matrix."""
    X = build_model_matrix(design, ModelSpec(
        spec.family, spec.include_pwo, spec.interaction_terms))
    by_block = [X.data[design.block == b].T.tolist()
                for b in range(1, design.n_blocks + 1)]
    return [tuple(math.fsum(cols[j]) for cols in by_block)
            for j in range(X.p)]


def direct_factor(X) -> tuple[np.ndarray, np.ndarray]:
    """(s, (X'X)^-1) from one np.linalg.qr of the whole equilibrated
    matrix Xs = X D^-1, s being the singular values of Xs. A rank below p
    raises SingularMatrix naming each column whose prefix of R gains no
    rank above s_max * max(n, p) * eps."""
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0] = 1.0
    R = np.linalg.qr(X / norms, mode="r")
    _, s, Vt = np.linalg.svd(R)
    tol = float(s.max(initial=0.0)) * max(X.shape) * np.finfo(float).eps
    ranks = [0] + [np.linalg.matrix_rank(R[:k, :k], tol=tol)
                   for k in range(1, p + 1)]
    if ranks[-1] < p:
        raise SingularMatrix("rank deficient", offending=tuple(
            k for k in range(p) if ranks[k + 1] == ranks[k]))
    W = Vt.T / s / norms[:, None]
    return s, W @ W.T


def cofactor_det(M: np.ndarray) -> float:
    """Determinant by full cofactor (Laplace) expansion along row 0."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return float(M[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * M[0, j] * cofactor_det(minor)
    return total


def cofactor_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse via the adjugate: inv = adj(M)^T / det(M)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    d = cofactor_det(M)
    cof = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            cof[i, j] = ((-1.0) ** (i + j)) * cofactor_det(minor)
    return cof.T / d


def mc_t_test_power(ncp: float, df: int, alpha: float, n_reps: int,
                    seed: int) -> float:
    """Monte Carlo power of a two-sided t-test under the alternative.

    Draws noncentral-t variates as (Z + ncp)/sqrt(chi2_df/df) and counts
    rejections against the central-t critical value.
    """
    from scipy import stats
    rng = np.random.default_rng(seed)
    tcrit = stats.t.ppf(1 - alpha / 2, df)
    z = rng.standard_normal(n_reps) + ncp
    s = np.sqrt(rng.chisquare(df, n_reps) / df)
    return float(np.mean(np.abs(z / s) > tcrit))


def fds_curve_per_sample(design: BlockedDesign, spec, n_samples: int,
                         seed: int = 0) -> FDSCurve:
    """The FDS curve built one sample at a time: each sample's simplex
    point, amount, PWO row (pwo_from_run) and block are formed inside the
    draw loop, and rows and variances are taken in _CHUNK batches, with
    the library's one variance kernel: this checks the draw stream."""
    f = build_model_matrix(design, spec).factor
    m = design.m
    perms = list(itertools.permutations(range(1, m + 1)))
    levels = design.amount_levels()
    use_amount = (design.kind == "amount"
                  or bool(FAMILIES[spec.family].amount_powers))

    stream = (seed & _MASK64) << 64
    pvs = np.empty(n_samples)
    for lo in range(0, n_samples, _CHUNK):
        k = min(_CHUNK, n_samples - lo)
        values = np.empty((k, m))
        pwo = np.empty((k, len(pair_indices(m))))
        block = np.empty(k, dtype=int)
        amount = np.full(k, math.nan) if use_amount else None
        for i in range(k):
            rng = np.random.default_rng(stream | (lo + i))
            e = rng.standard_exponential(m)
            x = e / e.sum()
            if use_amount:
                amount[i] = levels[int(rng.integers(len(levels)))]
            values[i] = x * amount[i] if design.kind == "amount" else x
            order = perms[int(rng.integers(len(perms)))]
            pwo[i] = pwo_from_run(values[i], order)
            block[i] = 1 + int(rng.integers(2))
        rows = model_rows(spec, m, values, pwo, block, amount)
        pvs[lo:lo + k] = _point_variances(f, rows / f.norms)

    pvs.sort()
    return FDSCurve(variances=tuple(float(v) for v in pvs), seed=seed)


def support_pair_rules(m: int, runs) -> list[tuple[int, str]]:
    """(run index, rule) for pwo_partial and pwo_cyclic over each run's
    positive components; runs with a pwo entry outside {-1, 0, +1} are not
    judged. A fully ordered run is cyclic when no order of its support
    encodes it: every order is tried, not the out-degree rule."""
    out = []
    for idx, run in enumerate(runs):
        if any(z not in (-1, 0, 1) for z in run.pwo):
            continue
        # a component is in the support when it is positive: not 0, not
        # negative and not NaN
        support = {i for i, v in enumerate(run.values, start=1) if v > 0}
        on = [(j in support and k in support) for j, k in pair_indices(m)]
        zs = [z for z, o in zip(run.pwo, on) if o]
        if not any(zs):
            continue  # unordered, or no pairs to order
        if 0 in zs:
            out.append((idx, "pwo_partial"))
            continue
        before = [(j, k) if z > 0 else (k, j)
                  for (j, k), z, o in zip(pair_indices(m), run.pwo, on) if o]
        if not any(all(order.index(a) < order.index(b) for a, b in before)
                   for order in itertools.permutations(sorted(support))):
            out.append((idx, "pwo_cyclic"))
    return out
