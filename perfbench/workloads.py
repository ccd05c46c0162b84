"""The four benchmark workloads: seeded inputs, the timed op, output checks.

A workload builds its inputs from the seed when constructed (part of
set-up), runs op k in the timed loop, reduces the op's output to a small
plain record outside the timed region (slim), and checks each distinct
record after the loop against perfbench.reference (verify). Ops are
closed-loop with one client; op k uses input k modulo the pool size, so a
traced phase can replay the same ops as the untraced one.

verify() returns (cause, message) pairs; an empty list means the op is
correct. Every timed op must pass: the inputs on which the program's two
documented defects (KNOWN_CAUSES) show are kept out of the timed ops and
run by defect_probe() instead, which reports how many of them still show
each defect. A cause in KNOWN_CAUSES is given only to the inputs its defect
can reach; any other problem has the cause "other".
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))

KNOWN_CAUSES = {
    "singular_full_rank":
        "SingularMatrix on a full-rank model matrix: the normal-equations "
        "LU judges pivots against the largest entry of X'X, so raw-basis "
        "eval and fit of ca-projection fail from a_max of about 1.5e3",
    "shared_block_code":
        "designs with 3 blocks get one -1/+1 blk column, so blocks 2 and 3 "
        "share a code",
}
# the smallest a_max at which the known SingularMatrix is accepted (it
# starts at 1.54e3 without interactions and 1.94e3 with them)
SINGULAR_A_MAX = 1.5e3
# steps of the analysis pipeline that work on the raw-basis matrix
RAW_STEPS = ("criteria", "fit", "predict")

MODEL_FAMILIES = {
    "scheffe-q": "scheffe_quadratic", "k-q": "k_quadratic",
    "ma-q": "mixture_amount_quadratic", "ca-q": "component_amount_quadratic",
}

CLI_KINDS = ("catalog", "expand", "check-blocks", "eval", "power", "fit",
             "fds")


def _attempt(fn, *args):
    """Run one pipeline step; an exception is the step's output."""
    try:
        return fn(*args)
    except Exception as e:  # judged by verify(), never swallowed
        return e


def _error(e: Exception) -> dict:
    import oamix.errors
    return {"error": type(e).__name__, "message": str(e),
            "named": isinstance(e, oamix.errors.OamixError)}


def design_arrays(design) -> dict:
    runs = design.runs
    return {
        "m": design.m, "kind": design.kind, "n_blocks": design.n_blocks,
        "values": np.array([r.values for r in runs], dtype=float),
        "pwo": np.array([r.pwo for r in runs], dtype=float).reshape(
            len(runs), design.m * (design.m - 1) // 2),
        "block": np.array([r.block for r in runs]),
        "amount": np.array([math.nan if r.amount is None else r.amount
                            for r in runs]),
    }


def lattice(m: int, q: int) -> list[tuple[float, ...]]:
    """The {m, q} simplex lattice: all points with coordinates in i/q."""
    return [tuple(c / q for c in combo)
            for combo in itertools.product(range(q + 1), repeat=m)
            if sum(combo) == q]


class _Oamix:
    """The oamix modules, looked up by attribute at call time so that a
    traced run sees the tracer's wrappers."""

    def __init__(self):
        import oamix
        import oamix.catalog
        import oamix.core
        import oamix.errors
        import oamix.evaluate
        import oamix.fit
        import oamix.modelmat
        import oamix.serialize
        self.oamix = oamix
        self.cat, self.core = oamix.catalog, oamix.core
        self.ev, self.fit = oamix.evaluate, oamix.fit
        self.mm, self.se = oamix.modelmat, oamix.serialize


def _spec(ox, family, pwo, interactions, m=3):
    terms = ox.mm.default_interaction_subset(m) if interactions else ()
    return ox.core.ModelSpec(MODEL_FAMILIES[family], include_pwo=pwo,
                             interaction_terms=terms, include_block=True)


def _response(arr: dict, rng) -> np.ndarray:
    """A smooth seeded response in the components and orderings plus noise."""
    v = arr["values"]
    scale = np.nanmax(arr["amount"]) if arr["kind"] == "amount" else 1.0
    x = v / scale
    y = 10.0 + x @ rng.uniform(-3, 3, x.shape[1])
    y = y + (x[:, :1] * x[:, 1:2]).ravel() * rng.uniform(-5, 5)
    y = y + arr["pwo"] @ rng.uniform(-0.5, 0.5, arr["pwo"].shape[1])
    return y + rng.normal(0.0, 0.1, len(y))


# ---------------------------------------------------------------- analysis

class _Input:
    def __init__(self, label, design, spec, y, expand=False, pinned=False,
                 a_max=None):
        self.label, self.design, self.spec, self.y = label, design, spec, y
        self.expand, self.pinned = expand, pinned
        self.a_max = a_max  # set for design-small's ca-projection inputs


class _AnalysisWorkload:
    """design-small and design-large: one op is the whole analysis pipeline
    on one design (expand if unexpanded, CSV round trip, blocking check,
    raw criteria, coded power and collinearity, fit and predict)."""

    BLOCK_TOL = 5e-3

    def __init__(self, seed: int, tmp: str):
        self.ox = _Oamix()
        self.pool = self.generate(np.random.default_rng(seed))

    def key(self, k):
        return k % len(self.pool)

    def op(self, k):
        inp = self.pool[k % len(self.pool)]
        ox = self.ox
        out = {}
        design = inp.design
        if inp.expand:
            design = out["expanded"] = _attempt(ox.cat.oofa_expand, design)
            if isinstance(design, Exception):
                return out
        out["written"] = design
        text = out["csv"] = _attempt(ox.se.write_design_csv, design)
        if isinstance(text, Exception):
            return out
        parsed = out["parsed"] = _attempt(ox.se.parse_design_csv, text)
        if isinstance(parsed, Exception):
            return out
        out["blocking"] = _attempt(ox.ev.check_orthogonal_blocking, parsed,
                                   inp.spec, self.BLOCK_TOL)
        X = out["raw"] = _attempt(ox.mm.build_model_matrix, parsed, inp.spec)
        if not isinstance(X, Exception):
            out["criteria"] = _attempt(ox.ev.criteria_report, X)
            fit = out["fit"] = _attempt(ox.fit.ols_fit, X, inp.y)
            if not isinstance(fit, Exception):
                out["predict"] = _attempt(ox.fit.predict, fit, X)
        Xc = out["coded"] = _attempt(ox.mm.coded_model_matrix, parsed,
                                     inp.spec)
        if not isinstance(Xc, Exception):
            out["power"] = _attempt(ox.ev.power_table, Xc)
            out["r2"] = _attempt(ox.ev.term_r_squared, Xc)
        return out

    def slim(self, k, out) -> dict:
        rec = {}
        for step, value in out.items():
            if isinstance(value, Exception):
                rec[step] = _error(value)
        if "expanded" in out and "expanded" not in rec:
            rec["expanded"] = design_arrays(out["expanded"])
        if "parsed" not in out or "parsed" in rec:
            return rec
        written, parsed = design_arrays(out["written"]), design_arrays(out["parsed"])
        rec["design"] = parsed
        rec["roundtrip"] = self._roundtrip(written, parsed)
        blocks = parsed["block"]
        b = out["blocking"]
        if "blocking" not in rec:
            rec["blocking"] = {"passed": b.passed, "conditions": [
                (c.term, np.array(c.block_sums)) for c in b.conditions]}
        for basis in ("raw", "coded"):
            if basis not in rec:
                X = out[basis]
                keep = [j for j, c in enumerate(X.columns)
                        if not ref.is_block_column(c)]
                rec[basis] = {"columns": X.columns,
                              **ref.sketch(X.data[:, keep]),
                              "blk_codes": ref.block_codes(X.data, X.columns,
                                                           blocks)}
        if "criteria" in out and "criteria" not in rec:
            r = out["criteria"]
            rec["criteria"] = {
                "det_xtx": r.det_xtx, "d_criterion": r.d_criterion,
                "a_criterion": r.a_criterion, "max_pv": r.max_pv,
                "avg_pv": r.avg_pv, "g_efficiency": r.g_efficiency,
                "se": np.array([c.se for c in r.columns]),
                "r_squared": np.array([c.r_squared for c in r.columns]),
                "power": np.array([c.power_2sd for c in r.columns])}
        if "power" in out and "power" not in rec and "r2" not in rec:
            cols = out["coded"].columns
            rec["power"] = {
                "se": np.array([out["power"][c].se for c in cols]),
                "power": np.array([out["power"][c].power for c in cols]),
                "r_squared": np.array([out["r2"][c] for c in cols])}
        if "fit" in out and "fit" not in rec:
            f = out["fit"]
            rec["fit"] = {"estimates": np.array(f.estimates),
                          "se": np.array(f.se), "sigma_hat": f.sigma_hat,
                          "df": f.df_residual, "r_squared": f.r_squared,
                          "fitted": ref.vector_sketch(f.fitted)[0],
                          "info_inv": np.array(f.info_inv)}
        if "predict" in out and "predict" not in rec:
            values, variances = out["predict"]
            rec["predict"] = {
                "predicted values": ref.vector_sketch(values)[0],
                "prediction variances": ref.vector_sketch(variances)[0]}
        return rec

    @staticmethod
    def _roundtrip(a: dict, b: dict) -> list[str]:
        """Parsed design against the written one (6 significant digits)."""
        if a["values"].shape != b["values"].shape:
            return [f"round trip changed the shape {a['values'].shape} -> "
                    f"{b['values'].shape}"]
        problems = []
        for key in ("values", "amount"):
            x, y = a[key], b[key]
            if not np.allclose(x, y, rtol=1e-5, atol=0, equal_nan=True):
                problems.append(f"round trip changed {key}")
        for key in ("pwo", "block"):
            if not np.array_equal(a[key], b[key]):
                problems.append(f"round trip changed {key}")
        return problems

    def verify(self, k, rec) -> list[tuple[str, str]]:
        inp = self.pool[k % len(self.pool)]
        return [(cause, f"{inp.label}: {msg}")
                for cause, msg in self._verify(inp, rec)]

    def _verify(self, inp, rec) -> list[tuple[str, str]]:
        found: list[tuple[str, str]] = []

        def other(messages):
            found.extend(("other", msg) for msg in messages)

        many_blocks = inp.design.n_blocks > 2
        singular_known = inp.a_max is not None and inp.a_max >= SINGULAR_A_MAX
        for step in ("expanded", "csv", "parsed", "blocking", "raw", "coded"):
            err = rec.get(step)
            if isinstance(err, dict) and "error" in err:
                if many_blocks and err["named"] and step != "expanded":
                    return []  # a named rejection of a k > 2 design is fine
                other([f"{step} raised {err['error']}: {err['message']}"])
                return found
        if inp.expand:
            src = design_arrays(inp.design)
            got = rec["expanded"]
            want = sorted(map(repr, ref.expansion_rows(
                src["values"], src["block"], src["amount"])))
            have = sorted(map(repr, map(ref.run_row, got["values"], got["pwo"],
                                        got["block"], got["amount"])))
            if have != want:
                other(["oofa_expand rows differ from the reference expansion"])
        other(rec["roundtrip"])
        d = rec["design"]
        blocks = d["block"]
        analyses = {}
        for basis in ("raw", "coded"):
            r = rec[basis]
            X_ref, _ = ref.term_matrix(r["columns"], ref.basis_components(
                d, basis == "coded"), d["pwo"], d["amount"])
            other(ref.check_matrix(r, X_ref))
            code_problems = ref.check_block_codes(r["blk_codes"])
            shared = bool(code_problems) and code_problems[0].startswith(
                "blocks share")
            if shared and many_blocks:
                found.append(("shared_block_code", code_problems[0]))
            else:
                other(code_problems)
            if code_problems and not shared:
                return found
            X_full = ref.fill_block_columns(X_ref, r["columns"], blocks,
                                            r["blk_codes"])
            analyses[basis] = (r["columns"], ref.Analysis(X_full), X_ref)
        # the blocking check works on the raw matrix without block columns
        columns, _, X_ref = analyses["raw"]
        other(ref.check_blocking(rec["blocking"], X_ref, columns, blocks,
                                 self.BLOCK_TOL))

        def judge(step, an, check):
            res = rec.get(step)
            if res is None:
                return []
            if "error" in res:
                return _judge_error(step, res, an,
                                    singular_known and step in RAW_STEPS)
            if not an.full_rank:
                return [("other", f"{step} returned values for a rank-"
                         f"deficient matrix (rank {an.rank} < p = {an.p})")]
            return [("other", msg) for msg in check(res)]

        raw_cols, raw, _ = analyses["raw"]
        found += judge("criteria", raw, lambda r: ref.check_criteria(
            r, raw_cols, raw) + (_pinned_problems(r) if inp.pinned else []))
        found += judge("fit", raw, lambda r: ref.check_fit(r, raw, inp.y)
                       + ref.check_inverse(r["info_inv"], raw))
        found += judge("predict", raw, lambda r: ref.check_predict(
            r, raw, ref.ols(raw, inp.y), raw.X))
        coded_cols, coded, _ = analyses["coded"]
        found += judge("power", coded, lambda r: ref.check_power(
            r, coded_cols, coded))
        found += judge("r2", coded, lambda r: [])  # checked with power
        return found


def _judge_error(step: str, err: dict, an,
                 singular_known: bool) -> list[tuple[str, str]]:
    """Whether an exception from an analysis step was the right answer;
    singular_known says the input lies where the known SingularMatrix
    defect shows."""
    if err["error"] == "SingularMatrix":
        if not an.full_rank:
            return []
        cause = "singular_full_rank" if singular_known else "other"
        return [(cause, f"{step}: {err['message']}")]
    if err["error"] == "InsufficientDF" and an.n <= an.p:
        return []
    return [("other", f"{step} raised {err['error']}: {err['message']}")]


def _pinned_problems(criteria: dict) -> list[str]:
    """Published values of czitrom-d-oofa under scheffe-q with orderings,
    the default interactions and the block column."""
    problems = []
    if abs(criteria["avg_pv"] - 13 / 24) > 1e-9:
        problems.append(f"avg_pv {criteria['avg_pv']} != 13/24")
    if round(criteria["max_pv"], 3) != 0.922:
        problems.append(f"max_pv {criteria['max_pv']} != 0.922")
    if round(criteria["g_efficiency"], 1) != 58.8:
        problems.append(f"g_efficiency {criteria['g_efficiency']} != 58.8")
    return problems


class DesignSmall(_AnalysisWorkload):
    """m = 3 designs, n <= 36: the four proportion catalog designs (the
    unexpanded two also crossed with three total amounts for ma-q) and
    ca-projection with a_max log-uniform over 1e-2..1e3, half the rounds
    re-blocked into 2 blocks. Every CYCLE consecutive ops hold each template
    under each blocking once, so whole cycles have the same mix for every
    seed; the seed draws a_max, blockings, responses and the order in a
    round. Inputs that reach a known defect (3 blocks, a_max from 1.5e3)
    are left to DefectProbe, so that no timed op fails."""

    POOL = 240
    CYCLE = 40  # two rounds: every template under every blocking
    # (design, family, pwo, interactions, cross with totals)
    TEMPLATES = (
        ("czitrom-d", "scheffe-q", False, False, False),
        ("czitrom-d", "k-q", False, False, False),
        ("czitrom-d", "ma-q", False, False, True),
        ("aggarwal-a", "scheffe-q", False, False, False),
        ("aggarwal-a", "k-q", False, False, False),
        ("aggarwal-a", "ma-q", False, False, True),
        ("czitrom-d-oofa", "scheffe-q", True, True, False),
        ("czitrom-d-oofa", "k-q", True, False, False),
        ("czitrom-d-oofa", "scheffe-q", True, False, False),
        ("aggarwal-a-oofa", "scheffe-q", True, True, False),
        ("aggarwal-a-oofa", "k-q", True, True, False),
        ("aggarwal-a-oofa", "scheffe-q", True, False, False),
    ) + (("ca-projection", "ca-q", True, True, False),
         ("ca-projection", "ca-q", True, False, False)) * 4
    BLOCKINGS = ("catalog", "reblock-2")
    TOTALS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    # log10 range of ca-projection's a_max
    LOG_A_MAX = (-2.0, 3.0)

    def generate(self, rng):
        n_t = len(self.TEMPLATES)
        # round r holds every template once, blocked as BLOCKINGS[r % 2]
        plan = [(self.TEMPLATES[t], self.BLOCKINGS[r % len(self.BLOCKINGS)])
                for r in range(self.POOL // n_t) for t in rng.permutation(n_t)]
        return self.build(plan, rng)

    def build(self, plan, rng) -> list[_Input]:
        """The inputs of plan, a list of (template, blocking)."""
        ox = self.ox
        n_ca = sum(t[0] == "ca-projection" for t, _ in plan)
        # stratified log-uniform a_max, 3 significant digits (the CSV
        # format keeps 6, and products with the lattice levels must fit)
        lo, hi = self.LOG_A_MAX
        u = lo + (hi - lo) * (np.arange(n_ca) + rng.random(n_ca)) / n_ca
        a_maxes = [float(f"{10.0 ** x:.3g}") for x in rng.permutation(u)]
        pool = []
        for (name, family, pwo, inter, totals), blocking in plan:
            a_max = None
            if name == "ca-projection":
                a_max = a_maxes.pop()
                design = ox.cat.component_amount_projection_design(a_max)
                label = f"{name}@{a_max:g}"
            else:
                design = ox.cat.CATALOG[name]()
                label = name
            runs = list(design.runs)
            if totals:
                levels = sorted(rng.choice(self.TOTALS, 3, replace=False))
                runs = [ox.core.Run(r.values, r.pwo, r.block, float(a))
                        for a in levels for r in runs]
            n_blocks = design.n_blocks
            if blocking != "catalog":
                n_blocks = int(blocking[-1])
                order = rng.permutation(len(runs))
                runs = [ox.core.Run(runs[i].values, runs[i].pwo,
                                    1 + j % n_blocks, runs[i].amount)
                        for j, i in enumerate(order)]
            design = ox.core.BlockedDesign(
                m=3, kind=design.kind, runs=tuple(runs), n_blocks=n_blocks,
                as_printed=True)
            spec = _spec(ox, family, pwo, inter)
            y = _response(design_arrays(design), rng)
            pinned = (name == "czitrom-d-oofa" and blocking == "catalog"
                      and family == "scheffe-q" and inter)
            pool.append(_Input(f"{label}/{family}/{blocking}", design, spec,
                               y, pinned=pinned, a_max=a_max))
        return pool


class DefectProbe(DesignSmall):
    """The design-small inputs that reach the program's known defects: the
    twelve catalog templates re-blocked into 3 blocks (shared_block_code)
    and the eight ca-projection templates at a_max log-uniform over
    2e3..1e5 (singular_full_rank), where both variants fail at the commit
    that defined the benchmark. Run once per traced run, untimed."""

    LOG_A_MAX = (math.log10(2e3), 5.0)

    def generate(self, rng):
        return self.build(
            [(t, "catalog" if t[0] == "ca-projection" else "reblock-3")
             for t in self.TEMPLATES], rng)

    @staticmethod
    def reaches(inp) -> str:
        """The known defect an input of the probe is there for."""
        return "shared_block_code" if inp.a_max is None else "singular_full_rank"


def defect_probe(seed: int, tmp: str) -> tuple[dict, list[str]]:
    """Run DefectProbe's inputs once: per known cause, the share of its
    inputs on which the defect still shows, and every problem outside the
    known causes (which makes the run incorrect)."""
    wl = DefectProbe(seed, tmp)
    reached = dict.fromkeys(KNOWN_CAUSES, 0)
    shown = dict.fromkeys(KNOWN_CAUSES, 0)
    problems = []
    for k, inp in enumerate(wl.pool):
        cause = wl.reaches(inp)
        found = wl.verify(k, wl.slim(k, wl.op(k)))
        reached[cause] += 1
        shown[cause] += any(c == cause for c, _ in found)
        problems += [f"defect probe: {msg}" for c, msg in found if c != cause]
    return ({f"defect.{c}": shown[c] / reached[c] for c in KNOWN_CAUSES},
            problems)


class DesignLarge(_AnalysisWorkload):
    """Expanded simplex-lattice designs, m in {5, 6}, n of 210..1632 and
    p of 26..44, in two mirrored blocks. Every round of the pool holds each
    configuration once, in seeded order; the seed draws amounts, a_max, run
    order and responses. The response is seeded noise, so that it needs
    only the expanded run count (s! orders of a run with s components)
    and set-up does no expansion."""

    # (m, q, family); amount designs use q = 4 so that component amounts
    # stay exact in the 6-digit CSV format. An odd count keeps the median
    # op inside one configuration's cluster rather than between two.
    CONFIGS = ((5, 3, "scheffe-q"), (6, 3, "scheffe-q"), (5, 4, "ca-q"),
               (6, 4, "k-q"), (6, 4, "ca-q"))
    ROUNDS = 2
    CYCLE = len(CONFIGS)
    LEVELS = (0.25, 0.5, 1.0)

    def generate(self, rng):
        ox = self.ox
        pool = []
        for _ in range(self.ROUNDS):
            for c in rng.permutation(len(self.CONFIGS)):
                m, q, family = self.CONFIGS[c]
                pts = lattice(m, q)
                pts = [pts[i] for i in rng.permutation(len(pts))]
                amount = family == "ca-q"
                a_max = float(rng.integers(1, 101))
                levels = rng.integers(len(self.LEVELS), size=len(pts))
                runs = []
                for block in (1, 2):
                    for x, lvl in zip(pts, levels):
                        if amount:
                            total = self.LEVELS[lvl] * a_max
                            vals = tuple(v * total for v in x)
                            runs.append(ox.core.Run(vals, (0,) * (m * (m - 1) // 2),
                                                    block, sum(vals)))
                        else:
                            runs.append(ox.core.Run(x, (0,) * (m * (m - 1) // 2),
                                                    block))
                base = ox.core.BlockedDesign(
                    m=m, kind="amount" if amount else "proportion",
                    runs=tuple(runs), n_blocks=2)
                n = 2 * sum(math.factorial(sum(v > 0 for v in x)) for x in pts)
                y = 10.0 + rng.normal(0.0, 1.0, n)
                pool.append(_Input(f"lattice-{m}-{q}/{family}", base,
                                   _spec(ox, family, True, False, m), y,
                                   expand=True))
        return pool


# ---------------------------------------------------------------- fds

def _fds_file_problems(curve, csv_path: str, svg_path: str) -> list[str]:
    """The written curve files hold the curve (stdlib only, no scipy)."""
    problems = []
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["fraction", "variance"]]:
        problems.append(f"fds csv header {rows[:1]}")
    body = rows[1:]
    if len(body) != curve.n_samples or any(
            float(v) != want for (_, v), want in zip(body, curve.variances)):
        problems.append("fds csv does not hold the curve's variances")
    with open(svg_path) as fh:
        svg = fh.read()
    if not (svg.startswith("<svg") and "<polyline" in svg
            and svg.rstrip().endswith("</svg>")):
        problems.append("fds svg is not a complete polyline plot")
    return problems


class _FdsDesign:
    def __init__(self, label, design, spec):
        self.label, self.design, self.spec = label, design, spec
        self.reference = None


def _fds_reference(ox, d: _FdsDesign, n: int):
    """Sorted variances of n points drawn by the reference sampler."""
    if d.reference is None:
        arr = design_arrays(d.design)
        columns = ox.mm.build_model_matrix(d.design, d.spec).columns
        X = ref.design_matrix(arr, columns)
        use_amount = (arr["kind"] == "amount"
                      or d.spec.family.startswith("mixture_amount"))
        levels = sorted({round(a, 12) for a in arr["amount"] if a == a})
        d.reference = ref.fds_sample(
            columns, ref.Analysis(X), arr["m"], arr["kind"], levels,
            use_amount, n, np.random.default_rng([7, len(arr["values"])]))
    return d.reference


class FdsSample:
    """fds_curve at 10000 samples plus write_fds_outputs, cycling three
    designs; design d's j-th curve uses seed (workload seed + j), the way a
    user sweeps --seed."""

    N = 10000
    N_REFERENCE = 20000
    CYCLE = 3
    # evaluate.fds_distinct_ratio pools the first DISTINCT_SEEDS curves of
    # each design, so every run computes it over the same curves
    DISTINCT_SEEDS = 3
    MIN_OPS = DISTINCT_SEEDS * CYCLE

    def __init__(self, seed: int, tmp: str):
        ox = self.ox = _Oamix()
        self.seed, self.tmp = seed, tmp
        base = ox.core.BlockedDesign(
            m=5, kind="proportion", n_blocks=2, runs=tuple(
                ox.core.Run(x, (0,) * 10, b) for b in (1, 2)
                for x in lattice(5, 3)))
        expanded = [ox.core.Run(v, z, b) for v, z, b, _ in ref.expansion_rows(
            *(design_arrays(base)[k] for k in ("values", "block", "amount")))]
        lattice5 = ox.core.BlockedDesign(m=5, kind="proportion", n_blocks=2,
                                         runs=tuple(expanded))
        self.designs = [
            _FdsDesign("czitrom-d-oofa/scheffe-q", ox.cat.czitrom_d_oofa(),
                       _spec(ox, "scheffe-q", True, True)),
            _FdsDesign("ca-projection@100/ca-q",
                       ox.cat.component_amount_projection_design(100.0),
                       _spec(ox, "ca-q", True, True)),
            _FdsDesign("lattice-5-3/scheffe-q", lattice5,
                       _spec(ox, "scheffe-q", True, False, 5)),
        ]

    def key(self, k):
        return k

    def design_of(self, k) -> int:
        return k % len(self.designs)

    def op(self, k):
        d = self.designs[self.design_of(k)]
        seed = self.seed + k // len(self.designs)
        curve = self.ox.ev.fds_curve(d.design, d.spec, self.N, seed)
        paths = self.ox.se.write_fds_outputs(
            curve, os.path.join(self.tmp, f"fds-{k}"))
        return curve, paths, seed

    def slim(self, k, out) -> dict:
        curve, paths, seed = out
        problems = _fds_file_problems(curve, *paths)
        for path in paths:
            os.remove(path)
        return {"variances": np.array(curve.variances), "seed": curve.seed,
                "want_seed": seed, "n_samples": curve.n_samples,
                "fractions": np.array(curve.fractions),
                "median": curve.median(), "maximum": curve.maximum(),
                "file_problems": problems}

    def verify(self, k, rec) -> list[tuple[str, str]]:
        problems = list(rec["file_problems"])
        v = rec["variances"]
        n = self.N
        if rec["n_samples"] != n or v.size != n:
            problems.append(f"{v.size} samples, asked for {n}")
        if rec["seed"] != rec["want_seed"]:
            problems.append(f"seed {rec['seed']} != {rec['want_seed']}")
        if np.any(np.diff(v) < 0):
            problems.append("variances are not sorted")
        fr = rec["fractions"]
        if fr.size != n or not np.allclose(fr, (np.arange(1, n + 1) - 0.5) / n,
                                           rtol=0, atol=1e-12):
            problems.append("fractions are not (i - 0.5)/n")
        if rec["maximum"] != v[-1] or rec["median"] != float(np.median(v)):
            problems.append("median/maximum disagree with the variances")
        d = self.designs[self.design_of(k)]
        sample = _fds_reference(self.ox, d, self.N_REFERENCE)
        dist = ref.ks_distance(v, sample)
        if dist > ref.ks_limit(n, sample.size):
            problems.append(f"KS distance {dist:.4f} to the reference "
                            f"sampler exceeds {ref.ks_limit(n, sample.size):.4f}")
        return [("other", f"{d.label}: {p}") for p in problems]

    def distinct_ratio(self, records: dict) -> float:
        """Distinct variances over variances drawn in the curves of ops
        0 .. MIN_OPS - 1 (seeds seed .. seed + DISTINCT_SEEDS - 1 of each
        design), pooled per design: repeated draws across seeds show here."""
        distinct = drawn = 0
        for d in range(len(self.designs)):
            pooled = np.concatenate([records[k]["variances"]
                                     for k in range(d, self.MIN_OPS,
                                                    len(self.designs))
                                     if k in records])  # crashed ops: none
            distinct += np.unique(pooled).size
            drawn += pooled.size
        return distinct / drawn


# ---------------------------------------------------------------- cli

def _csv_text(arr: dict) -> str:
    """A design file in the CLI's documented layout."""
    m = arr["m"]
    prefix = "a" if arr["kind"] == "amount" else "x"
    with_amount = not np.all(np.isnan(arr["amount"]))
    head = (["run"] + [f"{prefix}{i}" for i in range(1, m + 1)]
            + [f"z{j}{k}" for j, k in ref.pairs(m)] + ["block"]
            + (["A"] if with_amount else []))
    lines = [",".join(head)]
    for i in range(len(arr["values"])):
        row = [str(i + 1)] + [f"{v:.6g}" for v in arr["values"][i]]
        row += [str(int(z)) for z in arr["pwo"][i]] + [str(arr["block"][i])]
        if with_amount:
            row.append(f"{arr['amount'][i]:.6g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _read_design(path: str) -> dict:
    """A design file as arrays (header layout as written by the CLI)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], [r for r in rows[1:] if r]
    m = sum(1 for h in head if h[:1] in "xa" and h[1:].isdigit())
    npairs = m * (m - 1) // 2
    data = np.array([[float(c) if c else math.nan for c in r] for r in body])
    return {"m": m, "kind": "amount" if head[1].startswith("a") else "proportion",
            "values": data[:, 1:1 + m], "pwo": data[:, 1 + m:1 + m + npairs],
            "block": data[:, 1 + m + npairs].astype(int),
            "amount": data[:, -1] if head[-1] == "A" else np.full(len(data), math.nan)}


SCHEFFE_DEFAULT_COLUMNS = ("x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3", "z12",
                           "z13", "z23", "x1*z12", "x1*z13", "x2*z23", "blk")


class CliCold:
    """The README quick-start traffic as fresh processes: one op is one
    `python -m oamix.cli` subprocess, in a fixed cycle that reaches every
    subcommand early; the seed draws the design behind check-blocks, eval,
    power, fit and fds, the response, the swapped runs and the FDS seed."""

    CATALOG_RUNS = {"czitrom-d": 8, "aggarwal-a": 8, "czitrom-d-oofa": 24,
                    "aggarwal-a-oofa": 24, "ca-projection": 36}

    def __init__(self, seed: int, tmp: str):
        ox = self.ox = _Oamix()
        rng = np.random.default_rng(seed)
        self.tmp = tmp
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
        self.spans_dir = None  # set for a traced phase

        def save(name, arr):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(_csv_text(arr))
            return path

        # catalog run order, as in the README: shuffled runs can break the
        # exact-zero block-sum test on float interaction columns
        base = ox.cat.czitrom_d_optimal()
        oofa_name = ("czitrom-d-oofa", "aggarwal-a-oofa")[rng.integers(2)]
        oofa = ox.cat.CATALOG[oofa_name]()
        self.base = design_arrays(base)
        self.oofa = design_arrays(oofa)
        # swap two runs with different blends across the blocks
        b1 = [i for i, r in enumerate(oofa.runs) if r.block == 1]
        b2 = [i for i, r in enumerate(oofa.runs) if r.block == 2]
        pairs = [(i, j) for i in b1 for j in b2
                 if oofa.runs[i].values != oofa.runs[j].values]
        i, j = pairs[rng.integers(len(pairs))]
        self.swapped = {k: v.copy() if isinstance(v, np.ndarray) else v
                        for k, v in self.oofa.items()}
        self.swapped["block"][[i, j]] = self.swapped["block"][[j, i]]
        self.y = _response(self.oofa, rng)
        self.fds_seed = int(rng.integers(0, 2 ** 31))
        paths = {"base": save("base.csv", self.base),
                 "oofa": save("oofa.csv", self.oofa),
                 "swapped": save("swapped.csv", self.swapped)}
        with open(os.path.join(tmp, "y.csv"), "w") as fh:
            fh.write("y\n" + "".join(f"{float(v)!r}\n" for v in self.y))
        paths["y"] = os.path.join(tmp, "y.csv")
        model = ["--model", "scheffe-q"]
        self.cycle = [
            ("catalog", ["catalog", "czitrom-d-oofa", "-o", "{out}.csv"], 0),
            ("expand", ["expand", "-i", paths["base"], "-o", "{out}.csv"], 0),
            ("check-blocks", ["check-blocks", "-i", paths["oofa"], *model,
                              "--json"], 0),
            ("eval", ["eval", "-i", paths["oofa"], *model, "--json"], 0),
            ("power", ["power", "-i", paths["oofa"], *model, "--json"], 0),
            ("fit", ["fit", "-i", paths["oofa"], *model, "--response",
                     paths["y"], "-o", "{out}.csv"], 0),
            ("fds", ["fds", "-i", paths["oofa"], *model, "--samples", "10000",
                     "--seed", str(self.fds_seed), "-o", "{out}"], 0),
            ("check-blocks", ["check-blocks", "-i", paths["swapped"], *model,
                              "--json"], 3),
            ("eval", ["eval", "-i", paths["base"], *model, "--json"], 4),
            ("catalog", ["catalog", "czitrom-d", "-o", "{out}.csv"], 0),
            ("catalog", ["catalog", "aggarwal-a", "-o", "{out}.csv"], 0),
            ("catalog", ["catalog", "aggarwal-a-oofa", "-o", "{out}.csv"], 0),
            ("catalog", ["catalog", "ca-projection", "--a-max", "100", "-o",
                         "{out}.csv"], 0),
        ]
        self.CYCLE = len(self.cycle)
        self._fds = None

    def key(self, k):
        return (self.spans_dir is not None, k)

    def reference(self) -> float:
        """cli-cold's reference: the wall time of a fresh interpreter that
        imports numpy. Its ops run in fresh processes, whose start-up speed
        the worker's in-process reference loop does not follow."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env,
                       capture_output=True, timeout=60, check=True)
        return perf_counter() - t0

    def argv(self, k) -> list[str]:
        out = os.path.join(self.tmp, f"op-{k}-{int(self.spans_dir is not None)}")
        return [a.replace("{out}", out) for a in self.cycle[k % len(self.cycle)][1]]

    def command(self, k) -> list[str]:
        if self.spans_dir is None:
            return [sys.executable, "-m", "oamix.cli", *self.argv(k)]
        return [sys.executable, os.path.join(HERE, "cli_child.py"),
                "--spans", os.path.join(self.spans_dir, f"op-{k}"), "--",
                *self.argv(k)]

    def op(self, k):
        return subprocess.run(self.command(k), env=self.env,
                              capture_output=True, text=True, timeout=120)

    def slim(self, k, proc) -> dict:
        kind, _, want = self.cycle[k % len(self.cycle)]
        rec = {"kind": kind, "argv": self.argv(k), "exit": proc.returncode,
               "want_exit": want, "stdout": proc.stdout,
               "stderr": proc.stderr[-400:]}
        if self.spans_dir is not None:
            rec["spans"] = os.path.join(self.spans_dir, f"op-{k}")
        return rec

    def verify(self, k, rec) -> list[tuple[str, str]]:
        problems = []
        if rec["exit"] != rec["want_exit"]:
            problems.append(f"{' '.join(rec['argv'][:2])}: exit {rec['exit']},"
                            f" expected {rec['want_exit']}: {rec['stderr']}")
        else:
            try:
                problems += getattr(self, "_check_" + rec["kind"].replace(
                    "-", "_"))(rec)
            except (OSError, ValueError, KeyError, IndexError) as e:
                problems.append(f"{rec['kind']}: unreadable output ({e!r})")
        return [("other", p) for p in problems]

    def _out(self, rec) -> str:
        argv = rec["argv"]
        return argv[argv.index("-o") + 1]

    def _check_catalog(self, rec):
        name = rec["argv"][1]
        arr = _read_design(self._out(rec))
        problems = []
        if len(arr["values"]) != self.CATALOG_RUNS[name]:
            problems.append(f"catalog {name}: {len(arr['values'])} runs")
        if set(arr["block"]) != {1, 2}:
            problems.append(f"catalog {name}: blocks {set(arr['block'])}")
        if arr["kind"] == "amount":
            if not np.allclose(arr["values"].sum(1), arr["amount"], rtol=1e-9):
                problems.append(f"catalog {name}: amounts are not run totals")
            if np.max(arr["amount"]) != 100.0:
                problems.append(f"catalog {name}: largest total "
                                f"{np.max(arr['amount'])} != a_max 100")
        elif not np.allclose(arr["values"].sum(1), 1.0, atol=5e-3):
            problems.append(f"catalog {name}: proportions do not sum to 1")
        if name == "czitrom-d-oofa":
            an = ref.Analysis(ref.design_matrix(arr, SCHEFFE_DEFAULT_COLUMNS))
            crit = ref.criteria(SCHEFFE_DEFAULT_COLUMNS, an)
            problems += _pinned_problems(crit)
        return problems

    def _check_expand(self, rec):
        got = _read_design(self._out(rec))
        want = sorted(map(repr, ref.expansion_rows(
            self.base["values"], self.base["block"], self.base["amount"])))
        have = sorted(map(repr, map(ref.run_row, got["values"], got["pwo"],
                                    got["block"], got["amount"])))
        return [] if have == want else ["expand: runs differ from the "
                                        "reference expansion"]

    def _check_check_blocks(self, rec):
        obj = json.loads(rec["stdout"])
        arr = self.oofa if rec["want_exit"] == 0 else self.swapped
        conds = [(c["term"], np.array(c["block_sums"]))
                 for c in obj["conditions"]]
        columns = [t for t, _ in conds]
        X, _ = ref.term_matrix(columns, arr["values"], arr["pwo"], arr["amount"])
        return ref.check_blocking({"passed": obj["passed"], "conditions": conds},
                                  X, columns, arr["block"], obj["tol"])

    def _check_eval(self, rec):
        obj = json.loads(rec["stdout"]) if rec["want_exit"] == 0 else None
        if obj is None:  # expected exit 4: the matrix must be rank deficient
            an = ref.Analysis(ref.design_matrix(self.base,
                                                SCHEFFE_DEFAULT_COLUMNS))
            return [] if not an.full_rank else [
                "eval exit 4 on a full-rank design"]
        columns = [c["name"] for c in obj["columns"]]
        an = ref.Analysis(ref.design_matrix(self.oofa, columns))
        record = {k: obj[k] for k in ("det_xtx", "d_criterion", "a_criterion",
                                      "max_pv", "avg_pv", "g_efficiency")}
        for key, field in (("se", "se"), ("r_squared", "r_squared"),
                           ("power", "power_2sd")):
            record[key] = np.array([math.nan if c[field] is None else c[field]
                                    for c in obj["columns"]], dtype=float)
        return ref.check_criteria(record, columns, an)

    def _check_power(self, rec):
        obj = json.loads(rec["stdout"])
        columns = [c["name"] for c in obj["columns"]]
        an = ref.Analysis(ref.design_matrix(self.oofa, columns, coded=True))
        record = {key: np.array([math.nan if c[key] is None else c[key]
                                 for c in obj["columns"]], dtype=float)
                  for key in ("se", "power", "r_squared")}
        return ref.check_power(record, columns, an)

    def _check_fit(self, rec):
        with open(self._out(rec), newline="") as fh:
            rows = list(csv.reader(fh))
        columns = [r[0] for r in rows[1:]]
        an = ref.Analysis(ref.design_matrix(self.oofa, columns))
        want = ref.ols(an, self.y)
        got = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        problems = []
        # the coefficient file keeps 6 significant digits
        ref._close(problems, "fit estimates", got[:, 0], want["beta"], rtol=1e-5)
        ref._close(problems, "fit se", got[:, 1], want["se"], rtol=1e-5)
        return problems

    def _check_fds(self, rec):
        base = self._out(rec)
        with open(base + ".csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        v = np.array([float(r[1]) for r in rows])
        problems = []
        if v.size != 10000 or np.any(np.diff(v) < 0):
            problems.append(f"fds: {v.size} variances or not sorted")
        if f"seed={self.fds_seed}" not in rec["stdout"]:
            problems.append("fds: stdout does not report the seed")
        with open(base + ".svg") as fh:
            if "<polyline" not in fh.read():
                problems.append("fds: svg has no curve")
        if self._fds is None:
            fd = _FdsDesign("cli", _design_from_arrays(self.ox, self.oofa),
                            _spec(self.ox, "scheffe-q", True, True))
            self._fds = _fds_reference(self.ox, fd, 20000)
        dist = ref.ks_distance(v, self._fds)
        if dist > ref.ks_limit(v.size, self._fds.size):
            problems.append(f"fds: KS distance {dist:.4f} to the reference")
        return problems


def _design_from_arrays(ox, arr):
    runs = tuple(ox.core.Run(tuple(v), tuple(int(z) for z in p), int(b),
                             None if a != a else float(a))
                 for v, p, b, a in zip(arr["values"], arr["pwo"], arr["block"],
                                       arr["amount"]))
    return ox.core.BlockedDesign(m=arr["m"], kind=arr["kind"], runs=runs,
                                 n_blocks=int(arr["block"].max()),
                                 as_printed=True)


def cli_probe(tmp: str, seed: int) -> dict:
    """Fresh-process start-up figures: python + numpy alone (floor), import
    oamix, and each subcommand once through cli_child (wall and in-process
    cli.main time), all untraced. Medians of three for the imports."""
    wl = CliCold(seed, tmp)
    python = sys.executable

    def wall(cmd):
        t0 = perf_counter()
        subprocess.run(cmd, env=wl.env, capture_output=True, timeout=120,
                       check=False)
        return perf_counter() - t0

    out = {
        "cli.floor_ms": 1e3 * statistics.median(
            wall([python, "-c", "import numpy"]) for _ in range(3)),
        "cli.import_ms": 1e3 * statistics.median(
            wall([python, "-c", "import oamix"]) for _ in range(3)),
    }
    mains = []
    for kind in CLI_KINDS:
        k = next(i for i, c in enumerate(wl.cycle) if c[0] == kind and c[2] == 0)
        report = os.path.join(tmp, f"probe-{kind}.json")
        out[f"cli.{kind}_ms"] = 1e3 * wall(
            [python, os.path.join(HERE, "cli_child.py"), "--report", report,
             "--", *wl.argv(k)])
        with open(report) as fh:
            mains.append(json.load(fh)["main_s"])
    out["cli.main_ms"] = 1e3 * statistics.fmean(mains)
    return out


WORKLOADS = {"cli-cold": CliCold, "fds-sample": FdsSample,
             "design-small": DesignSmall, "design-large": DesignLarge}
