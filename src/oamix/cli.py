"""Command-line interface.

Subcommands: catalog, expand, check-blocks, eval, fds, power, fit.
Exit codes: 0 success (and a passing check), 2 usage error, 3 data or
validation error (including a failing blocking check), 4 numerical error
(singular matrix, no residual degrees of freedom).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import catalog as cat
from .core import (COMPONENT_AMOUNT_LINEAR, COMPONENT_AMOUNT_QUADRATIC,
                   K_QUADRATIC, MIXTURE_AMOUNT_LINEAR,
                   MIXTURE_AMOUNT_QUADRATIC, SCHEFFE_QUADRATIC, ModelSpec)
from .errors import InsufficientDF, OamixError, SchemaError, SingularMatrix

# Each command imports the modules it needs inside its handler, so that a
# fresh process compiles and runs only those: catalog and expand never load
# modelmat, evaluate or fit.

MODEL_FAMILIES = {
    "scheffe-q": SCHEFFE_QUADRATIC,
    "k-q": K_QUADRATIC,
    "ma-l": MIXTURE_AMOUNT_LINEAR,
    "ma-q": MIXTURE_AMOUNT_QUADRATIC,
    "ca-l": COMPONENT_AMOUNT_LINEAR,
    "ca-q": COMPONENT_AMOUNT_QUADRATIC,
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path} is not UTF-8 text: {e}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _resolve_interactions(arg: str, m: int, include_pwo: bool):
    """Interaction list from a CLI argument.

    `default` is the standard 3-component subset (empty when m != 3 or the
    model has no pairwise columns); `none` and `full` as named; otherwise a
    comma list like `1:12,1:13,2:23`. Only `default` yields to --no-pwo:
    ModelSpec refuses any other interaction without pairwise columns.
    """
    from .modelmat import default_interaction_subset, full_interaction_set
    if arg == "none" or (arg == "default" and (m != 3 or not include_pwo)):
        return ()
    if arg == "default":
        return default_interaction_subset(m)
    if arg == "full":
        return full_interaction_set(m)
    terms = []
    for piece in arg.split(","):
        piece = piece.strip()
        try:
            comp, pair = piece.split(":")
            i = int(comp)
            if len(pair) != 2:
                raise ValueError(pair)
            k, l = int(pair[0]), int(pair[1])
        except ValueError:
            raise OamixError(
                f"bad interaction {piece!r}; expected i:jk like 1:12")
        terms.append((i, (k, l)))
    return tuple(terms)


def _design_and_spec(args):
    """The --input design and the ModelSpec of the model options."""
    from .serialize import parse_design_csv
    design = parse_design_csv(_read(args.input))
    interactions = _resolve_interactions(args.interactions, design.m, args.pwo)
    spec = ModelSpec(MODEL_FAMILIES[args.model], include_pwo=args.pwo,
                     interaction_terms=interactions, include_block=args.block)
    return design, spec


def _finite_or_null(obj):
    """obj with every non-finite float as None: strict JSON (RFC 8259) has
    no NaN or Infinity, so a power with no residual degrees of freedom or
    a det_xtx past the float range is written as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _print_json(obj) -> None:
    import json  # only the --json reports load it
    print(json.dumps(_finite_or_null(obj), indent=2, allow_nan=False))


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


def _cmd_catalog(args) -> int:
    from .serialize import write_design_csv
    if args.name == "ca-projection":
        design = cat.CATALOG[args.name](
            1.0 if args.a_max is None else args.a_max)
    elif args.a_max is not None:
        print("error: --a-max applies only to ca-projection", file=sys.stderr)
        return 2
    else:
        design = cat.CATALOG[args.name]()
    _write(args.output, write_design_csv(design))
    print(f"wrote {design.n} runs ({design.n_blocks} blocks) to {args.output}")
    return 0


def _cmd_expand(args) -> int:
    from .serialize import parse_design_csv, write_design_csv
    design = parse_design_csv(_read(args.input))
    expanded = cat.oofa_expand(design)
    _write(args.output, write_design_csv(expanded))
    print(f"expanded {design.n} runs to {expanded.n}; wrote {args.output}")
    return 0


def _cmd_check_blocks(args) -> int:
    from .evaluate import check_orthogonal_blocking
    design, spec = _design_and_spec(args)
    report = check_orthogonal_blocking(design, spec, tol=args.tol)
    if args.json:
        _print_json(dataclasses.asdict(report))
    else:
        print(f"{'condition':<20} {'term':<12} {'discrepancy':>12} "
              f"{'tol':>8}  result")
        for c in report.conditions:
            print(f"{c.condition:<20} {c.term:<12} {c.discrepancy:>12.3e} "
                  f"{c.tol:>8g}  {'ok' if c.ok else 'FAIL'}")
        print(f"blocking check: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 3


def _table_or_nan(v: float) -> str:
    return "   nan" if math.isnan(v) else f"{v:.4f}"


def _cmd_eval(args) -> int:
    from .evaluate import criteria_report
    from .modelmat import build_model_matrix
    from .serialize import parse_design_csv
    design, spec = _design_and_spec(args)
    X = build_model_matrix(design, spec)
    eval_points = None
    if args.eval_points:
        other = parse_design_csv(_read(args.eval_points))
        eval_points = build_model_matrix(other, spec).data
    report = criteria_report(X, eval_points)
    if args.json:
        _print_json(dataclasses.asdict(report))
        return 0
    print(f"n={report.n}  p={report.p}")
    print(f"det_xtx      {report.det_xtx:.6g}")
    print(f"d_criterion  {report.d_criterion:.6f}")
    print(f"a_criterion  {report.a_criterion:.4f}")
    print(f"max_pv       {report.max_pv:.4f}")
    print(f"avg_pv       {report.avg_pv:.6f}")
    print(f"g_efficiency {report.g_efficiency:.1f}%")
    print(f"{'term':<12} {'se':>8} {'r_squared':>10} {'power_2sd':>10}")
    for c in report.columns:
        print(f"{c.name:<12} {c.se:>8.4f} {_table_or_nan(c.r_squared):>10} "
              f"{_table_or_nan(c.power_2sd):>10}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def _cmd_power(args) -> int:
    from .evaluate import CONVENTION_NOTES, power_table, term_r_squared
    from .modelmat import coded_model_matrix
    design, spec = _design_and_spec(args)
    X = coded_model_matrix(design, spec)
    table = power_table(X, alpha=args.alpha, effect_sd=args.effect_sd)
    r2 = term_r_squared(X)
    if args.json:
        obj = {
            "n": X.n, "p": X.p, "df": X.n - X.p,
            "alpha": args.alpha, "effect_sd": args.effect_sd,
            "basis": X.basis,
            "columns": [
                {"name": name, "se": row.se, "r_squared": r2[name],
                 "power": row.power}
                for name, row in table.items()],
            "notes": list(CONVENTION_NOTES),
        }
        _print_json(obj)
        return 0
    print(f"n={X.n}  p={X.p}  df={X.n - X.p}  alpha={args.alpha}  "
          f"effect_sd={args.effect_sd}  basis={X.basis}")
    print(f"{'term':<12} {'se':>8} {'r_squared':>10} {'power':>8}")
    for name, row in table.items():
        print(f"{name:<12} {row.se:>8.4f} {_table_or_nan(r2[name]):>10} "
              f"{row.power:>8.4f}")
    for note in CONVENTION_NOTES:
        print(f"note: {note}")
    return 0


def _cmd_fds(args) -> int:
    from .evaluate import fds_curve
    from .serialize import write_fds_outputs
    design, spec = _design_and_spec(args)
    curve = fds_curve(design, spec, args.samples, args.seed)
    csv_path, svg_path = write_fds_outputs(curve, args.output)
    print(f"samples={curve.n_samples}  seed={curve.seed}  "
          f"sampler={curve.sampler}  median={curve.median():.6f}  "
          f"max={curve.maximum():.6f}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_fit(args) -> int:
    from .fit import ols_fit
    from .modelmat import build_model_matrix
    from .serialize import fmt_num, parse_response_csv
    design, spec = _design_and_spec(args)
    X = build_model_matrix(design, spec)
    y = parse_response_csv(_read(args.response), X.n)
    result = ols_fit(X, y)
    lines = ["term,estimate,se"]
    for name, b, s in zip(result.columns, result.estimates, result.se):
        lines.append(f"{name},{fmt_num(b)},{fmt_num(s)}")
    _write(args.output, "\n".join(lines) + "\n")
    print(f"sigma_hat={result.sigma_hat:.6g}  df={result.df_residual}  "
          f"r_squared={result.r_squared:.4f}")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamix",
        description="Blocked mixture and component-amount designs with "
                    "order-of-addition factors: construction, checking, "
                    "evaluation, and fitting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_opts(p):
        p.add_argument("-i", "--input", required=True,
                       help="design CSV file")
        p.add_argument("--model", required=True,
                       choices=sorted(MODEL_FAMILIES),
                       help="model family")
        p.add_argument("--pwo", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="include pairwise-ordering columns")
        if p.prog != "oamix check-blocks":  # its check reads no block column
            p.add_argument("--block", action=argparse.BooleanOptionalAction,
                           default=True, help="include the block column")
        p.add_argument("--interactions", default="default",
                       help="default | none | full | comma list i:jk "
                            "(e.g. 1:12,1:13,2:23)")

    p = sub.add_parser("catalog", help="write a built-in design to CSV")
    p.add_argument("name", choices=sorted(cat.CATALOG))
    p.add_argument("--a-max", type=float,
                   help="total-amount scale for ca-projection (default 1)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("expand",
                       help="expand an unordered design over addition orders")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("check-blocks",
                       help="verify orthogonal blocking (exit 3 on failure)")
    add_model_opts(p)
    p.add_argument("--tol", type=float, default=5e-3,
                   help="tolerance for component-term block sums")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_blocks, block=False)

    p = sub.add_parser("eval", help="optimality criteria report")
    add_model_opts(p)
    p.add_argument("--eval-points",
                   help="design CSV of extra points for max/avg variance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fds", help="fraction-of-design-space curve")
    add_model_opts(p)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (default 0)")
    p.add_argument("-o", "--output", required=True,
                   help="base path; writes <base>.csv and <base>.svg")
    p.set_defaults(func=_cmd_fds)

    p = sub.add_parser("power",
                       help="coded-basis se / collinearity / power table")
    add_model_opts(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--effect-sd", type=float, default=2.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("fit", help="least-squares fit from a response file")
    add_model_opts(p)
    p.add_argument("--response", required=True,
                   help="text/CSV file, one response per run")
    p.add_argument("-o", "--output", required=True,
                   help="coefficient table CSV")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (SingularMatrix, InsufficientDF) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 4
    except OamixError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
