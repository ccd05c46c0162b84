"""Compare two result sets of the benchmark: a parent commit and a change.

    python3 perfbench/compare.py report PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py run --parent-root P --change-root C \\
        --workload W --seconds S --out DIR

`run` runs the benchmark of two checkouts (each with its own copy of this
benchmark) as 10 pairs in alternating order, pair i on seed 1000 + i, and
stores each side's result files under DIR/parent and DIR/change; it then
prints the report. `report` reads result files (run.py writes one per run,
trace 0 only is used), pairs them by workload and seed, and prints for each
workload and end-to-end metric both sides' median and quartiles, the share
of pairs the change won (ties count for neither) and a verdict:

* improved: the change wins at least 9/10 of the pairs and the medians
  differ, the right way, by more than the parent's own quartile distance;
  not counted when the change fails more ops than the parent;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: fewer than 10 pairs, or the parent's quartile distance is
  wider than the bound and not every change run beats every parent run;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10
SEED0 = 1000
WIN_SHARE = 0.9


def load_results(directory: str) -> dict:
    """{(workload, seed): result} for the trace-0 result files of a set."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            out[(r["workload"], r["seed"])] = r
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better: str, bound: float,
            more_failures: bool = False) -> dict:
    """Compare paired values of one metric (parent[i] pairs change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    spread = pq3 - pq1
    gain = sign * (cm - pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if n < MIN_PAIRS:
        v = "unresolved"
    elif wins >= WIN_SHARE * n and gain > spread:
        v = "unchanged" if more_failures else "improved"
    elif -gain > bound * abs(pm):
        v = "worse"
    elif spread > bound * abs(pm) and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"pairs": n, "parent_median": pm, "parent_q1": pq1,
            "parent_q3": pq3, "change_median": cm, "change_q1": cq1,
            "change_q3": cq3, "won": wins / n if n else 0.0, "verdict": v}


def report(parent_dir: str, change_dir: str, benchmark: dict) -> list[dict]:
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    for wl in [w["name"] for w in benchmark["workloads"]]:
        keys = sorted(k for k in parent if k[0] == wl and k in change)
        if not keys:
            continue
        fail = {side: sum(r[k]["failed"] for k in keys) /
                sum(r[k]["attempted"] for k in keys)
                for side, r in (("parent", parent), ("change", change))}
        for m in benchmark["end_to_end"]:
            p = [parent[k]["metrics"][m["name"]]["value"] for k in keys]
            c = [change[k]["metrics"][m["name"]]["value"] for k in keys]
            row = verdict(p, c, m["better"], m["bound"],
                          fail["change"] > fail["parent"])
            rows.append({"workload": wl, "metric": m["name"],
                         "unit": m["unit"], **row,
                         "parent_fail_rate": fail["parent"],
                         "change_fail_rate": fail["change"]})
    return rows


def print_report(rows) -> None:
    print(f"{'workload':13s} {'metric':12s} {'pairs':>5s}  "
          f"{'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'won':>5s}  verdict")
    for r in rows:
        sides = [f"{r[s + '_median']:.5g} [{r[s + '_q1']:.5g}, "
                 f"{r[s + '_q3']:.5g}] {r['unit']}" for s in ("parent", "change")]
        print(f"{r['workload']:13s} {r['metric']:12s} {r['pairs']:5d}  "
              f"{sides[0]:34s} {sides[1]:34s} {r['won']:5.2f}  {r['verdict']}")
    for wl in dict.fromkeys(r["workload"] for r in rows):
        r = next(r for r in rows if r["workload"] == wl)
        print(f"{wl}: fail_rate parent {r['parent_fail_rate']:.4f}, "
              f"change {r['change_fail_rate']:.4f}")


def run_pairs(args) -> None:
    sides = {"parent": args.parent_root, "change": args.change_root}
    for i in range(MIN_PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(SEED0 + i), "--seconds",
                   str(args.seconds), "--trace", "0", "--out",
                   os.path.abspath(os.path.join(args.out, side))]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{side} run failed:\n{proc.stderr[-2000:]}")
            print(f"pair {i} {side}: {proc.stdout.strip().splitlines()[-1]}",
                  flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("parent_dir")
    rep.add_argument("change_dir")
    run = sub.add_parser("run")
    run.add_argument("--parent-root", required=True)
    run.add_argument("--change-root", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(BENCHMARK) as fh:
        benchmark = json.load(fh)
    if args.mode == "run":
        run_pairs(args)
        parent_dir = os.path.join(args.out, "parent")
        change_dir = os.path.join(args.out, "change")
    else:
        parent_dir, change_dir = args.parent_dir, args.change_dir
    print_report(report(parent_dir, change_dir, benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
