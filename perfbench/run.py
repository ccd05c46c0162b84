"""oamix benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is loaded from src/. Workloads
(see BENCHMARK.json for why each exists): cli-cold, fds-sample,
design-small, design-large. Each run starts fresh worker processes with
BLAS and OpenMP threads capped at the number of usable cores:

* --trace 0: four set-up-only workers and one measuring worker. setup_s
  is the median of their five set-up times, from spawning the process to
  the first timed op. The measuring worker runs ops for S seconds of op
  time, then checks every output against perfbench/reference.py. Op times
  are reported in units of a reference timed between the ops (the
  in-process worker.reference_loop; a fresh `python -c "import numpy"` for
  cli-cold), which cancels most of the shared machine's drifting speed;
  the same figures in seconds are printed and saved.
* --trace 1: one worker runs the ops untraced and then traced (half the
  seconds each) and reports per-layer metrics, per op.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `failed` counts ops whose output failed a
check, raised unexpectedly or exited with the wrong code; no op should
fail, and `correct` is false when one does. The inputs on which the
program's two documented defects show are not timed ops: --trace 1 runs
them once and reports the share still showing each defect (defect.*),
and any other problem on them also makes `correct` false. Each run
also writes a result file (environment, raw latencies, failure causes) to
.perfbench_out/results/, or to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-cold", "fds-sample", "design-small", "design-large")
SETUP_SAMPLES = 5
WORKER_TIMEOUT = 170

E2E_UNITS = {"setup_s": "s", "ops_per_ref": "1/ref", "op_p50_ref": "ref",
             "peak_rss_mb": "MB"}
# printed and saved, not in the result line (see summary_lines)
PRINTED_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "ref_ms": "ms", "fail_rate": "ratio"}


def layer_unit(name: str) -> str:
    if name.startswith("defect."):
        return "ratio"
    suffix = name.rpartition(".")[2]
    return {"calls": "calls/op", "self_ms": "ms/op", "share": "ratio",
            "raised": "raised/op", "rows": "rows/op", "bytes_out": "bytes/op",
            "bytes_in": "bytes/op", "fds_distinct_ratio": "ratio",
            "overhead": "ratio"}.get(suffix, "ms")


class BenchError(Exception):
    pass


def _env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Spawn a worker; return (spawn time, its JSON result). On timeout the
    worker's whole process group (its CLI children too) is killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed ({proc.returncode}):\n{err[-3000:]}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    if trace:
        _, res = run_worker(common + ["--trace"], deadline)
        metrics = res.pop("layers")
        units = {name: layer_unit(name) for name in metrics}
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            t_spawn, probe = run_worker(common + ["--setup-only"], deadline)
            setups.append(probe["ready"] - t_spawn)
        t_spawn, res = run_worker(common, deadline)
        setups.append(res["ready"] - t_spawn)
        metrics = {"setup_s": statistics.median(setups), **res.pop("metrics")}
        res["setup_samples_s"] = setups
        units = E2E_UNITS
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "finished": time.time(),
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_rate": res["failed"] / res["attempted"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "detail": res,
    }


def save(result: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{result['workload']}-seed{result['seed']}"
                                 f"-trace{result['trace']}-"
                                 f"{int(result['finished'] * 1000)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return path


def summary_lines(result: dict) -> list[str]:
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"trace {result['trace']}: {result['attempted']} ops, "
             f"{result['failed']} failed (fail_rate "
             f"{result['fail_rate']:.4f}), correct={result['correct']}"]
    for cause, count in sorted(result["detail"]["causes"].items()):
        lines.append(f"  failed by cause {cause}: {count}")
    for example in result["detail"]["examples"]:
        lines.append(f"  failure: {example}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if not result["trace"]:
        # printed only: the same figures in seconds, which follow the
        # machine's drifting speed; p90 where ten ops lie beyond it (100
        # ops); fail_rate is the result line's failed / attempted
        printed = dict(result["detail"]["printed"],
                       fail_rate=result["fail_rate"])
        for name, unit in PRINTED_UNITS.items():
            v = printed[name]
            lines.append(f"  {name:34s} " + (
                f"{v:14.6g} {unit}" if v is not None
                else f"{'-':>14s} (fewer than 100 ops)"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out",
                                                  "results"))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "oamix", "__init__.py")):
        print(f"error: no oamix sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
            result["file"] = save(result, args.out)
            results.append(result)
            print("\n".join(summary_lines(result)), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        r = results[0]
        final = {"correct": r["correct"], "attempted": r["attempted"],
                 "failed": r["failed"], "metrics": r["metrics"]}
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{r['workload']}.{k}": v for r in results
                             for k, v in r["metrics"].items()}}
        if not args.trace:
            cols = (*E2E_UNITS, *PRINTED_UNITS)
            print(f"{'workload':14s} " + " ".join(f"{k:>12s}" for k in cols))
            for r in results:
                vals = [r["metrics"][k]["value"] for k in E2E_UNITS]
                printed = dict(r["detail"]["printed"],
                               fail_rate=r["fail_rate"])
                vals += [printed[k] for k in PRINTED_UNITS]
                print(f"{r['workload']:14s} " + " ".join(
                    f"{'-':>12s}" if v is None else f"{v:12.5g}"
                    for v in vals))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
