"""One workload process: set-up, timed loop, checks; prints one JSON line.

Started by run.py as a fresh interpreter, so that set-up time covers
interpreter start, `import oamix`, input generation and one warm-up op
(op 0). Nothing from oamix or scipy is imported before that; the
reference checker (and with it scipy) is used only after the timed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                [--trace] [--setup-only]

With --trace the process runs the ops twice, both times from op 0 and for
at least half the seconds each: untraced, then under the span tracer. The
first gives the untraced latencies that trace.overhead divides by; after
them the process runs the start-up probe (workloads.cli_probe) and the
known-defect inputs (workloads.defect_probe), both untimed and untraced.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import tracer  # noqa: E402  (stdlib only)
import workloads  # noqa: E402  (numpy; oamix is imported by the workload)

# op time between two runs of the reference loop, and how many of its
# latest times an op is divided by (their median)
REF_EVERY_S = 0.1
REF_WINDOW = 5
_REF_TINY = np.linspace(0.0, 1.0, 16)
_REF_SMALL = np.linspace(0.0, 1.0, 4096)
_REF_LARGE = np.linspace(0.0, 1.0, 1 << 18)  # 2 MiB: beyond a core's L2
_REF_OUT = np.empty_like(_REF_LARGE)


def _pair(a, b):
    return a, b


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter loops and calls, tiny,
    small and memory-bound array calls (about 4 ms; no oamix, no BLAS).
    Run between ops, it follows the speed of the machine at the time."""
    t0 = perf_counter()
    acc = {}
    for i in range(6000):
        acc[i & 255] = acc.get(i & 255, 0.0) + i * 0.5
    total = 0
    for i in range(3000):
        total += _pair(i, 1.0)[0]
    for _ in range(150):
        float(np.dot(_REF_TINY, _REF_TINY))
        np.sqrt(_REF_TINY * 1.5)
    for _ in range(50):
        np.sqrt(_REF_SMALL * 1.5 + 0.25).sum()
    for _ in range(2):
        np.multiply(_REF_LARGE, 1.0001, out=_REF_OUT)
        np.add(_REF_OUT, _REF_LARGE, out=_REF_OUT)
    return perf_counter() - t0


def _same(a, b) -> bool:
    """Outputs of two runs of the same op agree (replayed ops must)."""
    import numpy as np
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, (np.ndarray, float)) and not isinstance(a, bool):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(np.allclose(
            a, b, rtol=1e-12, atol=0, equal_nan=True))
    return a == b


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.records = {}       # input key -> first record
        self.ops = []           # (phase, k, key, replay_mismatch)
        self.totals = tracer.LayerTotals()

    def phase(self, name: str, seconds: float, trace=None):
        """Run whole cycles of the workload's ops 0, 1, ... (so that every
        run measures the same mix of ops), stopping at the cycle boundary
        where the summed op time comes nearest to seconds, after at least
        one cycle and the workload's MIN_OPS. The reference (the workload's
        own, or reference_loop) runs between ops, once per REF_EVERY_S of
        op time. Return the op
        latencies and, per op, the median of the latest REF_WINDOW loop
        times, in seconds."""
        wl = self.wl
        reference = getattr(wl, "reference", reference_loop)
        latencies, refs, ref_s = [], [], []
        busy, k, next_ref = 0.0, 0, 0.0
        while True:
            if k and k % wl.CYCLE == 0 and k >= getattr(wl, "MIN_OPS", 0):
                per_cycle = busy / (k // wl.CYCLE)
                if busy + per_cycle / 2 >= seconds:
                    break
            if busy >= next_ref:
                ref_s.append(reference())
                next_ref = busy + REF_EVERY_S
            refs.append(statistics.median(ref_s[-REF_WINDOW:]))
            if trace is not None:
                trace.op_id = k
            t0 = perf_counter()
            try:
                out = wl.op(k)
            except Exception as e:  # a crash is a failed op, judged later
                out = e
            dt = perf_counter() - t0
            latencies.append(dt)
            busy += dt
            self._record(name, k, out)
            k += 1
        return latencies, refs

    def _record(self, phase, k, out):
        if isinstance(out, Exception):
            rec = {"crash": f"{type(out).__name__}: {out}"}
        else:
            rec = self.wl.slim(k, out)
        spans = rec.pop("spans", None) if isinstance(rec, dict) else None
        if spans is not None and os.path.isdir(spans):
            self.totals.add_trace(tracer.Trace.load(spans))
        key = (phase, k) if "crash" in rec else self.wl.key(k)
        mismatch = key in self.records and not _same(self.records[key], rec)
        self.records.setdefault(key, rec)
        self.ops.append((phase, k, key, mismatch))

    def verify(self) -> dict:
        verdicts = {}
        for key, rec in self.records.items():
            k = key[1] if isinstance(key, tuple) else key
            if "crash" in rec:
                verdicts[key] = [("other", "op raised " + rec["crash"])]
            else:
                verdicts[key] = self.wl.verify(k, rec)
        per_phase = {}
        causes, examples = {}, []
        for phase, k, key, mismatch in self.ops:
            found = list(verdicts[key])
            if mismatch:
                found.append(("other", f"op {k} gave a different output "
                                       "when replayed"))
            stats = per_phase.setdefault(phase, {"attempted": 0, "failed": 0})
            stats["attempted"] += 1
            if found:
                stats["failed"] += 1
                for cause in {c for c, _ in found}:
                    causes[cause] = causes.get(cause, 0) + 1
                for _, msg in found:
                    if len(examples) < 5:
                        examples.append(f"op {k}: {msg}")
        return {"phases": per_phase, "causes": causes, "examples": examples}


def _blas_threads():
    """Threads of each loaded OpenBLAS, read through its own API."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "thread_caps": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def p90_if_defined(values):
    """The 90th percentile when at least ten ops lie beyond it, else None."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _relative(latencies, refs) -> list[float]:
    return [t / r for t, r in zip(latencies, refs)]


def layer_metrics(runner, traced, untraced, wl, tmp, seed):
    """Per-layer metrics; traced and untraced are the phases' (latencies,
    reference times)."""
    latencies_traced = traced[0]
    n_ops = len(latencies_traced)
    op_time = sum(latencies_traced)
    t = runner.totals
    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.calls"] = t.calls[layer] / n_ops
        out[f"{layer}.self_ms"] = 1e3 * t.self_s[layer] / n_ops
        out[f"{layer}.share"] = t.self_s[layer] / op_time
        out[f"{layer}.raised"] = t.raised[layer] / n_ops
    for key in ("modelmat.rows", "serialize.bytes_out", "serialize.bytes_in"):
        out[key] = t.counts.get(key, 0.0) / n_ops
    out["evaluate.fds_distinct_ratio"] = (
        wl.distinct_ratio(runner.records) if hasattr(wl, "distinct_ratio")
        else 0.0)
    # over the ops both phases ran, each op in reference-loop units, so
    # that the machine's speed drifting between the phases cancels
    rel_t, rel_u = (_relative(*phase) for phase in (traced, untraced))
    common = min(len(rel_t), len(rel_u))
    out["trace.overhead"] = (statistics.median(rel_t[:common])
                             / statistics.median(rel_u[:common]))
    out.update(workloads.cli_probe(os.path.join(tmp, "probe"), seed))
    defects, problems = workloads.defect_probe(seed, os.path.join(tmp, "defects"))
    out.update(defects)
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tmp = os.path.join(ROOT, ".perfbench_out", f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        wl.slim(0, wl.op(0))
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        runner = Runner(wl)
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = runner.phase("untraced", seconds)
        lat_u = untraced[0]
        if args.trace:
            trace = tracer.Trace()
            if isinstance(wl, workloads.CliCold):
                wl.spans_dir = os.path.join(tmp, "spans")
                traced = runner.phase("traced", seconds)
                wl.spans_dir = None
            else:
                installed = tracer.install(trace, tracer.OAMIX_COUNTERS)
                try:
                    traced = runner.phase("traced", seconds, trace)
                finally:
                    installed.uninstall()
                runner.totals.add_trace(trace)
        usage = resource.RUSAGE_CHILDREN if isinstance(
            wl, workloads.CliCold) else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

        checked = runner.verify()
        verified = (checked["phases"]["untraced"]["attempted"]
                    - checked["phases"]["untraced"]["failed"])
        result = {
            "ready": ready,
            "attempted": sum(p["attempted"] for p in checked["phases"].values()),
            "failed": sum(p["failed"] for p in checked["phases"].values()),
            "causes": checked["causes"], "examples": checked["examples"],
            "latencies_ms": [1e3 * x for x in lat_u],
        }
        problems = []
        if args.trace:
            result["layers"], problems = layer_metrics(
                runner, traced, untraced, wl, tmp, args.seed)
            result["examples"] += problems[:5]
        else:
            ms = result["latencies_ms"]
            rel = _relative(*untraced)
            result["metrics"] = {
                "ops_per_ref": verified / sum(rel),
                "op_p50_ref": statistics.median(rel),
                "peak_rss_mb": peak_rss_mb,
            }
            result["printed"] = {
                "ops_per_s": verified / sum(lat_u),
                "op_p50_ms": statistics.median(ms),
                "op_p90_ms": p90_if_defined(ms),
                "ref_ms": 1e3 * statistics.median(untraced[1]),
            }
        result["correct"] = result["failed"] == 0 and not problems
        result["environment"] = environment()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
