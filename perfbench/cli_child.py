"""Run one oamix CLI command in this fresh process and report its timings.

    python3 perfbench/cli_child.py [--report FILE] [--spans DIR] -- ARGS...

Times `import oamix.cli` and the in-process `oamix.cli.main(ARGS)`, writes
{"import_s", "main_s", "exit"} to FILE, and exits with the command's code.
With --spans the call runs under the span tracer and its spans are written
to DIR. The oamix package is found through PYTHONPATH.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    report = opts[opts.index("--report") + 1] if "--report" in opts else None
    spans = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    t0 = time.perf_counter()
    import oamix.cli
    t1 = time.perf_counter()
    if spans is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer
        trace = tracer.Trace()
        trace.op_id = 0
        installed = tracer.install(trace, tracer.OAMIX_COUNTERS)
    t2 = time.perf_counter()
    code = oamix.cli.main(cli_args)
    t3 = time.perf_counter()
    if spans is not None:
        installed.uninstall()
        trace.dump(spans)
    if report is not None:
        with open(report, "w") as fh:
            json.dump({"import_s": t1 - t0, "main_s": t3 - t2, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
