"""One workload run in a fresh process: a closed loop of in-process CLI calls.

One client runs the workload's commands back to back through
``opindex.cli.run(parse_config(argv))`` and ``record.render("json")``, checks
every record, and prints one JSON document with the per-pass samples.  With
tracing on, passes alternate between untraced and traced, so the same run
gives the tracing overhead and shows that traced records equal untraced
ones.

Run as ``python3 perfbench/worker.py <workload> <seed> <seconds> <trace>``
with ``src`` on ``PYTHONPATH``; ``perfbench/run.py`` does this.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import layers
import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def run_pass(cli, cmds, payloads, failures) -> tuple[float, float, int]:
    """Run every command once; return (wall s, cpu s, commands failed)."""
    wall = cpu = 0.0
    failed = 0
    for i, cmd in enumerate(cmds):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            record, code = cli.run(cli.parse_config(cmd.argv))
            text = record.render("json")
            why = None
        except Exception:  # a crash is a failed command, not a failed run
            why = traceback.format_exc(limit=3)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if why is None:
            doc = json.loads(text)["record"]
            why = cmd.check(code, doc)
            # every pass, traced or not, must produce the first pass's record
            canonical = json.dumps(doc, sort_keys=True)
            if why is None and payloads.setdefault(i, canonical) != canonical:
                why = "record differs from the first pass"
        if why is not None:
            failures.append(f"{cmd.argv[0]}: {why}")
            failed += 1
    return wall, cpu, failed


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    import opindex.cli  # loads every layer the tracer wraps

    cli = opindex.cli
    cmds = workloads.commands(workload, seed)
    tracer = layers.build_tracer(opindex) if trace else None
    payloads: dict[int, str] = {}
    failures: list[str] = []
    untraced, traced, layer_stats = [], [], []
    attempted = failed = 0
    residuals = {}
    walls = []
    start = time.perf_counter()
    while True:
        warm_up = not walls
        traced_pass = tracer is not None and not warm_up and len(untraced) > len(traced)
        if traced_pass:
            tracer.install()
        try:
            wall, cpu, bad = run_pass(cli, cmds, payloads, failures)
        finally:
            if traced_pass:
                tracer.uninstall()
        attempted += len(cmds)
        failed += bad
        walls.append(wall)
        # the first pass of a process runs measurably slower than the
        # later ones (up to a fifth on heat-pairs); it is checked but not
        # sampled, and import time is measured apart as setup_s
        if traced_pass:
            traced.append((wall, cpu))
            layer_stats.append(layers.pass_metrics(tracer.stats, wall))
        elif not warm_up:
            untraced.append((wall, cpu))
        elapsed = time.perf_counter() - start
        # stop before a pass would end past the budget, once there is a
        # sample of each kind
        enough = untraced and (tracer is None or traced)
        if enough and elapsed + statistics.median(walls) > seconds:
            break
    for i, cmd in enumerate(cmds):
        if i in payloads:
            residuals[" ".join(cmd.argv)] = json.loads(payloads[i])["residuals"]
    json.dump({
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "untraced": untraced,
        "traced": traced,
        "layer_stats": layer_stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residuals": residuals,
        "provenance": provenance(seed),
    }, sys.stdout, default=float)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
