"""Benchmark of the opindex CLI: end-to-end metrics, or per-layer ones traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload heat-pairs --seed 0 --seconds 35 --trace 0

The run times importing ``opindex.cli`` in fresh interpreters (set-up), then
starts one fresh worker process (``worker.py``) that runs the workload's
commands in a closed loop for the given seconds and checks every record.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Earlier lines give the provenance, the residuals of each
command (for information only) and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import opindex.cli; "
    "print(time.perf_counter() - t)"
)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup_times(env: dict) -> list[float]:
    """Import time of opindex.cli in fresh interpreters.

    The first import is not timed: it writes the bytecode cache that every
    later CLI call reuses.
    """
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout))
    return times


def source_identity(root: Path) -> dict:
    """Git sha when the checkout is a repository, and a digest of the source."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "opindex").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def end_to_end(result: dict, setup: list[float]) -> dict:
    walls = [w for w, _ in result["untraced"]]
    cpus = [c for _, c in result["untraced"]]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def per_layer(result: dict, names: list[str]) -> dict:
    passes = result["layer_stats"]
    metrics = {name: statistics.median(p.get(name, 0.0) for p in passes) for name in names}
    traced = statistics.median(w for w, _ in result["traced"])
    untraced = statistics.median(w for w, _ in result["untraced"])
    metrics.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "opindex" / "cli.py").is_file():
        fail(f"no opindex source under {root / 'src'}; run from a source checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    setup = [] if args.trace else setup_times(env)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        fail(f"worker exited with code {worker.returncode}")
    result = json.loads(worker.stdout.strip().splitlines()[-1])

    if args.trace:
        values = per_layer(result, [m["name"] for m in wanted])
    else:
        values = end_to_end(result, setup)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {missing}")

    print(json.dumps({"provenance": {**result["provenance"], **source_identity(root)}}))
    print(json.dumps({"residuals": result["residuals"]}))
    print(json.dumps({
        "pass_wall_s": {"untraced": [w for w, _ in result["untraced"]],
                        "traced": [w for w, _ in result["traced"]]},
        "setup_samples_s": setup,
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
