"""Serving benchmark: one workload, one seed, end-to-end or per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload hot-cache --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, and prints every per-layer metric.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when a
correctness check fails.  Traces, layer tables and the exact-count cache go
to ``.perfbench/`` under the working directory.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics and their units (``BENCHMARK.json`` lists the same).
E2E_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "qerror_p50": "ratio",
    "qerror_p90": "ratio",
    "sim_ms_per_req": "sim_ms",
    "peak_rss_mb": "MB",
}


def pin_environment() -> list:
    """Clear every ``REPRO_*`` variable (backend, RNG mode, shards, trace,
    dataset cache location, ...) so the program runs on its defaults."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the program's Python sources: identifies the program
    under test where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metric_block(values: dict, units: dict) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def run(args: argparse.Namespace, cleared: list) -> int:
    import numpy as np

    import harness as h
    import layers
    from workloads import make_workload

    bench = h.Bench(
        make_workload(args.workload, args.seed), float(args.seconds),
        h.ExactCounts(OUT_DIR / "exact-counts.json"),
    )
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host_cores": os.cpu_count(),
        "numpy": np.__version__, "python": platform.python_version(),
        "git_sha": git_sha(), "src_digest": src_digest(),
        "cleared_env": cleared,
    }
    try:
        if args.trace == 0:
            values, res, details = h.measure_end_to_end(bench)
            metrics = metric_block(values, E2E_UNITS)
        else:
            values, res, details = layers.measure_per_layer(bench, OUT_DIR)
            metrics = metric_block(values, layers.PER_LAYER_UNITS)
    except Exception as error:
        if isinstance(error, (h.CheckFailed, h.ReproError, h.WaitLimit)):
            print(f"perfbench: check failed: {error}", file=sys.stderr)
        else:
            traceback.print_exc()
        # A failure before any request was attempted (in set-up) counts
        # as one failed attempt.
        res = bench.result
        counts = (res.attempted, res.failed) if res and res.attempted else (1, 1)
        print("perfbench-info " + json.dumps(info, default=str))
        print(json.dumps({
            "correct": False, "attempted": counts[0], "failed": counts[1],
            "metrics": {},
        }))
        return 1

    config = details.pop("config")
    info.update(details)
    info.update(
        backend=config.backend, rng_mode=config.rng_mode,
        n_shards=config.n_shards, window_s=res.window_s,
        completed=res.completed, latency_samples=len(res.latencies_ms),
        latency_tail_pct=h.tail_percentile(len(res.latencies_ms)),
        timeouts=res.timeouts, errors=res.errors,
    )
    if bench.churn:
        info["steps"] = res.steps
    print("perfbench-info " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": True, "attempted": res.attempted, "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("hot-cache", "cold-plans", "churn")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cleared = pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found under the working directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    return run(args, cleared)


if __name__ == "__main__":
    sys.exit(main())
