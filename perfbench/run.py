"""Benchmark of radicant: radical walks, root selection, oracle cross-checks
and exhaustive group facts.

Usage, from the root of a radicant checkout:

    python3 perfbench/run.py --workload walk_fp --seed 1 --seconds 5 --trace 0

Every worker is a fresh interpreter started one at a time, so the package's
process-global caches start cold, as they do for a command-line user.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics from a traced run of the same inputs.  The last
line of standard output is the result object; the lines before it record the
environment, the input digest, latency percentiles and the known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s (the run worker is one)
WORKER_TIMEOUT_S = 150  # the whole invocation must end within 180 s
WORKLOADS = ("walk_fp", "walk_fp2", "roots", "oracle", "groups")


def _spawn(args: list, timeout: float):
    """Run one worker to completion; (start wall time, parsed last line)."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import importlib.metadata

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "radicant" / "__init__.py").is_file():
        print(f"no radicant sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    def left():
        return max(1.0, deadline - time.monotonic())

    started, run = _spawn(base, left())
    setups = [(run["setup_end"] - started, run)]
    correct = run["failed"] == 0 and run["attempted"] > 0
    if args.workload in ("walk_fp", "walk_fp2", "roots"):
        correct = correct and run["samples"] == 0  # the zero-sampling property

    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            s, rep = _spawn(base + ["--setup-only"], left())
            setups.append((rep["setup_end"] - s, rep))
        # both are scaled to the reference speed (see worker.py)
        setup_s = statistics.median(wall * rep["setup_scale"] for wall, rep in setups)
        metrics = {
            "ops_per_ref_s": {"value": run["ops_per_ref_s"], "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    else:
        span_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        # the traced worker repeats the first min_rounds rounds of the run
        k = run["min_rounds"]
        _, traced = _spawn(base + ["--rounds", str(k), "--trace-out", str(span_file)],
                           left())
        correct = correct and traced["round_digests"] == run["round_digests"][:k]
        layer = traced["per_layer"]
        layer["trace.overhead_ratio"] = (sum(traced["round_op_ref_s"])
                                         / sum(run["round_op_ref_s"][:k]))
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(layer.items())}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "inputs_digest": run["inputs_digest"],
        "outputs_digest": hashlib.sha256("".join(run["round_digests"]).encode()).hexdigest()[:16],
        "rounds": run["rounds"], "completed": run["completed"],
        "ops_per_s": run["ops_per_s"], "loop_ops_per_s": run["loop_ops_per_s"],
        "ref_s": run["ref_s"], "ref_samples": run["ref_samples"],
        "typed_outcomes": run["typed_outcomes"], "torsion_samples": run["samples"],
        "op_ms": run["op_ms"], "op_ms_by_stratum": run["op_ms_by_stratum"],
        "setup_samples_s": [wall for wall, _ in setups],
        "setup_ref_s": [rep["setup_ref_s"] for _, rep in setups],
        "known_defects": run["known_defects"],
        "errors": run["errors"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(correct), "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if "_ns." in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
