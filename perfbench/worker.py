"""One fresh interpreter: set up a workload, run its closed loop, report JSON.

Run from the root of a radicant checkout; ``run.py`` starts this script and
reads the last line of its standard output.  Set-up is everything before the
first timed operation: ``import radicant``, building the workload's fields
and generating its inputs.  Its end is reported as a wall-clock instant so
the parent can measure from the moment it started the process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


# Times are scaled to a reference speed: by REF_NOMINAL_S over the time the
# reference loop took around them, so a run on a shared machine that was
# slowed down meanwhile reads as a run at the reference speed.
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.25
REF_MODULUS = (1 << 61) - 1


class _RefElement:
    """A stand-in for field arithmetic that shares no code with radicant."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other):
        (a0, a1), (b0, b1) = self.c, other.c
        return _RefElement(((a0 * b0 - 3 * a1 * b1) % REF_MODULUS,
                            (a0 * b1 + a1 * b0) % REF_MODULUS))


def reference_sample() -> float:
    """Seconds for a fixed loop of object-allocating big-int arithmetic.

    It runs no radicant code, so the times it takes around an operation
    track only how fast the shared machine ran meanwhile.
    """
    t0 = time.perf_counter()
    a = _RefElement((123456789, 987654321))
    for j in range(1000):
        a = a.mul(a)
        pow(j + 2, 1 << 40, REF_MODULUS)
    return time.perf_counter() - t0


def _rank(n: int, permille: int) -> int:
    """1-based nearest rank of the permille-th quantile of n values."""
    return max(1, -(-n * permille // 1000))


def latency_summary(ms) -> dict:
    """Median and the highest of p90/p99/p99.9 with ten samples beyond it."""
    ms = sorted(ms)
    n = len(ms)
    out = {"n": n, "p50": ms[_rank(n, 500) - 1]}
    for label, permille in (("p999", 999), ("p99", 990), ("p90", 900)):
        if n - _rank(n, permille) >= 10:
            out[label] = ms[_rank(n, permille) - 1]
            break
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=0, help="fixed round count (0: timed)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default="", help="trace into this span file")
    args = ap.parse_args()

    import radicant  # noqa: F401  (set-up cost: sympy and the package)
    from radicant import curve
    from workloads import TYPED_OUTCOMES, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    setup_end = time.time()
    ref = [reference_sample() for _ in range(5)]
    report = {"setup_end": setup_end, "setup_ref_s": statistics.median(ref),
              "setup_scale": REF_NOMINAL_S / statistics.median(ref)}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    curve.reset_sample_count()

    records = []  # (position in round, inst, outcome, output, ms, last ref sample)
    errors = []
    t_ref = t_loop = time.perf_counter()
    rounds_done = 0
    for rnd in wl.rounds:
        if args.rounds and rounds_done >= args.rounds:
            break
        for pos, inst in enumerate(rnd):
            t0 = time.perf_counter()
            out = None
            try:
                out = tracer.op(wl.run, inst) if tracer else wl.run(inst)
                outcome = "ok"
            except TYPED_OUTCOMES as exc:
                outcome = type(exc).__name__
            except Exception:  # counted as a failed operation, loop goes on
                outcome = "error"
                if len(errors) < 3:
                    errors.append(traceback.format_exc(limit=4))
            t1 = time.perf_counter()
            records.append((pos, inst, outcome, out, (t1 - t0) * 1000.0, len(ref) - 1))
            if t1 - t_ref >= REF_EVERY_S:
                ref.append(reference_sample())
                t_ref = time.perf_counter()
        rounds_done += 1
        if (not args.rounds and rounds_done >= wl.min_rounds
                and time.perf_counter() - t_loop >= args.seconds):
            break
    loop_s = time.perf_counter() - t_loop
    samples = curve.sample_count()
    ref.append(reference_sample())

    if tracer is not None:
        tracer.uninstall()
        from tracer import kernel_metrics

        report["per_layer"] = {**tracer.metrics(), **kernel_metrics()}
        tracer.write(Path(args.trace_out))

    # gates, outside the timed loop (the traced run is compared by digest)
    ops_ok = ops_typed = ops_failed = 0
    typed = {}
    by_stratum = {}
    by_position = {}
    round_hash, round_scaled = [], []
    for pos, inst, outcome, out, ms, last_ref in records:
        n = wl.ops(inst)
        by_stratum.setdefault(wl.stratum(inst), []).append(ms / n)
        scaled_s = ms / 1000.0 * REF_NOMINAL_S / ((ref[last_ref] + ref[last_ref + 1]) / 2)
        by_position.setdefault(pos, (n, [], []))
        by_position[pos][1].append(ms / 1000.0)
        by_position[pos][2].append(scaled_s)
        if pos == 0:
            round_hash.append(hashlib.sha256())
            round_scaled.append(0.0)
        round_scaled[-1] += scaled_s
        round_hash[-1].update(repr((wl.describe(inst), outcome,
                              wl.digest_output(out) if out is not None else None)).encode())
        if outcome == "ok" and (tracer is not None or wl.gate(inst, out)):
            ops_ok += n
        elif outcome in ("ok", "error"):
            ops_failed += n
            if outcome == "ok" and len(errors) < 3:
                errors.append(f"gate failed on {wl.describe(inst)}")
        else:
            ops_typed += n
            typed[outcome] = typed.get(outcome, 0) + n
    attempted = ops_ok + ops_typed + ops_failed
    # A typical round: each position's median over the rounds, so a burst of
    # machine noise or one unusually costly draw moves the figure little.
    round_ops = sum(v[0] for v in by_position.values())
    share_ok = ops_ok / max(1, attempted)

    def throughput(k):
        return round_ops / sum(statistics.median(v[k]) for v in by_position.values()) * share_ok

    report.update({
        "rounds": rounds_done,
        "loop_s": loop_s,
        "loop_ops_per_s": ops_ok / loop_s,
        "ops_per_s": throughput(1),
        "ops_per_ref_s": throughput(2),
        "ref_s": statistics.median(ref),
        "ref_samples": len(ref),
        "min_rounds": wl.min_rounds,
        "round_op_ref_s": round_scaled,
        "round_digests": [h.hexdigest()[:16] for h in round_hash],
        "attempted": attempted,
        "completed": ops_ok,
        "failed": ops_failed,
        "typed_outcomes": typed,
        "samples": samples,
        "errors": errors,
        "inputs_digest": wl.inputs_digest(),
        "op_ms": latency_summary([ms for v in by_stratum.values() for ms in v]),
        "op_ms_by_stratum": {k: latency_summary(v) for k, v in by_stratum.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is None:
        report["known_defects"] = wl.probe()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
