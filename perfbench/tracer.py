"""Spans around the public functions of radicant, and fixed kernel batches.

The tracer rebinds each traced function in every ``radicant.*`` module that
holds it, so calls between library modules are seen as well as the
benchmark's own.  A span records name, start, end, parent span and operation
id; spans stay in flat arrays until the run ends.  Self time is a span's
duration minus the durations of its direct children, accumulated as spans
close.  The benchmark wraps each operation in an ``op`` span, whose self time
is the part of the operation no traced function accounts for.
"""

from __future__ import annotations

import csv
import functools
import gzip
import random
import statistics
import sys
import time
from array import array

from radicant import curve, field, modgroup

# (module, function) pairs traced; the layer is the module name
TRACED = (
    ("field", "make_field"), ("field", "nth_roots"),
    ("curve", "enumerate_points"), ("curve", "point_order"),
    ("curve", "to_tate_normal"), ("curve", "full_torsion_degree"),
    ("curve", "torsion_basis"), ("curve", "find_isomorphism"),
    ("isogeny", "velu"), ("isogeny", "evaluate"), ("isogeny", "dual_isogeny"),
    ("isogeny", "cached_dual"), ("isogeny", "distinguished_points"),
    ("pairing", "miller"), ("pairing", "weil"), ("pairing", "tate_reduced"),
    ("radical", "radical_chain"), ("radical", "radical_step_5"),
    ("radical", "velu_reference_step"), ("radical", "velu_chain"),
    ("modgroup", "sl2_count"), ("modgroup", "subgroup_order"), ("modgroup", "index"),
    ("modgroup", "is_normal"),
    ("moduli", "axis_subgroup_normality"), ("moduli", "gamma0_equiv"),
)
OP = "op"


class Tracer:
    def __init__(self):
        self.names = [OP] + [fn for _, fn in TRACED]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = {"points_enumerated": 0, "matrices_enumerated": 0,
                       "make_field.calls.k2": 0, "make_field.calls.k4": 0,
                       "dual.route_rational": 0, "dual.route_extension": 0}
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.next_id = 1
        self.op_id = 0
        self.op_wall_ns = 0
        self.stack = [[0, 0]]  # [span id, child ns]; id 0 is "no parent"
        self.rebound = []

    # -- spans -----------------------------------------------------------

    def _close(self, frame, name, t0, t1):
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        dur = t1 - t0
        parent[1] += dur
        self.calls[name] += 1
        self.self_ns[name] += dur - frame[1]
        self.span_id.append(frame[0])
        self.span_name.append(name)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_parent.append(parent[0])
        self.span_op.append(self.op_id)

    def _open(self):
        frame = [self.next_id, 0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def op(self, call, *args):
        """Run one benchmark operation inside its root span."""
        self.op_id += 1
        frame = self._open()
        t0 = time.perf_counter_ns()
        try:
            return call(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.op_wall_ns += t1 - t0
            self._close(frame, 0, t0, t1)

    def _wrap(self, name, fn, after=None):
        idx = self.index[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, idx, t0, clock())
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters read at the span boundary ------------------------------

    def _after_make_field(self, args, ctx):
        if ctx.k in (2, 4):
            self.counts[f"make_field.calls.k{ctx.k}"] += 1

    def _after_enumerate(self, args, points):
        self.counts["points_enumerated"] += len(points)

    def _after_dual(self, args, dual):
        route = "rational" if dual.ext_ctx == args[0].domain.ctx else "extension"
        self.counts[f"dual.route_{route}"] += 1

    def _counted_sl2_elements(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for m in fn(*args, **kwargs):
                counts["matrices_enumerated"] += 1
                yield m

        return counted

    # -- install / remove ------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "radicant" and not modname.startswith("radicant."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.rebound.append((mod, attr, original))

    def install(self):
        self.group_order = curve.group_order  # the lru_cache object itself
        self.cache_before = self.group_order.cache_info()
        hooks = {"make_field": self._after_make_field,
                 "enumerate_points": self._after_enumerate,
                 "dual_isogeny": self._after_dual}
        for modname, fn in TRACED:
            original = getattr(sys.modules[f"radicant.{modname}"], fn)
            self._rebind(original, self._wrap(fn, original, hooks.get(fn)))
        self._rebind(modgroup.sl2_elements, self._counted_sl2_elements(modgroup.sl2_elements))
        curve.reset_sample_count()

    def uninstall(self):
        for mod, attr, original in reversed(self.rebound):
            setattr(mod, attr, original)
        self.rebound.clear()
        after = self.group_order.cache_info()
        self.counts["group_order.hits"] = after.hits - self.cache_before.hits
        self.counts["group_order.misses"] = after.misses - self.cache_before.misses
        self.counts["samples"] = curve.sample_count()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        wall = self.op_wall_ns or 1
        out = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_pct"] = 100.0 * self.self_ns[i] / wall
        out.update(self.counts)
        out["unattributed_pct"] = 100.0 * self.self_ns[0] / wall
        out["trace.op_wall_s"] = self.op_wall_ns / 1e9
        return out

    def write(self, path):
        """Spans as gzip'd CSV: id, name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "name", "start_ns", "end_ns", "parent", "op"))
            names = self.names
            for row in zip(self.span_id, self.span_name, self.span_start,
                           self.span_end, self.span_parent, self.span_op):
                w.writerow((row[0], names[row[1]], row[2], row[3], row[4], row[5]))


# ---------------------------------------------------------------------------
# kernel batches: fixed inputs, timed in the traced run, median of repeats
# ---------------------------------------------------------------------------

KERNEL_REPEATS = 5


def _per_call_ns(batch, n: int) -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter_ns()
        batch()
        times.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(times)


def kernel_metrics() -> dict:
    """Field mul/inv/pow over F_p (p near 2^20), F_{1013^2} and F_{13^4};
    curve add and scalar mul over F_101, the oracle's field size."""
    rng = random.Random(0)
    out = {}
    fields = {"k1": field.make_field(1048583), "k2": field.make_field(1013, 2),
              "k4": field.make_field(13, 4)}
    for k, F in fields.items():
        xs = [F.random_element(rng) for _ in range(200)]
        xs = [x for x in xs if not x.is_zero()]
        ys = xs[1:] + xs[:1]
        pairs = list(zip(xs, ys))
        out[f"field.mul_ns.{k}"] = _per_call_ns(lambda: [a * b for a, b in pairs], len(pairs))
        if k == "k4":
            continue
        out[f"field.inv_ns.{k}"] = _per_call_ns(lambda: [a.inverse() for a in xs], len(xs))
        e = F.q - 2
        few = xs[:40]
        out[f"field.pow_ns.{k}"] = _per_call_ns(lambda: [a**e for a in few], len(few))
    F = field.make_field(101)
    E = curve.degree5_curve(F.el(7))
    pts = [P for P in curve.enumerate_points(E) if not P.is_infinity]
    rng.shuffle(pts)
    pairs = list(zip(pts, pts[1:] + pts[:1]))
    out["curve.add_ns.k1"] = _per_call_ns(lambda: [E.add(P, Q) for P, Q in pairs], len(pairs))
    few = pts[:20]
    scalar = 1000003
    out["curve.mul_ns.k1"] = _per_call_ns(lambda: [E.mul(scalar, P) for P in few], len(few))
    return out
