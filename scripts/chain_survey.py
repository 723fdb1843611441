#!/usr/bin/env python3
"""Survey radical chains over a field: cycle structure of the step map.

Under gcd(5, q-1) = 1 the radical step is a well-defined map on valid
parameters; iterating it partitions them into cycles.  This prints the
cycle decomposition, which is a quick sanity view of chain behavior.

Usage:
    python scripts/chain_survey.py --p 13
    python scripts/chain_survey.py --p 23 --max-steps 50
"""

import argparse

from radicant.errors import DegenerateParams, RadicantError
from radicant.field import make_field
from radicant.radical import radical_step_5


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--max-steps", type=int, default=200)
    args = ap.parse_args()
    if (args.p - 1) % 5 == 0:
        ap.error("pick p with gcd(5, p-1) = 1 so the step is single-valued")
    F = make_field(args.p)
    succ = {}
    for v in range(1, args.p):
        try:
            succ[v] = radical_step_5(F.el(v), policy="unique").b_next.to_int()
        except DegenerateParams:
            continue  # not a valid parameter: outside the step map
        except RadicantError as exc:
            print(f"b = {v}: degenerate ({exc})")
    seen = set()
    for v in sorted(succ):
        if v in seen:
            continue
        cycle = [v]
        cur = succ.get(v)
        while cur is not None and cur not in cycle and len(cycle) < args.max_steps:
            cycle.append(cur)
            cur = succ.get(cur)
        seen.update(cycle)
        tail = " -> ..." if cur is None else f" -> {cur}"
        print(" -> ".join(str(x) for x in cycle) + tail)


if __name__ == "__main__":
    main()
