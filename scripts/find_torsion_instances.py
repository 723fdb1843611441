#!/usr/bin/env python3
"""Search for curves with rich rational torsion structure.

Scans the c = b normal-form family over primes p = 1 (mod 25) for curves
carrying a rational point of order 25 above the marked 5-point, and
optionally a fully rational 5-torsion on top of it.  These are the
instances the operator and cyclicity checks run on.

Usage:
    python scripts/find_torsion_instances.py --primes 101 151 251
    python scripts/find_torsion_instances.py --primes 251 --full-basis
"""

import argparse
import json

from radicant.curve import group_order
from radicant.verify import torsion_instances


def scan(primes, full_basis):
    return [
        {"p": b.ctx.p, "b": b.to_int(), "group_order": group_order(E),
         "R": [R.x.to_int(), R.y.to_int()]}
        for b, E, R in torsion_instances(primes, full_basis)
    ]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--primes", type=int, nargs="+", default=[101, 151])
    ap.add_argument("--full-basis", action="store_true",
                    help="also require fully rational 5-torsion")
    args = ap.parse_args()
    for row in scan(args.primes, args.full_basis):
        print(json.dumps(row, sort_keys=True))


if __name__ == "__main__":
    main()
