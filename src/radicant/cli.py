"""Command-line front end.

Subcommands: chain, verify, bench, groups, pairing, tnf.  Output is UTF-8
JSON on stdout (sorted keys, no timing fields unless requested), with
diagnostics on stderr.  Exit codes: 0 success, 1 usage error, 2
mathematical degeneracy, 3 verification failure, 4 resource ceiling.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import curve as curve_mod
from . import modgroup, verify
from .curve import Point, degree5_curve
from .errors import (
    DegenerateParams,
    DegenerateStep,
    EnumerationBound,
    NoRootError,
    RadicantError,
    TorsionUnavailable,
)
from .field import make_field
from .pairing import miller, tate_reduced
from .radical import radical_chain, velu_chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_VERIFY_FAILED = 3
EXIT_RESOURCE = 4


def _emit(payload, pretty: bool):
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _field_arg(args):
    return make_field(args.p, args.k)


def _parse_n_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        levels = tuple(range(int(lo), int(hi) + 1))
        if not levels:
            raise ValueError(f"empty level range {text!r}")
        return levels
    return (int(text),)


def cmd_chain(args) -> int:
    ctx = _field_arg(args)
    b0 = ctx.el(args.b)
    result = radical_chain(b0, args.steps, policy=args.policy)
    payload = json.loads(result.as_json())
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_verify(args) -> int:
    n_values = _parse_n_range(args.n) if args.n else None
    rows = [
        r.row(timings=args.timings)
        for r in verify.run_scope(args.scope, n_values=n_values, seed=args.seed)
    ]
    payload = {"scope": args.scope, "seed": args.seed, "reports": rows}
    _emit(payload, args.pretty)
    failures = [r for r in rows if not r["pass"]]
    if failures:
        print(f"{len(failures)} claim(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_bench(args) -> int:
    ctx = _field_arg(args)
    if (ctx.q - 1) % 5 == 0:
        raise DegenerateParams(
            "bench requires gcd(5, q-1) = 1 so both paths give a unique chain"
        )
    b0 = ctx.el(args.b)

    curve_mod.reset_sample_count()
    t0 = time.perf_counter()
    rad = radical_chain(b0, args.steps, policy="unique")
    radical_ns = (time.perf_counter() - t0) * 1e9 / max(1, args.steps)
    radical_samples = curve_mod.sample_count()

    curve_mod.reset_sample_count()
    t0 = time.perf_counter()
    vel = velu_chain(b0, args.steps)
    velu_ns = (time.perf_counter() - t0) * 1e9 / max(1, args.steps)
    velu_samples = curve_mod.sample_count()

    identical = rad.b_values == vel.b_values
    payload = {
        "p": ctx.p,
        "b0": args.b,
        "steps": args.steps,
        "radical_ns_per_step": int(radical_ns),
        "velu_ns_per_step": int(velu_ns),
        "ratio": round(velu_ns / radical_ns, 3) if radical_ns else None,
        "radical_torsion_samples": radical_samples,
        "velu_torsion_samples": velu_samples,
        "identical_chains": identical,
        "chain": json.loads(rad.as_json())["chain"],
    }
    _emit(payload, args.pretty)
    if not identical or radical_samples != 0 or velu_samples < args.steps:
        print("bench consistency checks failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_groups(args) -> int:
    out = []
    for N in _parse_n_range(args.n):
        M = N * N
        rescaled = modgroup.SubgroupSpec("gamma1_rescaled", N, M)
        g1 = modgroup.SubgroupSpec("gamma1", M, M)
        rep = modgroup.is_normal(g1, rescaled)
        out.append(
            {
                "N": N,
                "sl2_order_mod_n2": modgroup.sl2_count(M),
                "rescaled_order": modgroup.subgroup_order(rescaled),
                "gamma1_n2_order": modgroup.subgroup_order(g1),
                "index": modgroup.index(g1, rescaled),
                "gamma1_n2_normal": rep.normal,
                "rescale_matrix": list(modgroup.rescale_matrix(N).entries()),
            }
        )
    _emit({"groups": out}, args.pretty)
    return EXIT_OK


def cmd_pairing(args) -> int:
    ctx = _field_arg(args)
    b = ctx.el(args.b)
    E = degree5_curve(b)
    P = Point(ctx.zero, ctx.zero)
    value = miller(E, P, E.neg(P), 5)
    payload = {
        "p": ctx.p,
        "k": ctx.k,
        "b": args.b,
        "miller_at_minus_p": value.to_int() if ctx.k == 1 else list(value.coeffs),
        "equals_b": value == b,
    }
    if (ctx.q - 1) % 5 == 0:
        reduced = tate_reduced(E, P, E.neg(P), 5)
        payload["tate_reduced"] = (
            reduced.to_int() if ctx.k == 1 else list(reduced.coeffs)
        )
        payload["class_matches"] = reduced == b ** ((ctx.q - 1) // 5)
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_tnf(args) -> int:
    ctx = _field_arg(args)
    b = ctx.el(args.b)
    E = degree5_curve(b)
    P = Point(ctx.zero, ctx.zero)
    subgroup = E.subgroup(P)
    from .curve import to_tate_normal

    tp, _ = to_tate_normal(E, P, 5)
    payload = {
        "p": ctx.p,
        "k": ctx.k,
        "b": args.b,
        "curve": [
            c.to_int() if ctx.k == 1 else list(c.coeffs)
            for c in (E.a1, E.a2, E.a3, E.a4, E.a6)
        ],
        "discriminant_nonzero": True,
        "normal_form_roundtrip": tp.b == b and tp.c == b,
        "marked_subgroup": [
            None if q.is_infinity else [q.x.to_int(), q.y.to_int()]
            for q in subgroup
        ]
        if ctx.k == 1
        else len(subgroup),
    }
    _emit(payload, args.pretty)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radicant",
        description="degree-5 radical isogeny chains and exhaustive "
        "finite-level verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_field_args(sp, need_b=True):
        sp.add_argument("--p", type=int, required=True, help="field characteristic")
        sp.add_argument("--k", type=int, default=1, help="extension degree")
        if need_b:
            sp.add_argument("--b", type=int, required=True, help="normal-form parameter")
        sp.add_argument("--pretty", action="store_true")

    sp = sub.add_parser("chain", help="run a radical isogeny chain")
    add_field_args(sp)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--policy", default="canonical",
                    help="unique | canonical | index:i")
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("verify", help="run the claim verification suite")
    sp.add_argument("--scope", default="all",
                    choices=("all",) + verify.SCOPES)
    sp.add_argument("--n", default=None, help="level or range, e.g. 5 or 5..8")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timings", action="store_true",
                    help="include per-claim runtimes (non-deterministic)")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bench", help="radical vs sampling chain timing")
    add_field_args(sp)
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("groups", help="finite congruence-subgroup data")
    sp.add_argument("--n", required=True, help="level or range")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_groups)

    sp = sub.add_parser("pairing", help="pairing values on a marked curve")
    add_field_args(sp)
    sp.set_defaults(func=cmd_pairing)

    sp = sub.add_parser("tnf", help="normal-form data for a parameter")
    add_field_args(sp)
    sp.set_defaults(func=cmd_tnf)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DegenerateParams, DegenerateStep, NoRootError) as exc:
        print(f"degenerate instance: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (EnumerationBound, TorsionUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RadicantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
