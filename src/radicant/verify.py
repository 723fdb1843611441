"""Claim registry: every finite-level statement the tool checks, as data.

Each claim runs an honest computation and records expected vs computed
values in a Report row.  The CLI serializes the rows; the acceptance test
suite asserts them.  Claims are grouped into scopes: groups, pairing,
radical, moduli.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from . import modgroup, poly
from .curve import (
    Point,
    TateParams,
    degree5_curve,
    division_polynomial,
    enumerate_points,
    group_order,
    has_order,
    normal_form_discriminant,
    points_of_order,
    rational_point_of_order,
    torsion_basis,
)
from .errors import RadicantError
from .field import FieldCtx, make_field, nth_roots
from .isogeny import composition_kernel_polynomial, is_distinguished, velu
from .miscutil import primes_in_range
from .moduli import (
    MarkedPoint,
    axis_subgroup_normality,
    conjugate_closed_form,
    g_action,
    gamma0_equiv,
    gamma0_invariant,
    group_elements,
    in_axis_subgroup,
    params_of,
    proj_point,
    proj_quotient,
    rescale,
    sd_identity,
    sd_inv,
    sd_mul,
)
from .pairing import miller, radicand, tate_reduced, weil
from .radical import (
    radical_chain,
    radical_poly_irreducible,
    radical_poly_irreducible_oracle,
    step_from_root,
    distinguished_point_5,
    velu_reference_step,
)

SCOPES = ("groups", "pairing", "radical", "moduli")


@dataclass
class Report:
    claim: str
    params: dict
    expected: object
    computed: object
    passed: bool
    ms: float = 0.0

    def row(self, timings: bool = False) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }
        if timings:
            out["ms"] = round(self.ms, 3)
        return out


def _timed(claim: str, params: dict, expected, compute: Callable) -> Report:
    t0 = time.perf_counter()
    try:
        computed = compute()
        passed = computed == expected
    except RadicantError as exc:
        computed = f"error: {exc}"
        passed = False
    ms = (time.perf_counter() - t0) * 1000.0
    return Report(claim, params, expected, computed, passed, ms)


# ---------------------------------------------------------------------------
# instance pools
# ---------------------------------------------------------------------------

PRIMES_1_MOD_5 = tuple(p for p in primes_in_range(11, 400) if p % 5 == 1)
PRIMES_GENERIC = tuple(p for p in primes_in_range(7, 400) if p != 5)
PRIMES_1_MOD_25 = (101, 151, 251, 401)


def _random_valid_b(ctx: FieldCtx, rng: random.Random, fifth_power: bool = False):
    for _ in range(200):
        v = rng.randrange(1, ctx.p)
        b = ctx.el(v)
        if fifth_power:
            b = b**5
            if b.is_zero():
                continue
        if not normal_form_discriminant(b, b).is_zero():
            return b
    raise RadicantError("no valid parameter found")


def _random_instance(rng: random.Random, primes, fifth_power: bool = False):
    """(field, b) drawn jointly; re-draws the prime when a field has no
    valid parameter (over F_11 the only fifth powers are +-1, both
    degenerate)."""
    for _ in range(50):
        p = rng.choice(primes)
        F = make_field(p)
        try:
            return F, _random_valid_b(F, rng, fifth_power)
        except RadicantError:
            continue
    raise RadicantError("no usable (p, b) instance found")


_MARKED25_CACHE: list = []


def marked_25_instances(count: int) -> list:
    """(p, b) pairs whose curve has a rational point of order 25 over the
    marked 5-point; searched over the p = 1 mod 25 pool, cached."""
    global _MARKED25_CACHE
    if len(_MARKED25_CACHE) >= count:
        return _MARKED25_CACHE[:count]
    found = []
    for p in PRIMES_1_MOD_25:
        F = make_field(p)
        for bi in range(1, p):
            b = F.el(bi)
            if normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            if group_order(E) % 25 != 0:
                continue
            P = Point(F.zero, F.zero)
            R = rational_point_of_order(E, 25, above=P)
            if R is not None:
                found.append((p, bi))
                if len(found) >= count:
                    _MARKED25_CACHE = found
                    return found
    _MARKED25_CACHE = found
    return found


def action_basis_instance():
    """(p, b) with both a rational order-25 point over the marked point and
    a fully rational 5-torsion (needed by the group-action checks)."""
    for p in (251, 401, 601):
        F = make_field(p)
        for bi in range(1, p):
            b = F.el(bi)
            if normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            if group_order(E) % 125 != 0:
                continue
            P = Point(F.zero, F.zero)
            R = rational_point_of_order(E, 25, above=P)
            if R is None:
                continue
            if len(points_of_order(E, 5)) == 25 - 1:
                return p, bi
    raise RadicantError("no action-basis instance found")


# ---------------------------------------------------------------------------
# groups scope
# ---------------------------------------------------------------------------

def run_groups(n_values: Iterable[int] = (4, 5, 6, 7), seed: int = 0) -> list:
    reports = []
    reports.append(
        _timed("sl2-order-2-exhaustive", {"M": 2}, 6, lambda: modgroup.sl2_count(2))
    )
    reports.append(
        _timed("sl2-order-5-exhaustive", {"M": 5}, 120, lambda: modgroup.sl2_count(5))
    )
    reports.append(
        _timed(
            "sl2-order-25-exhaustive-vs-formula",
            {"M": 25},
            {"count": 15000, "formula": 15000},
            lambda: {
                "count": modgroup.sl2_count(25),
                "formula": modgroup.sl2_count_formula(25),
            },
        )
    )
    reports.append(
        _timed(
            "sl2-formula-agreement-upto-30",
            {"range": "2..30"},
            True,
            lambda: all(
                modgroup.sl2_count(M) == modgroup.sl2_count_formula(M)
                for M in range(2, 31)
            ),
        )
    )

    for N in n_values:
        M = N * N
        rescaled = modgroup.SubgroupSpec("gamma1_rescaled", N, M)
        g1_n2 = modgroup.SubgroupSpec("gamma1", M, M)
        reports.append(
            _timed(
                "rescaled-subgroup-order",
                {"N": N},
                N**3,
                lambda s=rescaled: modgroup.subgroup_order(s),
            )
        )
        reports.append(
            _timed(
                "gamma1-n2-normal-in-rescaled",
                {"N": N},
                True,
                lambda a=g1_n2, b=rescaled: modgroup.is_normal(a, b).normal,
            )
        )
        gamma_n2 = modgroup.SubgroupSpec("gamma", M, M)
        def mult_identity(N=N, M=M, rescaled=rescaled, g1_n2=g1_n2, gamma_n2=gamma_n2):
            lhs = modgroup.index(gamma_n2, rescaled)
            rhs = modgroup.index(g1_n2, rescaled) * modgroup.index(gamma_n2, g1_n2)
            return lhs == rhs
        reports.append(
            _timed("index-multiplicativity", {"N": N}, True, mult_identity)
        )

    g1_25 = modgroup.SubgroupSpec("gamma1", 25, 25)
    g1_5at25 = modgroup.SubgroupSpec("gamma1", 5, 25)
    rescaled5 = modgroup.SubgroupSpec("gamma1_rescaled", 5, 25)
    reports.append(
        _timed(
            "gamma1-25-order", {"M": 25}, 25, lambda: modgroup.subgroup_order(g1_25)
        )
    )
    reports.append(
        _timed(
            "index-rescaled5-gamma1-25",
            {"N": 5},
            5,
            lambda: modgroup.index(g1_25, rescaled5),
        )
    )
    reports.append(
        _timed(
            "index-gamma1-5-gamma1-25",
            {"N": 5},
            25,
            lambda: modgroup.index(g1_25, g1_5at25),
        )
    )
    reports.append(
        _timed(
            "gamma0-4-index",
            {"M": 4},
            6,
            lambda: modgroup.sl2_count(4)
            // modgroup.subgroup_order(modgroup.SubgroupSpec("gamma0", 4, 4)),
        )
    )
    reports.append(
        _timed(
            "principal-5-normal-in-sl2",
            {"N": 5},
            True,
            lambda: modgroup.is_normal(
                modgroup.SubgroupSpec("gamma", 5, 5),
                modgroup.SubgroupSpec("full", 5, 5),
            ).normal,
        )
    )

    t = modgroup.rescale_matrix(5)
    reports.append(
        _timed(
            "rescale-matrix-memberships",
            {"N": 5, "matrix": list(t.entries())},
            {"gamma0_25": True, "gamma1_25": False, "rescaled_5": True, "det": 1},
            lambda: {
                "gamma0_25": modgroup.member(t, modgroup.SubgroupSpec("gamma0", 25, 25)),
                "gamma1_25": modgroup.member(t, g1_25),
                "rescaled_5": modgroup.member(t, rescaled5),
                "det": t.det(),
            },
        )
    )

    def conjugation_all_b():
        t5 = modgroup.rescale_matrix(5)
        ti = t5.inv()
        for b in range(25):
            u = modgroup.Mat2(1, b, 0, 1, 25)
            conj = ti * u * t5
            if conj.entries() != modgroup.conjugation_closed_form(5, b).entries():
                return False
            if not modgroup.member(conj, g1_25):
                return False
        return True

    reports.append(
        _timed("conjugation-closed-form", {"N": 5, "all_b": True}, True, conjugation_all_b)
    )
    return reports


# ---------------------------------------------------------------------------
# pairing scope
# ---------------------------------------------------------------------------

def run_pairing(seed: int = 0, instances: int = 50) -> list:
    reports = []
    rng = random.Random(seed)

    def radicand_batch():
        exact = 0
        class_ok = 0
        for _ in range(instances):
            F, b = _random_instance(rng, PRIMES_1_MOD_5)
            E = degree5_curve(b)
            P = Point(F.zero, F.zero)
            val = miller(E, P, E.neg(P), 5)
            if val == b:
                exact += 1
                class_ok += 1
            else:
                ratio = val / b
                if nth_roots(ratio, 5):
                    class_ok += 1
        return {"exact": exact, "class_ok": class_ok}

    reports.append(
        _timed(
            "radicand-miller-exact",
            {"instances": instances, "seed": seed},
            {"exact": instances, "class_ok": instances},
            radicand_batch,
        )
    )

    def pairing_properties():
        F = make_field(31)
        b = F.el(11)
        E = degree5_curve(b)
        P = Point(F.zero, F.zero)
        P1, P2 = torsion_basis(E, 5, F)
        one = F.one
        e = weil(E, P1, P2, 5)
        order = next(m for m in range(1, 6) if e**m == one)
        t_base = tate_reduced(E, P, E.neg(P), 5)
        pts = [q for q in enumerate_points(E) if not q.is_infinity]
        lin = all(
            tate_reduced(E, P, E.add(q1, q2), 5)
            == tate_reduced(E, P, q1, 5) * tate_reduced(E, P, q2, 5)
            for q1, q2 in [(rng.choice(pts), rng.choice(pts)) for _ in range(5)]
            if not E.add(q1, q2).is_infinity and q1 != P and q2 != P
            and E.add(q1, q2) != P
        )
        return {
            "weil_alternating": weil(E, P1, P1, 5) == one,
            "weil_antisymmetric": weil(E, P1, P2, 5) * weil(E, P2, P1, 5) == one,
            "weil_basis_order": order,
            "tate_nondegenerate": t_base != one,
            "tate_bilinear": lin,
            "tate_class_matches_radicand": t_base == b ** ((31 - 1) // 5),
        }

    reports.append(
        _timed(
            "pairing-properties-f31",
            {"p": 31, "b": 11},
            {
                "weil_alternating": True,
                "weil_antisymmetric": True,
                "weil_basis_order": 5,
                "tate_nondegenerate": True,
                "tate_bilinear": True,
                "tate_class_matches_radicand": True,
            },
            pairing_properties,
        )
    )

    def radicand_class_batch():
        ok = 0
        trials = 20
        for _ in range(trials):
            F, b = _random_instance(rng, PRIMES_1_MOD_5)
            E = degree5_curve(b)
            P = Point(F.zero, F.zero)
            rho = radicand(TateParams(b, b, 5))
            if rho ** ((F.p - 1) // 5) == tate_reduced(E, P, E.neg(P), 5):
                ok += 1
        return ok

    reports.append(
        _timed(
            "radicand-class-vs-tate",
            {"instances": 20, "seed": seed},
            20,
            radicand_class_batch,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# radical scope
# ---------------------------------------------------------------------------

def run_radical(seed: int = 0, agreement_instances: int = 50) -> list:
    reports = []
    rng = random.Random(seed)

    def velu_codomain_batch():
        ok = 0
        for _ in range(20):
            F, b = _random_instance(rng, PRIMES_GENERIC)
            E = degree5_curve(b)
            phi = velu(E, Point(F.zero, F.zero))
            a4 = -5 * b * (b * b + 2 * b - 1)
            a6 = -b * (b**4 + 10 * b**3 - 5 * b * b + 15 * b - 1)
            if (
                phi.codomain.a4 == a4
                and phi.codomain.a6 == a6
                and phi.codomain.a1 == E.a1
                and phi.codomain.a2 == E.a2
                and phi.codomain.a3 == E.a3
            ):
                ok += 1
        return ok

    reports.append(
        _timed("velu-codomain-closed-form", {"instances": 20, "seed": seed}, 20,
               velu_codomain_batch)
    )

    def agreement_batch():
        ok = 0
        for _ in range(agreement_instances):
            F, b = _random_instance(rng, PRIMES_1_MOD_5, fifth_power=True)
            roots = nth_roots(b, 5)
            if len(roots) != 5:
                continue
            reference = {e.coeffs for e in velu_reference_step(b)}
            E = degree5_curve(b)
            phi = velu(E, Point(F.zero, F.zero))
            good = True
            for i, alpha in enumerate(roots):
                step = step_from_root(b, alpha, i)
                if step.b_next.coeffs not in reference:
                    good = False
                    break
                P2 = distinguished_point_5(b, alpha)
                if not phi.codomain.contains(P2):
                    good = False
                    break
                if not has_order(phi.codomain, P2, 5):
                    good = False
                    break
                if not is_distinguished(phi, P2):
                    good = False
                    break
            if good:
                ok += 1
        return ok

    reports.append(
        _timed(
            "radical-velu-agreement",
            {"instances": agreement_instances, "seed": seed},
            agreement_instances,
            agreement_batch,
        )
    )

    def chain_f13():
        F = make_field(13)
        chain = radical_chain(F.el(4), 2, policy="unique")
        first_ok = [b.to_int() for b in chain.b_values[:2]] == [4, 2]
        ref_ok = all(
            chain.b_values[i + 1].coeffs
            in {e.coeffs for e in velu_reference_step(chain.b_values[i])}
            for i in range(2)
        )
        return {"prefix": first_ok, "oracle_confirmed": ref_ok}

    reports.append(
        _timed(
            "chain-f13-oracle",
            {"p": 13, "b0": 4, "steps": 2},
            {"prefix": True, "oracle_confirmed": True},
            chain_f13,
        )
    )

    def determinism():
        F = make_field(13)
        c1 = radical_chain(F.el(4), 5, policy="unique").as_json()
        c2 = radical_chain(F.el(4), 5, policy="unique").as_json()
        return c1 == c2

    reports.append(_timed("chain-determinism", {"p": 13}, True, determinism))

    def irreducibility_f11():
        F = make_field(11)
        fifth_powers = {(F.el(v) ** 5).to_int() for v in range(1, 11)}
        for bi in range(1, 11):
            b = F.el(bi)
            crit = radical_poly_irreducible(b, 5, F)
            oracle = radical_poly_irreducible_oracle(b, 5, F)
            if crit != oracle or crit != (bi not in fifth_powers):
                return False
        return True

    reports.append(
        _timed("irreducibility-f11-vs-oracle", {"p": 11}, True, irreducibility_f11)
    )

    def irreducibility_f13():
        # gcd(5, 12) = 1 forces a linear factor: never irreducible
        F = make_field(13)
        return all(
            not radical_poly_irreducible(F.el(bi), 5, F)
            and not radical_poly_irreducible_oracle(F.el(bi), 5, F)
            for bi in range(1, 13)
        )

    reports.append(
        _timed("irreducibility-f13-always-reducible", {"p": 13}, True, irreducibility_f13)
    )
    return reports


# ---------------------------------------------------------------------------
# moduli scope
# ---------------------------------------------------------------------------

def run_moduli(
    n_values: Iterable[int] = tuple(range(5, 13)),
    seed: int = 0,
    cyclicity_instances: int = 10,
    rescale_instances: int = 5,
) -> list:
    reports = []
    rng = random.Random(seed)

    for N in n_values:
        phi_n = sum(1 for k in range(1, N) if math.gcd(k, N) == 1)

        def normality(N=N, phi_n=phi_n):
            rep = axis_subgroup_normality(N)
            witness_ok = False
            if rep.witness is not None:
                g, h, conj = rep.witness
                witness_ok = (
                    sd_mul(sd_mul(g, h), sd_inv(g)) == conj
                    and not in_axis_subgroup(conj)
                    and in_axis_subgroup(h)
                )
            return {
                "normal": rep.normal,
                "group_order": rep.group_order,
                "subgroup_order": rep.subgroup_order,
                "index": rep.group_order // rep.subgroup_order,
                "witness_validated": witness_ok,
            }

        reports.append(
            _timed(
                "axis-subgroup-not-normal",
                {"N": N},
                {
                    "normal": False,
                    "group_order": N * N * phi_n,
                    "subgroup_order": N * phi_n,
                    "index": N,
                    "witness_validated": True,
                },
                normality,
            )
        )

    def closed_form_conjugation():
        for N in n_values:
            for g in group_elements(N):
                for h in group_elements(N):
                    if not in_axis_subgroup(h):
                        continue
                    if sd_mul(sd_mul(g, h), sd_inv(g)) != conjugate_closed_form(g, h):
                        return False
            break  # the full double loop only for the first level
        return True

    reports.append(
        _timed(
            "semidirect-conjugation-closed-form",
            {"N": list(n_values)[0]},
            True,
            closed_form_conjugation,
        )
    )

    insts = marked_25_instances(max(cyclicity_instances, rescale_instances))

    def cyclicity():
        ok = 0
        for p, bi in insts[:cyclicity_instances]:
            F = make_field(p)
            E = degree5_curve(F.el(bi))
            P = Point(F.zero, F.zero)
            R = rational_point_of_order(E, 25, above=P)
            ec = MarkedPoint(E, R, 25)
            mp2, phi = proj_quotient(ec, 5)
            psi = velu(phi.codomain, mp2.point)
            # ker(psi o phi) has order 25: it is cyclic unless it is E[5],
            # and a monic kernel polynomial of degree 12 vanishing at x(R)
            # shows it holds R, of order 25
            kernel_poly = composition_kernel_polynomial(phi, psi.kernel_polynomial)
            if (len(kernel_poly) == 13 and kernel_poly[-1] == F.one
                    and poly.value_and_derivative(kernel_poly, R.x)[0].is_zero()
                    and kernel_poly != poly.monic(division_polynomial(E, 5), F)):
                ok += 1
        return ok

    reports.append(
        _timed(
            "composition-kernel-cyclic-25",
            {"instances": cyclicity_instances},
            cyclicity_instances,
            cyclicity,
        )
    )

    def rescale_checks():
        ok = 0
        for p, bi in insts[:rescale_instances]:
            F = make_field(p)
            E = degree5_curve(F.el(bi))
            P = Point(F.zero, F.zero)
            R = rational_point_of_order(E, 25, above=P)
            ec = MarkedPoint(E, R, 25)
            cur = ec
            seen = []
            for _ in range(5):
                cur = rescale(cur, 5)
                seen.append(cur.point)
            exact_order = seen[-1] == R and all(pt != R for pt in seen[:-1])
            b1 = params_of(proj_point(ec, 5)).b
            mp2, phi = proj_quotient(ec, 5)
            b2 = params_of(mp2).b
            invariant = True
            cur = ec
            for _ in range(4):
                cur = rescale(cur, 5)
                if params_of(proj_point(cur, 5)).b != b1:
                    invariant = False
                mq, _ = proj_quotient(cur, 5)
                if params_of(mq).b != b2:
                    invariant = False
            if exact_order and invariant and is_distinguished(phi, mp2.point):
                ok += 1
        return ok

    reports.append(
        _timed(
            "rescale-order-and-projection-invariance",
            {"instances": rescale_instances},
            rescale_instances,
            rescale_checks,
        )
    )

    def action_checks():
        p, bi = action_basis_instance()
        F = make_field(p)
        E = degree5_curve(F.el(bi))
        P = Point(F.zero, F.zero)
        R = rational_point_of_order(E, 25, above=P)
        basis = torsion_basis(E, 5, F)
        Gs = list(group_elements(5))
        axiom = all(
            g_action(sd_mul(g, h), E, R, basis)
            == g_action(g, E, g_action(h, E, R, basis), basis)
            for g, h in [(rng.choice(Gs), rng.choice(Gs)) for _ in range(100)]
        )
        identity_ok = g_action(sd_identity(5), E, R, basis) == R
        orbit = {g_action(g, E, R, basis) for g in Gs}
        base_beta = gamma0_invariant(
            params_of(proj_point(MarkedPoint(E, R, 25), 5)).b
        )
        betas = set()
        for g in Gs:
            Rg = g_action(g, E, R, basis)
            mp = proj_point(MarkedPoint(E, Rg, 25), 5)
            betas.add(gamma0_invariant(params_of(mp).b))
        return {
            "axiom": axiom,
            "identity": identity_ok,
            "orbit_size": len(orbit),
            "beta_invariant": betas == {base_beta},
        }

    reports.append(
        _timed(
            "torsion-action-axioms",
            {"N": 5, "seed": seed},
            {"axiom": True, "identity": True, "orbit_size": 100, "beta_invariant": True},
            action_checks,
        )
    )

    for p in (11, 31):
        def equiv_exhaustive(p=p):
            F = make_field(p)
            valid = [
                F.el(v)
                for v in range(1, p)
                if not normal_form_discriminant(F.el(v), F.el(v)).is_zero()
            ]
            for b1 in valid:
                for b2 in valid:
                    sym = b1 == b2 or b1 * b2 == F.el(-1)
                    beta_eq = gamma0_invariant(b1) == gamma0_invariant(b2)
                    if gamma0_equiv(b1, b2) != sym or sym != beta_eq:
                        return False
            return True

        reports.append(
            _timed("gamma0-equivalence-exhaustive", {"p": p}, True, equiv_exhaustive)
        )

    def beta_symmetry():
        F = make_field(31)
        for v in range(1, 31):
            b = F.el(v)
            if gamma0_invariant(b) != gamma0_invariant(-(b.inverse())):
                return False
        return True

    reports.append(_timed("beta-symmetry", {"p": 31}, True, beta_symmetry))
    return reports


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_scope(scope: str, n_values=None, seed: int = 0) -> list:
    if scope == "groups":
        return run_groups(n_values or (4, 5, 6, 7), seed)
    if scope == "pairing":
        return run_pairing(seed)
    if scope == "radical":
        return run_radical(seed)
    if scope == "moduli":
        return run_moduli(n_values or tuple(range(5, 13)), seed)
    if scope == "all":
        out = []
        out += run_groups((4, 5, 6, 7), seed)
        out += run_pairing(seed)
        out += run_radical(seed)
        out += run_moduli(tuple(range(5, 13)), seed)
        return out
    raise ValueError(f"unknown scope {scope!r}")
