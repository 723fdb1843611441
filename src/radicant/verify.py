"""Claim registry: every finite-level statement the tool checks, as data.

Each claim runs an honest computation and records expected vs computed
values in a Report row.  A claim with more than a one-line computation is
a module-level function of explicit inputs: sampled claims draw from the
`random.Random` they are given, and `run_<scope>(seed)` passes one
`Random(seed)` through its claims in a fixed order.  The CLI serializes
the rows.  The acceptance tests assert them: A1-A3 call their sampled
claims at seeds 1-3, and the other criteria read the rows of
`verify --scope all` at seed 0.  Claims are grouped into scopes: groups,
pairing, radical, moduli.
"""

from __future__ import annotations

import itertools
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
    degree5_degenerate,
    enumerate_points,
    has_order,
    points_of_order,
    torsion_basis,
)
from .errors import RadicantError
from .field import FieldCtx, make_field, nth_roots
from .isogeny import (
    composition_kernel_polynomial,
    dual_isogeny,
    is_distinguished,
    points_above,
    velu,
)
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
    _rational_successors,
    _velu_reference,
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
        if not degree5_degenerate(b):
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


def torsion_instances(primes: Iterable[int], full_basis: bool = False):
    """Yield (b, E_b, R), in order of p in `primes` and then of b, for the
    valid b over F_p whose curve has a rational point R of order 25 over
    the marked point (0, 0); R is the first of `points_above`, which is the
    first in enumeration order.  With `full_basis`, only curves whose
    5-torsion is fully rational as well.  Nothing is enumerated: R gives
    25 | #E, and R with the 24 points of order 5 gives 125 | #E."""
    for p in primes:
        F = make_field(p)
        for bi in range(1, p):
            b = F.el(bi)
            if degree5_degenerate(b):
                continue
            E = degree5_curve(b)
            above = points_above(E, Point(F.zero, F.zero))
            if not above:
                continue
            if full_basis and len(points_of_order(E, 5)) != 25 - 1:
                continue
            yield b, E, above[0]


# ---------------------------------------------------------------------------
# groups scope
# ---------------------------------------------------------------------------

def rescaled_level(N: int) -> list:
    """At M = N^2: the rescaled group has order N^3, Gamma1(M) is normal in
    it, and the indices of Gamma(M) < Gamma1(M) < rescaled multiply."""
    M = N * N
    rescaled = modgroup.SubgroupSpec("gamma1_rescaled", N, M)
    g1_n2 = modgroup.SubgroupSpec("gamma1", M, M)
    gamma_n2 = modgroup.SubgroupSpec("gamma", M, M)
    return [
        _timed("rescaled-subgroup-order", {"N": N}, N**3,
               lambda: modgroup.subgroup_order(rescaled)),
        _timed("gamma1-n2-normal-in-rescaled", {"N": N}, True,
               lambda: modgroup.is_normal(g1_n2, rescaled).normal),
        _timed("index-multiplicativity", {"N": N}, True,
               lambda: modgroup.index(gamma_n2, rescaled)
               == modgroup.index(g1_n2, rescaled) * modgroup.index(gamma_n2, g1_n2)),
    ]


def conjugation_closed_form() -> Report:
    """t^-1 u t for every unipotent u of SL2(Z/25) matches the closed form
    and lies in Gamma1(25), t the rescale matrix at N = 5."""
    def all_b():
        t5 = modgroup.rescale_matrix(5)
        ti = t5.inv()
        g1_25 = modgroup.SubgroupSpec("gamma1", 25, 25)
        for b in range(25):
            conj = ti * modgroup.Mat2(1, b, 0, 1, 25) * t5
            if conj.entries() != modgroup.conjugation_closed_form(5, b).entries():
                return False
            if not modgroup.member(conj, g1_25):
                return False
        return True

    return _timed("conjugation-closed-form", {"N": 5, "all_b": True}, True, all_b)


def run_groups(n_values: Iterable[int] = (4, 5, 6, 7)) -> list:
    g1_25 = modgroup.SubgroupSpec("gamma1", 25, 25)
    rescaled5 = modgroup.SubgroupSpec("gamma1_rescaled", 5, 25)
    t = modgroup.rescale_matrix(5)
    return [
        _timed("sl2-order-2-exhaustive", {"M": 2}, 6, lambda: modgroup.sl2_count(2)),
        _timed("sl2-order-5-exhaustive", {"M": 5}, 120, lambda: modgroup.sl2_count(5)),
        _timed(
            "sl2-order-25-exhaustive-vs-formula",
            {"M": 25},
            {"count": 15000, "formula": 15000},
            lambda: {
                "count": modgroup.sl2_count(25),
                "formula": modgroup.sl2_count_formula(25),
            },
        ),
        _timed(
            "sl2-formula-agreement-upto-30",
            {"range": "2..30"},
            True,
            lambda: all(
                modgroup.sl2_count(M) == modgroup.sl2_count_formula(M)
                for M in range(2, 31)
            ),
        ),
        *(r for N in n_values for r in rescaled_level(N)),
        _timed(
            "gamma1-25-order", {"M": 25}, 25, lambda: modgroup.subgroup_order(g1_25)
        ),
        _timed(
            "index-rescaled5-gamma1-25",
            {"N": 5},
            5,
            lambda: modgroup.index(g1_25, rescaled5),
        ),
        _timed(
            "index-gamma1-5-gamma1-25",
            {"N": 5},
            25,
            lambda: modgroup.index(g1_25, modgroup.SubgroupSpec("gamma1", 5, 25)),
        ),
        _timed(
            "gamma0-4-index",
            {"M": 4},
            6,
            lambda: modgroup.sl2_count(4)
            // modgroup.subgroup_order(modgroup.SubgroupSpec("gamma0", 4, 4)),
        ),
        _timed(
            "principal-5-normal-in-sl2",
            {"N": 5},
            True,
            lambda: modgroup.is_normal(
                modgroup.SubgroupSpec("gamma", 5, 5),
                modgroup.SubgroupSpec("full", 5, 5),
            ).normal,
        ),
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
        ),
        conjugation_closed_form(),
    ]


# ---------------------------------------------------------------------------
# pairing scope
# ---------------------------------------------------------------------------

def radicand_miller_exact(rng: random.Random, seed: int) -> Report:
    """f_{5,P}(-P) = b exactly on 50 sampled E_b over F_p, p = 1 (mod 5);
    a value off b still counts toward class_ok when it is b times a fifth
    power.  `seed` labels the row; the draws come from `rng`."""
    instances = 50

    def batch():
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

    return _timed(
        "radicand-miller-exact",
        {"instances": instances, "seed": seed},
        {"exact": instances, "class_ok": instances},
        batch,
    )


def pairing_properties_f31(rng: random.Random) -> Report:
    """Weil and Tate pairing axioms on E_11 over F_31; the bilinearity
    pairs are drawn from `rng`."""
    def properties():
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

    return _timed(
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
        properties,
    )


def radicand_class_vs_tate(rng: random.Random, seed: int) -> Report:
    """The radicand's fifth-power class is the reduced Tate pairing
    t(P, -P) on 20 sampled E_b over F_p, p = 1 (mod 5)."""
    trials = 20

    def batch():
        ok = 0
        for _ in range(trials):
            F, b = _random_instance(rng, PRIMES_1_MOD_5)
            E = degree5_curve(b)
            P = Point(F.zero, F.zero)
            rho = radicand(TateParams(b, b, 5))
            if rho ** ((F.p - 1) // 5) == tate_reduced(E, P, E.neg(P), 5):
                ok += 1
        return ok

    return _timed(
        "radicand-class-vs-tate", {"instances": trials, "seed": seed}, trials, batch
    )


def run_pairing(seed: int = 0) -> list:
    rng = random.Random(seed)
    return [
        radicand_miller_exact(rng, seed),
        pairing_properties_f31(rng),
        radicand_class_vs_tate(rng, seed),
    ]


# ---------------------------------------------------------------------------
# radical scope
# ---------------------------------------------------------------------------

def velu_codomain_closed_form(rng: random.Random, seed: int) -> Report:
    """E_b / <(0, 0)> has the closed-form a4, a6 and E_b's a1, a2, a3 on
    20 sampled E_b over F_p, p != 5."""
    instances = 20

    def batch():
        ok = 0
        for _ in range(instances):
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

    return _timed(
        "velu-codomain-closed-form",
        {"instances": instances, "seed": seed},
        instances,
        batch,
    )


def radical_velu_agreement(rng: random.Random, seed: int) -> Report:
    """On 50 sampled fifth powers b over F_p, p = 1 (mod 5), each of the
    five radical successors is a Velu reference successor, and its
    distinguished point lies on E_b / <(0, 0)>, has order 5 and is
    distinguished there.  An instance counts only when all five agree."""
    instances = 50

    def batch():
        ok = 0
        for _ in range(instances):
            _, b = _random_instance(rng, PRIMES_1_MOD_5, fifth_power=True)
            roots = nth_roots(b, 5)
            if len(roots) != 5:
                continue
            # one dual serves the reference successors and is_distinguished
            dual, b_map = _velu_reference(b)
            reference = {e.coeffs for e in _rational_successors(dual, b_map)}
            phi = dual.forward
            for i, alpha in enumerate(roots):
                if step_from_root(b, alpha, i).b_next.coeffs not in reference:
                    break
                P2 = distinguished_point_5(b, alpha)
                if not (phi.codomain.contains(P2) and has_order(phi.codomain, P2, 5)
                        and is_distinguished(dual, P2)):
                    break
            else:
                ok += 1
        return ok

    return _timed(
        "radical-velu-agreement",
        {"instances": instances, "seed": seed},
        instances,
        batch,
    )


def chain_f13_oracle() -> Report:
    def check():
        F = make_field(13)
        chain = radical_chain(F.el(4), 2, policy="unique")
        first_ok = [b.to_int() for b in chain.b_values[:2]] == [4, 2]
        ref_ok = all(
            chain.b_values[i + 1].coeffs
            in {e.coeffs for e in velu_reference_step(chain.b_values[i])}
            for i in range(2)
        )
        return {"prefix": first_ok, "oracle_confirmed": ref_ok}

    return _timed(
        "chain-f13-oracle",
        {"p": 13, "b0": 4, "steps": 2},
        {"prefix": True, "oracle_confirmed": True},
        check,
    )


def irreducibility_f11_vs_oracle() -> Report:
    """x^5 - b over F_11 is irreducible exactly when b is no fifth power,
    by the criterion and by the factoring oracle alike."""
    def check():
        F = make_field(11)
        fifth_powers = {(F.el(v) ** 5).to_int() for v in range(1, 11)}
        for bi in range(1, 11):
            b = F.el(bi)
            crit = radical_poly_irreducible(b, 5, F)
            oracle = radical_poly_irreducible_oracle(b, 5, F)
            if crit != oracle or crit != (bi not in fifth_powers):
                return False
        return True

    return _timed("irreducibility-f11-vs-oracle", {"p": 11}, True, check)


def irreducibility_f13_always_reducible() -> Report:
    def check():
        # gcd(5, 12) = 1 forces a linear factor: never irreducible
        F = make_field(13)
        return all(
            not radical_poly_irreducible(F.el(bi), 5, F)
            and not radical_poly_irreducible_oracle(F.el(bi), 5, F)
            for bi in range(1, 13)
        )

    return _timed("irreducibility-f13-always-reducible", {"p": 13}, True, check)


def run_radical(seed: int = 0) -> list:
    rng = random.Random(seed)
    F13 = make_field(13)
    return [
        velu_codomain_closed_form(rng, seed),
        radical_velu_agreement(rng, seed),
        chain_f13_oracle(),
        _timed(
            "chain-determinism",
            {"p": 13},
            True,
            lambda: radical_chain(F13.el(4), 5, policy="unique").as_json()
            == radical_chain(F13.el(4), 5, policy="unique").as_json(),
        ),
        irreducibility_f11_vs_oracle(),
        irreducibility_f13_always_reducible(),
    ]


# ---------------------------------------------------------------------------
# moduli scope
# ---------------------------------------------------------------------------

def axis_subgroup_not_normal(N: int) -> Report:
    """The axis subgroup of (Z/N)^2 x| (Z/N)^x is not normal, with a
    conjugation witness that checks out."""
    phi_n = sum(1 for k in range(1, N) if math.gcd(k, N) == 1)

    def normality():
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

    return _timed(
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


def semidirect_conjugation_closed_form(N: int) -> Report:
    """g h g^-1 matches the closed form for every g and every axis h."""
    def check():
        G = list(group_elements(N))
        return all(
            sd_mul(sd_mul(g, h), sd_inv(g)) == conjugate_closed_form(g, h)
            for g in G
            for h in G
            if in_axis_subgroup(h)
        )

    return _timed("semidirect-conjugation-closed-form", {"N": N}, True, check)


def composition_kernel_cyclic_25(instances: list) -> Report:
    """For (b, E, R) from `torsion_instances`, the kernel of psi o phi,
    phi = E -> E/<5R> and psi the quotient by phi(R), is the cyclic
    group <R> of order 25: its kernel polynomial has the x-coordinates of
    <R> as roots.  <R> holds R, of order 25, so it is not E[5]."""
    def count():
        ok = 0
        for b, E, R in instances:
            mp2, phi = proj_quotient(MarkedPoint(E, R, 25), 5)
            psi = velu(phi.codomain, mp2.point)
            kernel_poly = composition_kernel_polynomial(phi, psi.kernel_polynomial)
            cyclic = E.subgroup(R)
            xs = {Q.x.coeffs: Q.x for Q in cyclic[1:]}
            if len(cyclic) == 25 and kernel_poly == poly.from_roots(xs.values(), b.ctx):
                ok += 1
        return ok

    return _timed(
        "composition-kernel-cyclic-25",
        {"instances": len(instances)},
        len(instances),
        count,
    )


def rescale_order_and_projection_invariance(instances: list) -> Report:
    """On each (b, E, R) from `torsion_instances`, the rescale operator
    has exact order 5 on R, both projections to level 5 are invariant
    under it, and phi(R) is distinguished on the quotient."""
    def count():
        ok = 0
        for _, E, R in instances:
            orbit = [MarkedPoint(E, R, 25)]
            for _ in range(5):
                orbit.append(rescale(orbit[-1], 5))
            exact_order = orbit[5].point == R and all(m.point != R for m in orbit[1:5])
            b1 = params_of(proj_point(orbit[0], 5)).b
            mp2, phi = proj_quotient(orbit[0], 5)
            b2 = params_of(mp2).b
            invariant = all(
                params_of(proj_point(m, 5)).b == b1
                and params_of(proj_quotient(m, 5)[0]).b == b2
                for m in orbit[1:5]
            )
            if exact_order and invariant and is_distinguished(dual_isogeny(phi), mp2.point):
                ok += 1
        return ok

    return _timed(
        "rescale-order-and-projection-invariance",
        {"instances": len(instances)},
        len(instances),
        count,
    )


def torsion_action_axioms(rng: random.Random, seed: int) -> Report:
    """The action of (Z/5)^2 x| (Z/5)^x on order-25 points over the marked
    point, on the first curve over F_251, F_401 or F_601 with fully
    rational 5-torsion: 100 sampled axiom pairs, the identity, the orbit
    of R, and the Gamma0 invariant along it."""
    def checks():
        _, E, R = next(torsion_instances((251, 401, 601), full_basis=True))
        basis = torsion_basis(E, 5, E.ctx)
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

    return _timed(
        "torsion-action-axioms",
        {"N": 5, "seed": seed},
        {"axiom": True, "identity": True, "orbit_size": 100, "beta_invariant": True},
        checks,
    )


def gamma0_equivalence_exhaustive(p: int) -> Report:
    """Over F_p, for every pair of valid b: gamma0_equiv, the relation
    b2 in {b1, -1/b1} and equal Gamma0 invariants agree."""
    def check():
        F = make_field(p)
        valid = [
            F.el(v)
            for v in range(1, p)
            if not degree5_degenerate(F.el(v))
        ]
        for b1 in valid:
            for b2 in valid:
                sym = b1 == b2 or b1 * b2 == F.el(-1)
                beta_eq = gamma0_invariant(b1) == gamma0_invariant(b2)
                if gamma0_equiv(b1, b2) != sym or sym != beta_eq:
                    return False
        return True

    return _timed("gamma0-equivalence-exhaustive", {"p": p}, True, check)


def beta_symmetry() -> Report:
    def check():
        F = make_field(31)
        return all(
            gamma0_invariant(F.el(v)) == gamma0_invariant(-(F.el(v).inverse()))
            for v in range(1, 31)
        )

    return _timed("beta-symmetry", {"p": 31}, True, check)


def run_moduli(n_values: Iterable[int] = tuple(range(5, 13)), seed: int = 0) -> list:
    rng = random.Random(seed)
    n_values = tuple(n_values)
    marked = list(itertools.islice(torsion_instances(PRIMES_1_MOD_25), 10))
    return [
        *(axis_subgroup_not_normal(N) for N in n_values),
        semidirect_conjugation_closed_form(n_values[0]),
        composition_kernel_cyclic_25(marked),
        rescale_order_and_projection_invariance(marked[:5]),
        torsion_action_axioms(rng, seed),
        gamma0_equivalence_exhaustive(11),
        gamma0_equivalence_exhaustive(31),
        beta_symmetry(),
    ]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_RUNNERS = {
    "groups": lambda levels, seed: run_groups(**levels),
    "pairing": lambda levels, seed: run_pairing(seed),
    "radical": lambda levels, seed: run_radical(seed),
    "moduli": lambda levels, seed: run_moduli(seed=seed, **levels),
}


def run_scope(scope: str, n_values=None, seed: int = 0) -> list:
    """The rows of one scope; `n_values` replaces the default levels of
    groups and moduli, and is refused for the other scopes and when it
    holds no level.  "all" concatenates every scope, in SCOPES order, at its
    default levels."""
    if scope != "all" and scope not in _RUNNERS:
        raise ValueError(f"unknown scope {scope!r}")
    if n_values is not None:
        if scope not in ("groups", "moduli"):
            raise ValueError(f"--n sets the levels of the scopes groups and moduli only, "
                             f"not of {scope!r}")
        if not n_values:
            raise ValueError("no level given")
    if scope == "all":
        return [r for s in SCOPES for r in run_scope(s, seed=seed)]
    return _RUNNERS[scope]({} if n_values is None else {"n_values": n_values}, seed)
