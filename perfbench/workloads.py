"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Each workload turns ``--seed`` into a plan: a list of rounds, every round
the same mix of strata (field sizes, routes or facts), so every run measures
the same mix of costs and only the drawn parameters change with the seed.  An
operation calls the public functions of ``radicant`` through their modules
(``radical.radical_chain``, ...), so a tracer that rebinds those names sees
every call.  Gates run after the timed loop and never inside it.
"""

from __future__ import annotations

import hashlib
import math
import random

from radicant import curve, field, isogeny, modgroup, moduli, pairing, radical
from radicant.errors import DegenerateStep, NoRootError

# Outcomes a caller can act on: a chain that meets a pole or a missing root
# is a mathematical answer, not a malfunction.
TYPED_OUTCOMES = (DegenerateStep, NoRootError)

CHAIN_STEPS = 100  # steps per walk chain; one chain per field and round


def _valid(b) -> bool:
    return not b.is_zero() and not curve.normal_form_discriminant(b, b).is_zero()


def _coeffs(x):
    return list(x.coeffs)


def _quotient_j(E):
    """j-invariant of E/<(0,0)>, the Velu quotient by the marked 5-point."""
    zero = E.ctx.zero
    return isogeny.velu(E, curve.Point(zero, zero)).codomain.j_invariant()


def _j_gate(b, b_next) -> bool:
    """The quotient by the marked 5-point and the successor curve are
    isomorphic; checked through j-invariants, independent of the radical
    formula."""
    return _quotient_j(curve.degree5_curve(b)) == curve.degree5_curve(b_next).j_invariant()


def _fresh_values(rng, F, count, draw):
    """``count`` distinct valid parameters drawn by ``draw(rng, F)``, so no
    (field, b) instance repeats within a run and no cache can answer it."""
    seen, out = set(), []
    while len(out) < count:
        b = draw(rng, F)
        if _valid(b) and b.coeffs not in seen:
            seen.add(b.coeffs)
            out.append(b)
    return out


class Workload:
    """Base: a seeded plan of rounds plus the operation and its gate."""

    name = ""
    # rounds measured even when --seconds has passed: enough operations that
    # the seed-to-seed spread of a run's throughput stays inside its bound
    min_rounds = 1

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rounds = self.plan()

    def plan(self) -> list:
        raise NotImplementedError

    def ops(self, inst) -> int:
        """Operations one instance stands for (chain steps for a walk)."""
        return 1

    def run(self, inst):
        raise NotImplementedError

    def gate(self, inst, out) -> bool:
        raise NotImplementedError

    def describe(self, inst) -> list:
        """JSON-able form of an instance, for the input digest."""
        raise NotImplementedError

    def digest_output(self, out) -> list:
        raise NotImplementedError

    def stratum(self, inst) -> str:
        return str(inst[0])

    def probe(self) -> dict:
        """Known-defect instances, run outside the timed loop; see README."""
        return {}

    def inputs_digest(self) -> str:
        text = repr([[self.describe(i) for i in r] for r in self.rounds])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Walk(Workload):
    """Radical chains under policy 'unique' over fields with gcd(5, q-1) = 1."""

    max_rounds = 1000
    min_rounds = 10
    fields = ()  # (label, p, k)

    def plan(self):
        self.ctx = {label: field.make_field(p, k) for label, p, k in self.fields}
        starts = {
            label: _fresh_values(self.rng, F, self.max_rounds,
                                 lambda rng, F: F.random_element(rng))
            for label, F in self.ctx.items()
        }
        return [[(label, starts[label][r]) for label in self.ctx]
                for r in range(self.max_rounds)]

    def ops(self, inst):
        return CHAIN_STEPS

    def run(self, inst):
        return radical.radical_chain(inst[1], CHAIN_STEPS, "unique").b_values

    def gate(self, inst, out):
        if len(out) != CHAIN_STEPS + 1:
            return False
        E = curve.degree5_curve(out[0])
        for b_next in out[1:]:  # each curve serves as successor, then as domain
            E_next = curve.degree5_curve(b_next)
            if _quotient_j(E) != E_next.j_invariant():
                return False
            E = E_next
        return True

    def describe(self, inst):
        return [inst[0], _coeffs(inst[1])]

    def digest_output(self, out):
        return [_coeffs(b) for b in out]


class WalkFp(Walk):
    name = "walk_fp"
    # p = 2 or 3 mod 5 near 2^20, 2^31 and 2^61 (the 63-bit field limit
    # leaves room for p^1 only at the top size)
    fields = (("p20", 1048583, 1), ("p31", 2147483659, 1),
              ("p61", 2305843009213693907, 1))


class WalkFp2(Walk):
    name = "walk_fp2"
    max_rounds = 300
    # p = +-2 mod 5, so q = p^2 = 4 mod 5 and the fifth root is unique;
    # make_field(p, 2) scans O(p) prefixes, which caps p near 10^4
    fields = (("p1013", 1013, 2), ("p10007", 10007, 2))


class Roots(Workload):
    """Single steps that must choose one of five fifth roots (5 | q - 1)."""

    name = "roots"
    max_rounds = 200  # F_{59^2} has 696 fifth powers
    min_rounds = 10
    # v_5(q - 1) = 1..6 over F_p, then F_{p^2} with p = 4 mod 5.  A step
    # searches the 5-Sylow coset, so its cost is uniform between 0 and 5^v
    # tries; from v_5 = 7 (1093751: 0-0.18 s) that draw would decide a run's
    # figure.  The root-of-unity scan over F_{p^2} is O(p): about 1 s per
    # step at p = 3019 and 4 s at 10009, so the largest here is 1009.  The
    # v_5 = 9 field 50781251 is the known Sylow-ceiling defect: see probe().
    fields = (
        ("v1", 1000081, 1), ("v2", 1000151, 1), ("v3", 1001501, 1),
        ("v4", 1020001, 1), ("v5", 1068751, 1), ("v6", 1125001, 1),
        ("p59^2", 59, 2), ("p199^2", 199, 2), ("p1009^2", 1009, 2),
    )
    probe_field = (50781251, 1)

    @staticmethod
    def _fifth_power(rng, F):
        return F.random_element(rng) ** 5

    def plan(self):
        self.ctx = {label: field.make_field(p, k) for label, p, k in self.fields}
        params = {
            label: _fresh_values(self.rng, F, self.max_rounds, self._fifth_power)
            for label, F in self.ctx.items()
        }
        return [[(label, params[label][r], self.rng.randrange(5))
                 for label in self.ctx] for r in range(self.max_rounds)]

    def run(self, inst):
        step = radical.radical_step_5(inst[1], f"index:{inst[2]}")
        return step.alpha, step.b_next

    def gate(self, inst, out):
        alpha, b_next = out
        return alpha**5 == inst[1] and _j_gate(inst[1], b_next)

    def describe(self, inst):
        return [inst[0], _coeffs(inst[1]), inst[2]]

    def digest_output(self, out):
        return [_coeffs(out[0]), _coeffs(out[1])]

    def probe(self):
        F = field.make_field(*self.probe_field)
        b = _fresh_values(self.rng, F, 1, self._fifth_power)[0]
        return {"roots_sylow_v5_9": _probe_outcome(
            lambda: radical.radical_step_5(b, f"index:{self.rng.randrange(5)}"),
            {"p": F.p, "b": b.to_int()})}


class Oracle(Workload):
    """Radical steps cross-checked against the Velu/dual/pairing oracles.

    One round per run.  Over p = 1 mod 5 the cost of an instance swings
    about ninefold with b, so the round takes every valid fifth power at
    31, 41 and 61 (the seed sets their order): a seed-drawn subset would make
    the run's cost depend on the draw.  The F_{p^4} route costs about the
    same for every b, so there the seed draws b.
    """

    name = "oracle"
    # p = 2, 3 mod 5: velu_chain builds F_{p^4} for the dual on every call,
    # 0.7 s at p = 13 and 1.3 s at 17; 3-5 s at 23 would dominate the round,
    # and p = 37..47 takes 20-37 s per step.
    sampled_primes = (13, 17)
    # p = 1 mod 5, b a fifth power: all five successors, rational dual route
    rational_primes = (31, 41, 61)
    # p = 4 mod 5 fails to build the dual for every b tried; runs in probe()
    probe_prime = 19

    def plan(self):
        insts = []
        for p in self.sampled_primes + self.rational_primes:
            F = field.make_field(p)
            values = [F.el(v) for v in range(1, p)]
            if p % 5 == 1:
                values = list({(v**5).coeffs: v**5 for v in values}.values())
            values = sorted((b for b in values if _valid(b)), key=lambda b: b.coeffs)
            self.rng.shuffle(values)
            insts += [(p, b) for b in (values if p % 5 == 1 else values[:1])]
        return [insts]

    def run(self, inst):
        p, b = inst
        if p % 5 == 1:
            ref = radical.velu_reference_step(b)
            rad = [radical.radical_step_5(b, f"index:{i}").b_next for i in range(5)]
        else:
            ref = radical.velu_chain(b, 1).b_values
            rad = radical.radical_chain(b, 1, "unique").b_values
        E = curve.degree5_curve(b)
        P = curve.Point(b.ctx.zero, b.ctx.zero)
        return ref, rad, pairing.miller(E, P, E.neg(P), 5)

    def gate(self, inst, out):
        p, b = inst
        ref, rad, miller_value = out
        if p % 5 == 1:  # two roots may share a successor, so compare sets
            agree = sorted(set(rad), key=lambda e: e.coeffs) == list(ref)
        else:
            agree = tuple(ref) == tuple(rad)
        return agree and miller_value == b

    def describe(self, inst):
        return [inst[0], inst[1].to_int()]

    def digest_output(self, out):
        ref, rad, miller_value = out
        return [[e.to_int() for e in ref], [e.to_int() for e in rad], miller_value.to_int()]

    def probe(self):
        F = field.make_field(self.probe_prime)
        b = _fresh_values(self.rng, F, 1, lambda rng, F: F.el(rng.randrange(1, F.p)))[0]
        return {"oracle_dual_p4mod5": _probe_outcome(
            lambda: self.run((F.p, b)), {"p": F.p, "b": b.to_int()})}


class Groups(Workload):
    """A fixed set of exhaustive finite-group facts; the seed changes nothing."""

    name = "groups"

    def plan(self):
        facts = [("sl2_count", M) for M in range(2, 31)]
        for N in (4, 5, 6, 7):
            facts += [("rescaled_order", N), ("gamma1_n2_normal", N), ("index_mult", N)]
        facts += [("axis_normality", N) for N in range(5, 13)]
        F = field.make_field(31)
        valid = [v for v in range(1, 31) if _valid(F.el(v))]
        facts += [("gamma0_equiv", b1, b2) for b1 in valid for b2 in valid]
        self.F31 = F
        self.expected = {f: self._expected(f) for f in facts}
        return [facts]

    def _expected(self, fact):
        kind = fact[0]
        if kind == "sl2_count":
            return modgroup.sl2_count_formula(fact[1])
        if kind == "rescaled_order":
            return fact[1] ** 3
        if kind in ("gamma1_n2_normal", "index_mult"):
            return True
        if kind == "axis_normality":
            N = fact[1]
            phi_n = sum(1 for k in range(1, N) if math.gcd(k, N) == 1)
            return (False, N * N * phi_n, N * phi_n, True)
        b1, b2 = fact[1], fact[2]
        same_class = b1 == b2 or (b1 * b2) % 31 == 30
        return (same_class, same_class)

    def run(self, fact):
        kind, N = fact[0], fact[1]
        if kind == "sl2_count":
            return modgroup.sl2_count(N)
        if kind == "gamma0_equiv":
            b1, b2 = self.F31.el(fact[1]), self.F31.el(fact[2])
            return (moduli.gamma0_equiv(b1, b2),
                    moduli.gamma0_invariant(b1) == moduli.gamma0_invariant(b2))
        M = N * N
        spec = modgroup.SubgroupSpec
        if kind == "rescaled_order":
            return modgroup.subgroup_order(spec("gamma1_rescaled", N, M))
        if kind == "gamma1_n2_normal":
            return modgroup.is_normal(spec("gamma1", M, M), spec("gamma1_rescaled", N, M)).normal
        if kind == "index_mult":
            rescaled, g1, gamma = (spec("gamma1_rescaled", N, M), spec("gamma1", M, M),
                                   spec("gamma", M, M))
            return (modgroup.index(gamma, rescaled)
                    == modgroup.index(g1, rescaled) * modgroup.index(gamma, g1))
        if kind == "axis_normality":
            rep = moduli.axis_subgroup_normality(N)
            witness_ok = False
            if rep.witness is not None:
                g, h, conj = rep.witness
                witness_ok = (moduli.sd_mul(moduli.sd_mul(g, h), moduli.sd_inv(g)) == conj
                              and not moduli.in_axis_subgroup(conj)
                              and moduli.in_axis_subgroup(h))
            return (rep.normal, rep.group_order, rep.subgroup_order, witness_ok)
        raise ValueError(f"unknown fact {fact!r}")

    def gate(self, fact, out):
        return out == self.expected[fact]

    def describe(self, fact):
        return list(fact)

    def digest_output(self, out):
        return out


def _probe_outcome(call, instance) -> dict:
    """Run a known-defect instance; 'reproduced' while the defect stands."""
    try:
        call()
    except Exception as exc:  # the defect shows as an error of some type
        return {"instance": instance, "status": "reproduced",
                "error": f"{type(exc).__name__}: {exc}"}
    return {"instance": instance, "status": "no longer fails"}


WORKLOADS = {cls.name: cls for cls in (WalkFp, WalkFp2, Roots, Oracle, Groups)}
