"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime and enforcing the stated budget."""

import math
import random
import time

import pytest

from radicant import curve as curve_mod
from radicant import modgroup, poly, verify
from radicant.curve import (
    Point,
    degree5_curve,
    division_polynomial,
    normal_form_discriminant,
    point_order,
    rational_point_of_order,
)
from radicant.field import make_field, nth_roots
from radicant.isogeny import composition_kernel_polynomial, is_distinguished, velu
from radicant.moduli import (
    MarkedPoint,
    axis_subgroup_normality,
    gamma0_equiv,
    gamma0_invariant,
    in_axis_subgroup,
    params_of,
    proj_point,
    proj_quotient,
    rescale,
    sd_inv,
    sd_mul,
)
from radicant.pairing import miller
from radicant.radical import (
    distinguished_point_5,
    radical_chain,
    radical_poly_irreducible,
    radical_poly_irreducible_oracle,
    step_from_root,
    velu_chain,
    velu_reference_step,
)
from radicant.verify import PRIMES_1_MOD_5, _random_instance


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def test_a1_radicand_identity():
    with Budget("A1 radicand identity", 5.0):
        rng = random.Random(1)
        exact = 0
        diagnostics_ok = True
        for _ in range(50):
            F, b = _random_instance(rng, PRIMES_1_MOD_5)
            E = degree5_curve(b)
            P = Point(F.zero, F.zero)
            val = miller(E, P, E.neg(P), 5)
            if val == b:
                exact += 1
            elif not nth_roots(val / b, 5):
                diagnostics_ok = False
        assert diagnostics_ok, "a mismatch factor was not a fifth power"
        assert exact >= 48, f"only {exact}/50 exact"
        assert exact == 50, f"{exact}/50 exact (target is 50/50)"


def test_a2_velu_codomain():
    with Budget("A2 Velu codomain coefficients", 1.0):
        rng = random.Random(2)
        for _ in range(20):
            F, b = _random_instance(rng, verify.PRIMES_GENERIC)
            E = degree5_curve(b)
            phi = velu(E, Point(F.zero, F.zero))
            assert phi.codomain.a4 == -5 * b * (b * b + 2 * b - 1)
            assert phi.codomain.a6 == -b * (
                b**4 + 10 * b**3 - 5 * b * b + 15 * b - 1
            )


def test_a3_radical_velu_agreement():
    with Budget("A3 radical/Velu agreement", 60.0):
        rng = random.Random(3)
        for _ in range(50):
            F, b = _random_instance(rng, PRIMES_1_MOD_5, fifth_power=True)
            roots = nth_roots(b, 5)
            assert len(roots) == 5
            reference = {e.coeffs for e in velu_reference_step(b)}
            E = degree5_curve(b)
            phi = velu(E, Point(F.zero, F.zero))
            for i, alpha in enumerate(roots):
                assert step_from_root(b, alpha, i).b_next.coeffs in reference
                P2 = distinguished_point_5(b, alpha)
                assert phi.codomain.contains(P2)
                assert point_order(phi.codomain, P2) == 5
                assert is_distinguished(phi, P2)


def test_a4_composition_cyclicity():
    with Budget("A4 composition kernel cyclic of order 25", 120.0):
        instances = verify.marked_25_instances(10)
        assert len(instances) == 10
        for p, bi in instances:
            F = make_field(p)
            E = degree5_curve(F.el(bi))
            P = Point(F.zero, F.zero)
            R = rational_point_of_order(E, 25, above=P)
            mp2, phi = proj_quotient(MarkedPoint(E, R, 25), 5)
            psi = velu(phi.codomain, mp2.point)
            # ker(psi o phi) is <R>, cyclic of order 25, and not E[5]
            cyclic = E.subgroup(R)
            assert len(cyclic) == 25
            kernel_poly = composition_kernel_polynomial(phi, psi.kernel_polynomial)
            xs = {Q.x.coeffs: Q.x for Q in cyclic[1:]}
            assert kernel_poly == poly.from_roots(xs.values(), F)
            assert kernel_poly != poly.monic(division_polynomial(E, 5), F)


def test_a5_group_counts_and_indices():
    with Budget("A5 group counts and indices", 30.0):
        assert modgroup.sl2_count(25) == 15000 == modgroup.sl2_count_formula(25)
        assert (
            modgroup.subgroup_order(modgroup.SubgroupSpec("gamma1_rescaled", 5, 25))
            == 125
        )
        g1_25 = modgroup.SubgroupSpec("gamma1", 25, 25)
        assert (
            modgroup.index(g1_25, modgroup.SubgroupSpec("gamma1_rescaled", 5, 25)) == 5
        )
        assert modgroup.index(g1_25, modgroup.SubgroupSpec("gamma1", 5, 25)) == 25
        for N in (4, 5, 6, 7):
            assert (
                modgroup.subgroup_order(
                    modgroup.SubgroupSpec("gamma1_rescaled", N, N * N)
                )
                == N**3
            )


def test_a6_normality_and_conjugation():
    with Budget("A6 normality and conjugation congruence", 30.0):
        for N in (4, 5, 6, 7):
            rep = modgroup.is_normal(
                modgroup.SubgroupSpec("gamma1", N * N, N * N),
                modgroup.SubgroupSpec("gamma1_rescaled", N, N * N),
            )
            assert rep.normal
        t = modgroup.rescale_matrix(5)
        ti = t.inv()
        g1_25 = modgroup.SubgroupSpec("gamma1", 25, 25)
        for b in range(25):
            conj = ti * modgroup.Mat2(1, b, 0, 1, 25) * t
            assert conj.entries() == modgroup.conjugation_closed_form(5, b).entries()
            assert modgroup.member(conj, g1_25)


def test_a7_main_theorem():
    with Budget("A7 axis subgroup not normal (N = 5..12)", 10.0):
        for N in range(5, 13):
            phi_n = sum(1 for k in range(1, N) if math.gcd(k, N) == 1)
            rep = axis_subgroup_normality(N)
            assert rep.normal is False
            assert rep.group_order == N * N * phi_n
            assert rep.subgroup_order == N * phi_n
            g, h, conj = rep.witness
            assert sd_mul(sd_mul(g, h), sd_inv(g)) == conj
            assert in_axis_subgroup(h) and not in_axis_subgroup(conj)


def test_a8_rescale_operator():
    with Budget("A8 rescale operator order and projection invariance", 60.0):
        instances = verify.marked_25_instances(5)
        assert len(instances) >= 5
        for p, bi in instances[:5]:
            F = make_field(p)
            E = degree5_curve(F.el(bi))
            P = Point(F.zero, F.zero)
            R = rational_point_of_order(E, 25, above=P)
            ec = MarkedPoint(E, R, 25)
            cur, orbit = ec, []
            for _ in range(5):
                cur = rescale(cur, 5)
                orbit.append(cur.point)
            assert orbit[-1] == R and all(q != R for q in orbit[:-1])
            b1 = params_of(proj_point(ec, 5)).b
            mp2, _ = proj_quotient(ec, 5)
            b2 = params_of(mp2).b
            cur = ec
            for _ in range(4):
                cur = rescale(cur, 5)
                assert params_of(proj_point(cur, 5)).b == b1
                mq, _ = proj_quotient(cur, 5)
                assert params_of(mq).b == b2


def test_a9_sampling_free_property():
    with Budget("A9 zero-sampling radical path vs sampling Velu path", 30.0):
        F = make_field(13)
        b0 = F.el(4)
        steps = 3
        curve_mod.reset_sample_count()
        rad = radical_chain(b0, steps, policy="unique")
        assert curve_mod.sample_count() == 0
        curve_mod.reset_sample_count()
        vel = velu_chain(b0, steps)
        assert curve_mod.sample_count() >= steps
        assert rad.b_values == vel.b_values


def test_a10_subgroup_class_equivalence():
    with Budget("A10 marked-subgroup equivalence (F_11, F_31)", 60.0):
        for p in (11, 31):
            F = make_field(p)
            valid = [
                F.el(v)
                for v in range(1, p)
                if not normal_form_discriminant(F.el(v), F.el(v)).is_zero()
            ]
            for b1 in valid:
                for b2 in valid:
                    algebraic = b1 == b2 or b1 * b2 == F.el(-1)
                    beta_eq = gamma0_invariant(b1) == gamma0_invariant(b2)
                    assert gamma0_equiv(b1, b2) == algebraic == beta_eq


def test_a11_irreducibility_specialization():
    with Budget("A11 irreducibility of x^5 - b over F_11", 5.0):
        F = make_field(11)
        fifth_powers = {(F.el(v) ** 5).to_int() for v in range(1, 11)}
        for v in range(1, 11):
            b = F.el(v)
            crit = radical_poly_irreducible(b, 5, F)
            assert crit == radical_poly_irreducible_oracle(b, 5, F)
            assert crit == (v not in fifth_powers)
