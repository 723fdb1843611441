import itertools
import math
import random

import pytest

from radicant import curve, field, isogeny, poly
from radicant.curve import (
    O,
    CurveIso,
    Point,
    _points_for_x,
    base_change,
    degree5_curve,
    division_polynomial,
    enumerate_points,
    isomorphisms,
    lift_point,
    normal_form_discriminant,
    order_over_extension,
    point_order,
    points_of_order,
    rational_point_of_order,
)
from radicant.field import make_field
from radicant.isogeny import (
    DualIsogeny,
    _dual_kernels,
    _embedded,
    _verify_dual,
    composition_kernel,
    dual_isogeny,
    distinguished_points,
    evaluate,
    from_kernel_polynomial,
    is_distinguished,
    kernel_is_cyclic,
    velu,
)
from radicant.radical import velu_reference_step


def marked(ctx):
    return Point(ctx.zero, ctx.zero)


def phi_f31():
    F = make_field(31)
    E = degree5_curve(F.el(11))
    return F, E, velu(E, marked(F))


class TestVelu:
    def test_codomain_closed_form_instances(self):
        rng = random.Random(12)
        checked = 0
        while checked < 20:
            p = rng.choice([7, 11, 13, 17, 31, 41, 101])
            F = make_field(p)
            b = F.el(rng.randrange(1, p))
            if b.is_zero() or normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            phi = velu(E, marked(F))
            assert phi.codomain.a4 == -5 * b * (b * b + 2 * b - 1)
            assert phi.codomain.a6 == -b * (b**4 + 10 * b**3 - 5 * b * b + 15 * b - 1)
            assert (phi.codomain.a1, phi.codomain.a2, phi.codomain.a3) == (
                E.a1,
                E.a2,
                E.a3,
            )
            checked += 1

    def test_degree_equals_kernel_size(self):
        F, E, phi = phi_f31()
        kernel = E.subgroup(phi.kernel_generator)
        assert phi.degree == 5 == len(kernel)
        assert all(point_order(E, Q) == 5 for Q in kernel[1:])
        # one root per pair +-Q
        assert len(phi.kernel_polynomial) == 3

    def test_kernel_maps_to_identity(self):
        F, E, phi = phi_f31()
        assert evaluate(phi, O) == O
        assert evaluate(phi, phi.kernel_generator) == O
        for Q in E.subgroup(phi.kernel_generator):
            assert evaluate(phi, Q) == O

    def test_infinity_kernel_rejected(self):
        F = make_field(31)
        E = degree5_curve(F.el(11))
        with pytest.raises(ValueError):
            velu(E, O)

    def test_off_curve_kernel_rejected(self):
        F = make_field(31)
        E = degree5_curve(F.el(11))
        with pytest.raises(ValueError):
            velu(E, Point(F.el(1), F.el(1)))

    def test_homomorphism(self):
        F, E, phi = phi_f31()
        pts = enumerate_points(E)
        rng = random.Random(8)
        for _ in range(120):
            Q1, Q2 = rng.choice(pts), rng.choice(pts)
            assert evaluate(phi, E.add(Q1, Q2)) == phi.codomain.add(
                evaluate(phi, Q1), evaluate(phi, Q2)
            )

    def test_two_torsion_kernel(self):
        # degree-2 quotient exercises the two-torsion branch of the sums
        F = make_field(13)
        from radicant.curve import WeierstrassCurve

        E = WeierstrassCurve(F.zero, F.zero, F.zero, F.el(1), F.zero)
        two = next(P for P in enumerate_points(E)
                   if not P.is_infinity and point_order(E, P) == 2)
        phi = velu(E, two)
        assert phi.degree == 2
        pts = enumerate_points(E)
        rng = random.Random(3)
        for _ in range(40):
            Q1, Q2 = rng.choice(pts), rng.choice(pts)
            assert evaluate(phi, E.add(Q1, Q2)) == phi.codomain.add(
                evaluate(phi, Q1), evaluate(phi, Q2)
            )

    @pytest.mark.parametrize("p,k", [(13, 1), (31, 1), (7, 2)])
    def test_rational_maps_match_pointwise_sums(self, p, k):
        # Velu's pointwise form, x(phi(P)) = x(P) + sum over Q in K - {O} of
        # x(P + Q) - x(Q), and the same for y, against the rational maps of
        # the kernel polynomial, for kernels of orders 2..9 on curves with
        # every a-invariant drawn
        from radicant.curve import WeierstrassCurve
        from radicant.errors import DegenerateParams

        F = make_field(p, k)
        rng = random.Random(p + k)
        degrees = set()
        while len(degrees) < 4:
            try:
                E = WeierstrassCurve(*(F.random_element(rng) for _ in range(5)))
            except DegenerateParams:
                continue
            pts = enumerate_points(E)
            kernels = [K for K in pts[1:] if point_order(E, K, len(pts)) < 10]
            if not kernels:
                continue
            K = rng.choice(kernels)
            phi = velu(E, K)
            degrees.add(phi.degree)
            for P in rng.sample(pts, min(20, len(pts))):
                image = evaluate(phi, P)
                if P in E.subgroup(K):
                    assert image == O
                    continue
                x, y = P.x, P.y
                for Q in E.subgroup(K)[1:]:
                    R = E.add(P, Q)
                    x, y = x + R.x - Q.x, y + R.y - Q.y
                assert image == Point(x, y)

    def test_image_of_order_25_point_has_order_5(self):
        F = make_field(101)
        E = degree5_curve(F.el(6))
        R = rational_point_of_order(E, 25, above=marked(F))
        phi = velu(E, marked(F))
        img = evaluate(phi, R)
        assert point_order(phi.codomain, img) == 5


class TestDual:
    def test_dual_composition_is_multiplication_rational_route(self):
        F, E, phi = phi_f31()
        dual = dual_isogeny(phi)
        pts = enumerate_points(E)
        rng = random.Random(2)
        for _ in range(120):
            X = rng.choice(pts)
            assert dual(evaluate(phi, X)) == E.mul(5, X)

    def test_dual_composition_quadratic_kernel(self):
        # the dual's kernel polynomial x^2 + 8 is irreducible over F_13
        F = make_field(13)
        E = degree5_curve(F.el(4))
        phi = velu(E, marked(F))
        dual = dual_isogeny(phi)
        for X in enumerate_points(E):
            assert dual(evaluate(phi, X)) == E.mul(5, X)

    @pytest.mark.parametrize("p,b", [(31, 11), (13, 4)])
    def test_verify_dual_rejects_negated_dual(self, p, b):
        # the dual's kernel has rational roots over F_31 and is an irreducible
        # quadratic over F_13.  [-1] o dual
        # agrees with the dual wherever [10]X = O, which is all of
        # E(F_31) = Z/5 x Z/5, so an overestimated lcm of the checked orders
        # would accept it before a disagreeing point turns up.
        F = make_field(p)
        E = degree5_curve(F.el(b))
        phi = velu(E, marked(F))
        dual = dual_isogeny(phi)
        assert _verify_dual(dual)
        neg = next(a for a in isomorphisms(E, E) if a.u == -1)
        negated = DualIsogeny(phi, dual.quotient, dual.back_iso.compose(neg))
        assert not _verify_dual(negated)

    def test_dual_builds_no_extension_field(self, monkeypatch):
        # every dual is built over its base field, F_p or F_{p^2}
        rng = random.Random(5)
        instances = []
        for p in (11, 13, 17, 19, 29, 31):
            F = make_field(p)
            instances += [F.el(v) for v in range(1, p)]
        F = make_field(13, 2)
        instances += rng.sample(list(F.elements()), 40)

        def refuse(*args):
            raise AssertionError("the dual built an extension field")

        monkeypatch.setattr(field, "make_field", refuse)
        monkeypatch.setattr(curve, "base_change", refuse)
        monkeypatch.setattr(isogeny, "base_change", refuse)
        checked = {13 ** 2: 0}
        for b in instances:
            if b.is_zero() or normal_form_discriminant(b, b).is_zero():
                continue
            if b.ctx.k == 2 and checked[b.ctx.q] == 20:
                continue
            E = degree5_curve(b)
            phi = velu(E, marked(b.ctx))
            dual = dual_isogeny(phi)
            for X in enumerate_points(E):
                assert dual(evaluate(phi, X)) == E.mul(5, X), (b, X)
            checked[b.ctx.q] = checked.get(b.ctx.q, 0) + 1
        assert checked[13 ** 2] == 20
        assert sum(checked.values()) == 8 + 12 + 16 + 16 + 26 + 28 + 20

    def test_dual_kernel_size(self):
        F, E, phi = phi_f31()
        dual = dual_isogeny(phi)
        killed = [
            P
            for P in enumerate_points(phi.codomain)
            if dual(P) == O
        ]
        assert len(killed) == 5


class BruteForce:
    """Decides cand o phi == [N] by evaluating both on points of E over W.

    delta = cand o phi - [N] is zero or an isogeny of degree at most
    (N + N)^2 = 4 N^2, so ker(delta) is a group of at most 4 N^2 points.
    Agreement on X puts <X> inside it, so agreement on more than 4 N^2
    points, or on points whose orders have lcm above 4 N^2, proves
    delta = 0.  Points are taken in x order over W; their images, [N]X and
    the running lcm are shared by every candidate for the same phi.
    """

    def __init__(self, phi, W):
        self.N = phi.degree
        self.bound = 4 * self.N * self.N
        self.phi = _embedded(phi, W)
        self.E = self.phi.domain
        self.order = order_over_extension(phi.domain, W.k)
        self.points = (X for x in W.elements() for X in _points_for_x(self.E, x))
        self.rows = []
        self.W = W

    def row(self, i):
        if i == len(self.rows):
            X = next(self.points)
            lcm = self.rows[-1][2] if self.rows else 1
            if not self.E.mul(lcm, X).is_infinity:
                lcm = math.lcm(lcm, point_order(self.E, X, self.order))
            self.rows.append((evaluate(self.phi, X), self.E.mul(self.N, X), lcm))
        return self.rows[i]

    def is_dual(self, cand):
        W, back = self.W, cand.back_iso
        psi = _embedded(cand.quotient, W)
        iso = CurveIso(*(W.embed(c) for c in (back.u, back.r, back.s, back.t)),
                       psi.codomain, self.E)
        for i in itertools.count():
            image, target, lcm = self.row(i)
            if iso.apply(evaluate(psi, image)) != target:
                return False
            if lcm > self.bound or i >= self.bound:
                return True


class TestVerifyDualAgainstBruteForce:
    @pytest.mark.parametrize("p", [11, 13, 19, 31])
    def test_every_candidate(self, p):
        # candidates: every kernel polynomial of a Galois-stable order-5
        # subgroup of the codomain (two rational roots or an irreducible
        # quadratic factor of psi_5), each with every isomorphism onto E
        # (all scales u, not only u = 5).  They are compared over the least
        # F_{q^d} with #E(F_{q^d}) > 4 N^2.
        F = make_field(p)
        for v in range(1, p):
            b = F.el(v)
            if normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            phi = velu(E, marked(F))
            E2 = phi.codomain
            d = next(d for d in itertools.count(1) if order_over_extension(E, d) > 100)
            brute = BruteForce(phi, F if d == 1 else make_field(p, d))
            psi5 = division_polynomial(E2, 5)
            accepted = 0
            for D in _dual_kernels(E2, 5, psi5, poly.roots(psi5, F)):
                psi = from_kernel_polynomial(E2, D)
                for iso in isomorphisms(psi.codomain, E):
                    cand = DualIsogeny(phi, psi, iso)
                    verdict = _verify_dual(cand)
                    assert verdict == brute.is_dual(cand), (v, D, iso.u)
                    accepted += verdict
            assert accepted == 1

    def test_characteristic_dividing_the_degree_is_refused(self):
        F = make_field(5)
        phi = velu(degree5_curve(F.el(1)), marked(F))
        with pytest.raises(ValueError, match="inseparable"):
            dual_isogeny(phi)


class TestDistinguished:
    def test_image_of_preimage_is_distinguished(self):
        F = make_field(101)
        E = degree5_curve(F.el(6))
        P = marked(F)
        R = rational_point_of_order(E, 25, above=P)
        phi = velu(E, P)
        assert is_distinguished(phi, evaluate(phi, R))

    def test_scaled_images_are_not(self):
        # classify all order-5 codomain points by their dual image
        F = make_field(101)
        E = degree5_curve(F.el(6))
        P = marked(F)
        phi = velu(E, P)
        dual = dual_isogeny(phi)
        images = {}
        for P2 in points_of_order(phi.codomain, 5):
            img = dual(P2)
            j = next(j for j in range(5) if E.mul(j, P) == img)
            images.setdefault(j, []).append(P2)
        # some point maps to [2]P; it must not be distinguished
        assert 2 in images
        assert all(not is_distinguished(phi, q) for q in images[2])
        assert all(is_distinguished(phi, q) for q in images.get(1, []))

    def test_distinguished_set_size_five_when_rational(self):
        # b a fifth power over p = 1 mod 5: all five distinguished points
        # are rational
        F = make_field(41)
        b = F.el(2) ** 5
        assert not normal_form_discriminant(b, b).is_zero()
        E = degree5_curve(b)
        phi = velu(E, marked(F))
        ds = distinguished_points(phi)
        assert len(ds) == 5
        for P2 in ds:
            assert is_distinguished(phi, P2)

    def test_unique_rational_distinguished_f13(self):
        F = make_field(13)
        E = degree5_curve(F.el(4))
        phi = velu(E, marked(F))
        ds = distinguished_points(phi)
        assert ds == [Point(F.zero, F.el(3))]

    @pytest.mark.parametrize("p", [31, 41])
    def test_reference_step_solves_psi5_once(self, p, monkeypatch):
        # the dual carries the codomain's rational 5-torsion, so
        # distinguished_points does not factor psi_5 again; poly.roots goes
        # through poly.factors, so this counts its calls too
        monkeypatch.setattr(isogeny, "_DUAL_CACHE", {})
        F = make_field(p)
        b = next(b for b in (F.el(c) ** 5 for c in range(2, p))
                 if not normal_form_discriminant(b, b).is_zero())
        calls = []
        factors = poly.factors
        monkeypatch.setattr(poly, "factors",
                            lambda *args: calls.append(args) or factors(*args))
        assert velu_reference_step(b)
        assert len(calls) == 1
        phi = velu(degree5_curve(b), marked(F))
        assert distinguished_points(phi) == [P for P in points_of_order(phi.codomain, 5)
                      if dual_isogeny(phi)(P) == phi.kernel_generator]

    def test_wrong_order_rejected(self):
        F, E, phi = phi_f31()
        with pytest.raises(ValueError):
            is_distinguished(phi, O)


class TestCompositionKernel:
    def test_kernel_of_distinguished_composition_is_cyclic(self):
        F = make_field(101)
        E = degree5_curve(F.el(6))
        P = marked(F)
        R = rational_point_of_order(E, 25, above=P)
        phi = velu(E, P)
        psi = velu(phi.codomain, evaluate(phi, R))
        kernel = composition_kernel(phi, psi)
        assert len(kernel) == 25
        assert kernel_is_cyclic(kernel, E, 25)
        # and it is exactly the cyclic group generated by R
        assert set(kernel) == set(E.subgroup(R))

    def test_every_distinguished_point_gives_cyclic_composition(self):
        # an instance with fully rational structure (order-25 point over the
        # marked point plus full rational 5-torsion), so every composition
        # kernel is enumerable over the base field
        F = make_field(251)
        E = degree5_curve(F.el(2))
        phi = velu(E, marked(F))
        ds = distinguished_points(phi)
        assert len(ds) == 5
        for P2 in ds:
            psi = velu(phi.codomain, P2)
            kernel = composition_kernel(phi, psi)
            assert len(kernel) == 25
            assert kernel_is_cyclic(kernel, E, 25)

    def test_dual_composition_kernel_is_not_cyclic(self):
        # composing with the dual gives multiplication by 5, whose kernel is
        # the full (non-cyclic) 5-torsion; over a field with rational E[5]
        # the enumeration sees all 25 points
        F = make_field(31)
        E = degree5_curve(F.el(11))
        phi = velu(E, marked(F))
        dual = dual_isogeny(phi)
        psi = dual.quotient
        kernel = composition_kernel(phi, psi)
        assert len(kernel) == 25
        assert not kernel_is_cyclic(kernel, E, 25)
