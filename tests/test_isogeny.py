import dataclasses
import itertools
import math
import random

import pytest

from radicant import curve, field, isogeny, poly, verify
from radicant.curve import (
    O,
    CurveIso,
    Point,
    WeierstrassCurve,
    _points_for_x,
    base_change,
    degree5_curve,
    division_polynomial,
    enumerate_points,
    group_order,
    isomorphism_with_scale,
    isomorphisms,
    normal_form_discriminant,
    point_order,
    points_of_order,
)
from radicant.errors import DegenerateParams, InvariantError
from radicant.field import make_field
from radicant.isogeny import (
    DualIsogeny,
    Isogeny,
    _verify_dual,
    composition_kernel_polynomial,
    dual_isogeny,
    distinguished_points,
    evaluate,
    from_kernel_polynomial,
    is_distinguished,
    points_above,
    preimages,
    velu,
)
from radicant.radical import velu_reference_step
from radicant.verify import PRIMES_1_MOD_25, torsion_instances


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

    def test_image_off_the_codomain_is_an_invariant_error(self):
        # a codomain that is not phi's image makes evaluate's own check fail
        # on every point outside the kernel, as a typed defect
        F, E, phi = phi_f31()
        wrong = dataclasses.replace(phi, codomain=degree5_curve(F.el(3)))
        outside = [Q for Q in enumerate_points(E) if evaluate(phi, Q) != O]
        assert len(outside) == 20
        for Q in outside:
            with pytest.raises(InvariantError, match="left the codomain"):
                evaluate(wrong, Q)

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
        R = points_above(E, marked(F))[0]
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

    def test_characteristic_at_most_half_the_degree_is_refused(self, monkeypatch):
        # Newton's identities for the dual's kernel polynomial divide by
        # 1..(N-1)/2, so p = 5 is refused for a declared degree of 11, before
        # any polynomial arithmetic; the maps are never read
        F = make_field(5)
        E = degree5_curve(F.el(1))
        phi = Isogeny(E, E, 11, (F.one,), (F.zero, F.one))
        monkeypatch.setattr(isogeny, "division_polynomial", None)
        with pytest.raises(ValueError, match="does not exceed"):
            dual_isogeny(phi)

    def test_factors_nothing(self, monkeypatch):
        # the dual's kernel polynomial comes from traces, not from roots or
        # factors of psi_N; poly.roots goes through poly.factors
        calls = []
        factors = poly.factors
        monkeypatch.setattr(poly, "factors",
                            lambda *args: calls.append(args) or factors(*args))
        for p, k, v in ((7, 1, 2), (13, 1, 4), (19, 1, 4), (31, 1, 11), (41, 1, 32),
                        (13, 2, (3, 5))):
            b = make_field(p, k).el(v)
            dual = dual_isogeny(velu(degree5_curve(b), marked(b.ctx)))
            assert _verify_dual(dual)
        assert calls == []


class TestDualAgainstSearch:
    # the closed-form dual is the one candidate of the former search (every
    # Galois-stable order-5 subgroup) that the exact check accepts: same
    # kernel polynomial, same (u, r, s, t)
    @staticmethod
    def assert_same_as_search(b):
        phi = velu(degree5_curve(b), marked(b.ctx))
        (found,) = accepted_candidates(phi)
        dual = dual_isogeny(phi)
        assert dual.quotient.kernel_polynomial == found.quotient.kernel_polynomial, b
        iso, other = dual.back_iso, found.back_iso
        assert (iso.u, iso.r, iso.s, iso.t) == (other.u, other.r, other.s, other.t), b

    @pytest.mark.parametrize("p", [7, 11, 13, 19, 29, 31])
    def test_every_b(self, p):
        F = make_field(p)
        valid = [b for b in map(F.el, range(1, p)) if not normal_form_discriminant(b, b).is_zero()]
        assert valid
        for b in valid:
            self.assert_same_as_search(b)

    @pytest.mark.parametrize("p", [13, 19])
    def test_sampled_b_over_quadratic_field(self, p):
        F = make_field(p, 2)
        rng = random.Random(p)
        valid = [b for b in F.elements()
                 if not b.is_zero() and not normal_form_discriminant(b, b).is_zero()]
        for b in rng.sample(valid, 20):
            self.assert_same_as_search(b)


def curves_with_torsion(N, p, count):
    """The first `count` (E, K), E: y^2 = x^3 + a x + c over F_p in (a, c)
    order and K a rational point of exact order N, found by enumeration."""
    F = make_field(p)
    found = []
    for a, c in itertools.product(range(p), repeat=2):
        try:
            E = WeierstrassCurve(F.zero, F.zero, F.zero, F.el(a), F.el(c))
        except DegenerateParams:
            continue
        pts = enumerate_points(E)
        K = next((P for P in pts[1:] if point_order(E, P, len(pts)) == N), None)
        if K is not None:
            found.append((E, K))
            if len(found) == count:
                break
    return found


class TestOtherDegrees:
    # duals of degree 3 and 7: dual o phi = [N] on every rational point, and
    # the distinguished points against a filter of all rational N-torsion
    @pytest.mark.parametrize("N,p", [(3, 5), (3, 7), (3, 11), (7, 5), (7, 11), (7, 13)])
    def test_dual_and_distinguished_points(self, N, p):
        instances = curves_with_torsion(N, p, 10)
        assert instances
        nonempty = 0
        for E, K in instances:
            phi = velu(E, K)
            assert phi.degree == N
            dual = dual_isogeny(phi)
            for X in enumerate_points(E):
                assert dual(evaluate(phi, X)) == E.mul(N, X)
            brute = [P for P in points_of_order(phi.codomain, N) if dual(P) == K]
            ds = distinguished_points(dual)
            assert ds == sorted(brute, key=lambda P: (P.x.coeffs, P.y.coeffs))
            nonempty += bool(ds)
        assert nonempty


def _embedded(phi, W):
    """phi's curves and maps over W, an extension of its prime base field."""
    if phi.domain.ctx == W:
        return phi
    return Isogeny(base_change(phi.domain, W), base_change(phi.codomain, W), phi.degree,
                   tuple(W.embed(c) for c in phi.kernel_polynomial),
                   tuple(W.embed(c) for c in phi.x_numerator))


def order_over_extension(E, d):
    """#E(F_{q^d}) = q^d + 1 - t_d from the enumerated trace t of E over its
    own field, with t_d = t t_{d-1} - q t_{d-2}."""
    q = E.ctx.q
    t = q + 1 - group_order(E)
    t_prev, t_cur = 2, t
    for _ in range(d - 1):
        t_prev, t_cur = t_cur, t * t_cur - q * t_prev
    return q**d + 1 - t_cur


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


def _dual_kernels(E2, N, psi, roots):
    """Kernel polynomials of Galois-stable subgroups of order N of E2, by
    search: the candidates the brute-force check judges.

    The doubling map delta(x) = x([2]P) permutes the roots of psi_N.  For
    N = 5 a subgroup <P> has the x-coordinates x(P) and delta(x(P)): two
    rational roots, or the roots of an irreducible quadratic factor on which
    Frobenius acts as doubling, which then divides delta(x) - x^q.  In
    general: a delta-orbit of (N-1)/2 rational roots, or an irreducible
    factor of degree (N-1)/2 on which Frobenius is a power of delta; these
    are all the subgroups when (N-1)/2 is 1 or prime and 2 generates
    (Z/N)^x / {+-1}, as for N = 3, 5, 7, 11.
    """
    ctx = E2.ctx
    b2, b4, b6, b8 = E2.b_invariants()
    dbl_num = [-b8, -2 * b6, -b4, ctx.zero, ctx.one]
    dbl_den = [b6, 2 * b4, b2, ctx.el(4)]
    half = (N - 1) // 2
    seen = set()
    for x0 in roots:
        orbit = [x0]
        while (r := poly.value_and_derivative(dbl_num, orbit[-1])[0]
               / poly.value_and_derivative(dbl_den, orbit[-1])[0]) != x0:
            orbit.append(r)
        key = frozenset(r.coeffs for r in orbit)
        if len(orbit) == half and key not in seen:
            seen.add(key)
            yield poly.from_roots(orbit, ctx)
    A = poly._coeffs(ctx)
    frob = [ctx.zero, ctx.one]
    for _ in range(half - 1):
        # x^(q^j) mod psi_N
        frob = A.wrap(poly._powmod(A.unwrap(frob), ctx.q, A.unwrap(psi), A))
        # the roots r of psi_N with delta(r) = r^(q^j)
        stable = A.wrap(poly._gcd(A.unwrap(psi), A.unwrap(
            poly.sub(dbl_num, poly.mul(frob, dbl_den, ctx), ctx)), A))
        if len(stable) > 1:
            yield from (g for g in poly.factors(stable, ctx, half) if len(g) - 1 == half)


def accepted_candidates(phi):
    """Every iso o psi over the searched kernels that `_verify_dual` accepts.
    It refuses every scale u but N (`test_every_candidate` tries them all),
    so only the isomorphism onto E of scale N is tried."""
    E, E2, N = phi.domain, phi.codomain, phi.degree
    psi_N = division_polynomial(E2, N)
    return [cand
            for D in _dual_kernels(E2, N, psi_N, poly.roots(psi_N, E2.ctx))
            for psi in [from_kernel_polynomial(E2, D)]
            for iso in [isomorphism_with_scale(psi.codomain, E, E.ctx.el(N))] if iso is not None
            for cand in [DualIsogeny(phi, psi, iso)] if _verify_dual(cand)]


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
        R = points_above(E, P)[0]
        phi = velu(E, P)
        assert is_distinguished(dual_isogeny(phi), evaluate(phi, R))

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
        assert all(not is_distinguished(dual, q) for q in images[2])
        assert all(is_distinguished(dual, q) for q in images.get(1, []))

    def test_distinguished_set_size_five_when_rational(self):
        # b a fifth power over p = 1 mod 5: all five distinguished points
        # are rational
        F = make_field(41)
        b = F.el(2) ** 5
        assert not normal_form_discriminant(b, b).is_zero()
        E = degree5_curve(b)
        dual = dual_isogeny(velu(E, marked(F)))
        ds = distinguished_points(dual)
        assert len(ds) == 5
        for P2 in ds:
            assert is_distinguished(dual, P2)

    def test_unique_rational_distinguished_f13(self):
        F = make_field(13)
        E = degree5_curve(F.el(4))
        ds = distinguished_points(dual_isogeny(velu(E, marked(F))))
        assert ds == [Point(F.zero, F.el(3))]

    @pytest.mark.parametrize("p", [31, 41])
    def test_reference_step_solves_psi5_once(self, p, monkeypatch):
        # the dual factors nothing, and distinguished_points finds the
        # rational roots of the dual's fibre quintic over +-(0, 0), so the
        # one call factors that quintic and not psi_5; poly.roots goes
        # through poly.factors, so this counts its calls too
        F = make_field(p)
        b = next(b for b in (F.el(c) ** 5 for c in range(2, p))
                 if not normal_form_discriminant(b, b).is_zero())
        calls = []
        factors = poly.factors
        monkeypatch.setattr(poly, "factors",
                            lambda *args: calls.append(args) or factors(*args))
        assert velu_reference_step(b)
        assert len(calls) == 1
        dual = dual_isogeny(velu(degree5_curve(b), marked(F)))
        assert distinguished_points(dual) == [P for P in points_of_order(dual.forward.codomain, 5)
                      if dual(P) == dual.forward.kernel_generator]

    def test_dual_keeps_the_kernel_generator(self):
        # velu(E, K) and velu(E, 2K) share a kernel polynomial and so the
        # dual map; each dual's forward map is still the phi it was built
        # from, so the two sets of distinguished points differ
        F = make_field(41)
        E = degree5_curve(F.el(2) ** 5)
        K = marked(F)
        phi, phi2 = velu(E, K), velu(E, E.mul(2, K))
        assert phi.kernel_polynomial == phi2.kernel_polynomial
        dual, dual2 = dual_isogeny(phi), dual_isogeny(phi2)
        assert dual.forward.kernel_generator == K
        assert dual2.forward.kernel_generator == E.mul(2, K)
        ds, ds2 = distinguished_points(dual), distinguished_points(dual2)
        assert len(ds) == len(ds2) == 5 and not set(ds) & set(ds2)

    def test_wrong_order_rejected(self):
        F, E, phi = phi_f31()
        with pytest.raises(ValueError):
            is_distinguished(dual_isogeny(phi), O)


def lifts_by_enumeration(E, P):
    """The rational R with [5]R = P, in enumeration order: none unless 25
    divides the point count."""
    pts = enumerate_points(E)
    if len(pts) % 25:
        return []
    return [R for R in pts[1:] if E.mul(5, R) == P]


class TestPointsAbove:
    @pytest.mark.parametrize("p, lifted", [(31, 4), (101, 12)])
    def test_every_valid_b_against_enumeration(self, p, lifted):
        F = make_field(p)
        found = 0
        for v in range(1, p):
            b = F.el(v)
            if normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            above = points_above(E, marked(F))
            assert above == lifts_by_enumeration(E, marked(F)), v
            found += bool(above)
        assert found == lifted

    @pytest.mark.parametrize("b, count", [((4, 4), 25), ((3, 5), 5), ((0, 1), 0), ((0, 2), 0)])
    def test_over_f121(self, b, count):
        F = make_field(11, 2)
        E = degree5_curve(F.el(b))
        above = points_above(E, marked(F))
        assert len(above) == count
        assert above == lifts_by_enumeration(E, marked(F))

    @pytest.mark.parametrize("p, b", [(31, 11), (13, 4)])
    def test_preimages_of_every_point_against_enumeration(self, p, b):
        F = make_field(p)
        E = degree5_curve(F.el(b))
        phi = velu(E, marked(F))
        for f in (phi, dual_isogeny(phi)):
            pts = enumerate_points(f.domain)
            for Q in enumerate_points(f.codomain)[1:]:
                if Q == f.codomain.neg(Q):
                    with pytest.raises(ValueError, match="differ from its negative"):
                        preimages(f, Q)
                    continue
                want = sorted((X for X in pts if f(X) == Q),
                              key=lambda X: (X.x.coeffs, X.y.coeffs))
                assert preimages(f, Q) == want
        with pytest.raises(ValueError):
            preimages(phi, O)

    def test_order_3_points_above(self):
        # y^2 = x^3 + 5 over F_19 has 27 points and a rational E[3]: 18 of
        # them have order 9, each over one of the 8 points of order 3
        F = make_field(19)
        E = WeierstrassCurve(F.zero, F.zero, F.zero, F.zero, F.el(5))
        pts = enumerate_points(E)
        lifts = 0
        for P in points_of_order(E, 3):
            above = points_above(E, P)
            assert above == [R for R in pts if E.mul(3, R) == P]
            lifts += len(above)
        assert len(pts) == 27 and lifts == 18

    def test_torsion_instances_enumerate_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the instance search enumerated the curve")

        monkeypatch.setattr(curve, "enumerate_points", refuse)
        monkeypatch.setattr(curve, "group_order", refuse)
        monkeypatch.setattr(verify, "enumerate_points", refuse)
        got = [(b.ctx.p, b.to_int(), R.x.to_int(), R.y.to_int())
               for b, _, R in itertools.islice(torsion_instances(PRIMES_1_MOD_25), 10)]
        assert got == [(101, 6, 18, 91), (101, 14, 7, 62), (101, 32, 22, 100),
                       (101, 36, 8, 69), (101, 39, 5, 32), (101, 41, 7, 67),
                       (101, 44, 15, 81), (101, 60, 26, 98), (101, 65, 10, 36),
                       (101, 69, 19, 14)]
        b, _, R = next(torsion_instances((251, 401, 601), full_basis=True))
        assert (b.ctx.p, b.to_int(), R.x.to_int(), R.y.to_int()) == (251, 2, 4, 39)


def kernel_by_enumeration(phi, psi):
    """ker(psi o phi) by evaluating both maps on every rational point."""
    return [X for X in enumerate_points(phi.domain) if psi(phi(X)).is_infinity]


def x_polynomial(points, ctx):
    """The monic polynomial with the distinct x-coordinates of the finite points."""
    return poly.from_roots({X.x.coeffs: X.x for X in points if not X.is_infinity}.values(),
                           ctx)


class TestCompositionKernel:
    # the kernel polynomial of psi o phi of degree 25 is that of a cyclic
    # group exactly when it is not monic(psi_5(E)), the one of E[5]
    def test_kernel_of_distinguished_composition_is_cyclic(self):
        F = make_field(101)
        E = degree5_curve(F.el(6))
        P = marked(F)
        R = points_above(E, P)[0]
        phi = velu(E, P)
        psi = velu(phi.codomain, evaluate(phi, R))
        kernel_poly = composition_kernel_polynomial(phi, psi.kernel_polynomial)
        # it is exactly the polynomial of the cyclic group generated by R
        assert len(E.subgroup(R)) == 25
        assert kernel_poly == x_polynomial(E.subgroup(R), F)
        assert kernel_poly != poly.monic(division_polynomial(E, 5), F)

    def test_every_distinguished_point_gives_cyclic_composition(self):
        # an instance with fully rational structure (order-25 point over the
        # marked point plus full rational 5-torsion), so every composition
        # kernel is enumerable over the base field
        F = make_field(251)
        E = degree5_curve(F.el(2))
        phi = velu(E, marked(F))
        ds = distinguished_points(dual_isogeny(phi))
        assert len(ds) == 5
        for P2 in ds:
            psi = velu(phi.codomain, P2)
            kernel = kernel_by_enumeration(phi, psi)
            assert len(kernel) == 25
            assert any(point_order(E, X, 25) == 25 for X in kernel)
            kernel_poly = composition_kernel_polynomial(phi, psi.kernel_polynomial)
            assert kernel_poly == x_polynomial(kernel, F)
            assert kernel_poly != poly.monic(division_polynomial(E, 5), F)

    def test_dual_composition_kernel_is_not_cyclic(self):
        # composing with the dual gives multiplication by 5, whose kernel is
        # the full (non-cyclic) 5-torsion; over a field with rational E[5]
        # the enumeration sees all 25 points
        F = make_field(31)
        E = degree5_curve(F.el(11))
        phi = velu(E, marked(F))
        psi = dual_isogeny(phi).quotient
        kernel = kernel_by_enumeration(phi, psi)
        assert len(kernel) == 25
        assert not any(point_order(E, X, 25) == 25 for X in kernel)
        kernel_poly = composition_kernel_polynomial(phi, psi.kernel_polynomial)
        assert kernel_poly == x_polynomial(kernel, F)
        assert kernel_poly == poly.monic(division_polynomial(E, 5), F)
