import math
import random
import re

import pytest

from radicant import curve, poly
from radicant.curve import (
    O,
    Point,
    TateParams,
    WeierstrassCurve,
    CurveIso,
    add,
    curve_from_params,
    base_change,
    degree5_curve,
    degree5_degenerate,
    degree5_discriminant,
    degree5_j_invariant,
    division_polynomial,
    enum_bound,
    enumerate_points,
    find_isomorphism,
    group_order,
    has_order,
    isomorphism_with_scale,
    isomorphisms,
    normal_form_b,
    normal_form_discriminant,
    point_order,
    points_of_order,
    scalar_mul,
    to_tate_normal,
    torsion_basis,
    _iso_from,
    _points_for_x,
)
from radicant.errors import (
    DegenerateParams,
    EnumerationBound,
    InvariantError,
    TorsionUnavailable,
)
from radicant.field import make_field, nth_roots
from radicant.isogeny import points_above
from radicant.pairing import weil


def marked_point(ctx):
    return Point(ctx.zero, ctx.zero)


def trace_of_frobenius(E):
    """The Frobenius trace over the curve's own field, by enumeration."""
    return E.ctx.q + 1 - group_order(E)


def order_over_extension(E, d):
    """#E(F_{q^d}) = q^d + 1 - t_d, with t_d = t t_{d-1} - q t_{d-2}."""
    q, t = E.ctx.q, trace_of_frobenius(E)
    t_prev, t_cur = 2, t
    for _ in range(d - 1):
        t_prev, t_cur = t_cur, t * t_cur - q * t_prev
    return q**d + 1 - t_cur


class TestGroupLaw:
    def test_identity(self, F11):
        E = degree5_curve(F11.el(2))
        P = marked_point(F11)
        assert add(E, P, O) == P
        assert add(E, O, P) == P

    def test_doubling_matches_marked_subgroup(self, F11):
        E = degree5_curve(F11.el(2))
        P = marked_point(F11)
        assert add(E, P, P) == Point(F11.el(2), F11.el(4))

    def test_inverse(self, F11):
        E = degree5_curve(F11.el(2))
        P = marked_point(F11)
        assert add(E, P, E.neg(P)) == O
        assert E.neg(P) == Point(F11.zero, F11.el(2))

    def test_point_not_on_curve_rejected(self, F11):
        E = degree5_curve(F11.el(2))
        with pytest.raises(ValueError):
            add(E, Point(F11.el(1), F11.el(1)), O)

    @pytest.mark.parametrize("p,k,b", [(11, 1, 2), (31, 1, 7), (101, 1, 3), (13, 2, (4, 1))])
    def test_associativity_randomized(self, p, k, b):
        F = make_field(p, k)
        E = degree5_curve(F.el(b))
        pts = enumerate_points(E)
        rng = random.Random(repr((p, b)))
        for _ in range(1100):
            P, Q, R = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert E.add(E.add(P, Q), R) == E.add(P, E.add(Q, R))


class TestScalarMul:
    def test_five_torsion_of_marked_point(self):
        rng = random.Random(5)
        count = 0
        while count < 6:
            p = rng.choice([11, 13, 31, 41, 61])
            F = make_field(p)
            b = F.el(rng.randrange(1, p))
            if b.is_zero() or normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            assert scalar_mul(E, 5, marked_point(F)) == O
            count += 1

    def test_zero_multiple(self, F11):
        E = degree5_curve(F11.el(2))
        assert scalar_mul(E, 0, marked_point(F11)) == O

    def test_triple_of_marked_point(self, F11):
        E = degree5_curve(F11.el(2))
        # oracle: repeated addition
        P = marked_point(F11)
        expected = E.add(E.add(P, P), P)
        assert scalar_mul(E, 3, P) == expected == Point(F11.el(2), F11.zero)

    def test_negative_multiple(self, F11):
        E = degree5_curve(F11.el(2))
        P = marked_point(F11)
        assert scalar_mul(E, -1, P) == E.neg(P)


class TestPointOrder:
    def test_identity_order(self, F11):
        E = degree5_curve(F11.el(2))
        assert point_order(E, O) == 1

    def test_marked_point_order(self, F11):
        E = degree5_curve(F11.el(2))
        # oracle: walk multiples
        P = marked_point(F11)
        Q, n = P, 1
        while Q != O:
            Q = E.add(Q, P)
            n += 1
        assert n == 5
        assert point_order(E, P) == 5
        assert point_order(E, Point(F11.el(2), F11.el(4))) == 5

    def test_lagrange(self):
        for p, b in [(11, 2), (13, 4), (31, 3)]:
            F = make_field(p)
            E = degree5_curve(F.el(b))
            n = group_order(E)
            for P in enumerate_points(E):
                assert n % point_order(E, P) == 0

    @pytest.mark.parametrize("p, k, b", [(11, 1, 2), (13, 1, 4), (31, 1, 3), (7, 2, [3, 2])],
                             ids=["F11", "F13", "F31", "F49"])
    def test_matches_repeated_addition(self, p, k, b):
        F = make_field(p, k)
        E = degree5_curve(F.el(b))
        for P in enumerate_points(E):
            o = len(E.subgroup(P))  # order by repeated addition
            assert point_order(E, P) == o
            assert point_order(E, P, 6 * o) == o
            for N in range(1, 2 * o + 1):
                assert has_order(E, P, N) == (N == o)
            if o > 1:
                with pytest.raises(InvariantError):
                    point_order(E, P, o + 1)

    def test_group_order_default_respects_enumeration_bound(self, monkeypatch):
        # the default multiple is the group order, which needs enumeration;
        # group_order is cached, so the curve is one no other test counts
        monkeypatch.setenv("RADICANT_ENUM_BOUND", "7")
        F = make_field(1000003)
        E = degree5_curve(F.el(4))
        P = marked_point(F)
        with pytest.raises(EnumerationBound):
            point_order(E, P)
        assert point_order(E, P, 5) == 5 and has_order(E, P, 5)


class TestEnumeration:
    def test_small_curve_count(self):
        F = make_field(5)
        E = WeierstrassCurve(F.zero, F.zero, F.zero, F.zero, F.one)
        pts = enumerate_points(E)
        # oracle: exhaustive x-scan with squares table
        squares = {}
        for y in range(5):
            squares.setdefault(y * y % 5, []).append(y)
        expected = 1 + sum(
            len(squares.get((x**3 + 1) % 5, [])) for x in range(5)
        )
        assert len(pts) == expected == 6

    def test_hasse_interval(self):
        rng = random.Random(3)
        for _ in range(8):
            p = rng.choice([11, 13, 31, 41])
            F = make_field(p)
            b = F.el(rng.randrange(1, p))
            if normal_form_discriminant(b, b).is_zero():
                continue
            n = group_order(degree5_curve(b))
            assert abs(p + 1 - n) <= 2 * math.isqrt(p) + 1

    def test_marked_curve_count_divisible_by_5(self, F11):
        assert group_order(degree5_curve(F11.el(2))) % 5 == 0

    def test_enumeration_bound(self, monkeypatch):
        monkeypatch.setenv("RADICANT_ENUM_BOUND", "7")
        F = make_field(11)
        with pytest.raises(EnumerationBound):
            enumerate_points(degree5_curve(F.el(2)))

    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5", ""])
    def test_enumeration_bound_must_be_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("RADICANT_ENUM_BOUND", raw)
        message = f"RADICANT_ENUM_BOUND must be a positive integer, got {raw!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            enum_bound()
        with pytest.raises(ValueError, match="RADICANT_ENUM_BOUND"):
            enumerate_points(degree5_curve(make_field(11).el(2)))

    def test_invalid_enumeration_bound_is_a_usage_error(self, monkeypatch, capsys):
        from radicant.cli import main

        monkeypatch.setenv("RADICANT_ENUM_BOUND", "abc")
        # an empty group-order cache, so bench's sampling comparand counts
        # the curve's points and reads the bound
        group_order.cache_clear()
        assert main(["bench", "--p", "13", "--b", "4", "--steps", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: RADICANT_ENUM_BOUND must be a positive integer, got 'abc'\n"
        )
        monkeypatch.setenv("RADICANT_ENUM_BOUND", "7")
        assert enum_bound() == 7


def random_curves(F, count, rng):
    """`count` nonsingular curves with all five a-invariants drawn."""
    out = []
    while len(out) < count:
        try:
            out.append(WeierstrassCurve(*(F.random_element(rng) for _ in range(5))))
        except DegenerateParams:
            continue
    return out


def poly_value(f, x):
    acc = x.ctx.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


class TestDivisionPolynomial:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("p,k", [(11, 1), (13, 1), (11, 2)])
    def test_roots_are_the_n_torsion_x_coordinates(self, p, k, n):
        # psi_n(x) = 0 iff the points over x are n-torsion: rational points
        # are checked over F, the others over F_{p^2} when F = F_p
        F = make_field(p, k)
        ext = make_field(p, 2) if k == 1 else None
        for E in random_curves(F, 3, random.Random(100 * p + 10 * k + n)):
            psi = division_polynomial(E, n)
            assert len(psi) - 1 == (n * n - 1) // 2
            assert psi[-1] == n
            for x in F.elements():
                pts = _points_for_x(E, x)
                if pts:
                    killed = E.mul(n, pts[0]).is_infinity
                elif ext is not None:
                    Ee = base_change(E, ext)
                    killed = Ee.mul(n, _points_for_x(Ee, ext.embed(x))[0]).is_infinity
                else:
                    continue
                assert poly_value(psi, x).is_zero() == killed

    def test_even_index_rejected(self, F11):
        with pytest.raises(ValueError):
            division_polynomial(degree5_curve(F11.el(2)), 4)

    @pytest.mark.parametrize("p,k", [(11, 1), (31, 1), (41, 1), (61, 1), (7, 2)])
    @pytest.mark.parametrize("N", [3, 5, 7, 9])
    def test_points_of_order_match_enumeration(self, p, k, N):
        # same list in the same order as the enumerate-and-filter oracle
        F = make_field(p, k)
        rng = random.Random(p * k * N)
        curves = random_curves(F, 2, rng)
        for _ in range(4):
            b = F.random_element(rng)
            if not b.is_zero() and not normal_form_discriminant(b, b).is_zero():
                curves.append(degree5_curve(b))
        for E in curves:
            oracle = [P for P in enumerate_points(E)
                      if not P.is_infinity and has_order(E, P, N)]
            assert points_of_order(E, N) == oracle


class TestMarkedSubgroupListing:
    def test_subgroup_is_the_expected_quadruple(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            p = rng.choice([11, 13, 31, 41, 61, 71, 101])
            F = make_field(p)
            b = F.el(rng.randrange(1, p))
            if b.is_zero() or normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            got = set(E.subgroup(marked_point(F)))
            expected = {
                O,
                Point(F.zero, F.zero),
                Point(b, b * b),
                Point(b, F.zero),
                Point(F.zero, b),
            }
            assert got == expected
            checked += 1


class TestNormalForm:
    def test_curve_from_params_f11(self, F11):
        E = curve_from_params(TateParams(F11.el(2), F11.el(2), 5))
        assert (E.a1, E.a2, E.a3, E.a4, E.a6) == (
            F11.el(-1),
            F11.el(-2),
            F11.el(-2),
            F11.zero,
            F11.zero,
        )
        assert E.contains(marked_point(F11))

    def test_delta_integer_identity(self):
        # Delta(1, 1) = -11 as an integer polynomial identity, checked at
        # several primes
        for p in (13, 101, 997, 10007):
            F = make_field(p)
            assert normal_form_discriminant(F.one, F.one) == F.el(-11)

    @staticmethod
    def _generic_discriminant(b, c):
        # Delta of (a1, a2, a3, a4, a6) = (1 - c, -b, -b, 0, 0) from the
        # b-invariants, written out here so it shares no code with curve.py
        a1, a2, a3 = 1 - c, -b, -b
        b2 = a1 * a1 + 4 * a2
        b4 = a1 * a3
        b6 = a3 * a3
        b8 = a2 * a3 * a3
        return -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @pytest.mark.parametrize("p,k,draws", [(13, 1, None), (7, 2, 300), (1048583, 1, 300)])
    def test_discriminant_matches_weierstrass(self, p, k, draws):
        F = make_field(p, k)
        if draws is None:
            pairs = [(F.el(v), F.el(w)) for v in range(1, p) for w in range(p)]
        else:
            rng = random.Random(p)

            def draw():
                return F.el([rng.randrange(p) for _ in range(k)])

            pairs = [(draw(), draw()) for _ in range(draws)]
        vanishing = 0
        for b, c in pairs:
            delta = normal_form_discriminant(b, c)
            assert delta == self._generic_discriminant(b, c)
            if delta.is_zero():
                vanishing += 1
                with pytest.raises(DegenerateParams):
                    WeierstrassCurve(1 - c, -b, -b, F.zero, F.zero)
            else:
                assert WeierstrassCurve(1 - c, -b, -b, F.zero, F.zero).discriminant() == delta
        if draws is None:
            assert vanishing > 0  # the exhaustive F_13 sweep meets singular (b, c)

    @pytest.mark.parametrize("p,k,draws", [(11, 1, None), (31, 1, None), (7, 2, None),
                                           (2**61 - 1, 1, 200)])
    def test_degree5_discriminant_matches_general_form(self, p, k, draws):
        # the factored Delta(b) against the two-variable form at c = b
        F = make_field(p, k)
        if draws is None:
            bs = list(F.elements())
        else:
            rng = random.Random(p)
            bs = [F.el(rng.randrange(p)) for _ in range(draws)]
        for b in bs:
            assert degree5_discriminant(b) == normal_form_discriminant(b, b), b
        if draws is None:  # b = 0 and the roots of b^2 - 11b - 1 where rational
            assert sum(degree5_discriminant(b).is_zero() for b in bs) in (1, 3)

    @pytest.mark.parametrize("p,k", [(11, 1), (31, 1), (7, 2), (11, 2), (7, 3)])
    def test_degree5_degenerate_is_the_zero_set_of_delta(self, p, k):
        # one branch per k: ints, coefficient pairs, and the generic product
        F = make_field(p, k)
        zeros = [b for b in F.elements() if degree5_discriminant(b).is_zero()]
        assert [b for b in F.elements() if degree5_degenerate(b)] == zeros
        assert F.zero in zeros and len(zeros) in (1, 3)

    @pytest.mark.parametrize("p,k", [(2**61 - 1, 1), (10007, 2)])
    def test_degree5_degenerate_at_large_p(self, p, k):
        # the roots (11 +- s)/2, s^2 = 125, of b^2 - 11b - 1, and their neighbours
        F = make_field(p, k)
        for s in nth_roots(F.el(125), 2):
            b = (11 + s) / 2
            assert degree5_degenerate(b) and degree5_discriminant(b).is_zero()
            for c in (b + 1, b - 1, b * 3):
                assert not degree5_degenerate(c) and not degree5_discriminant(c).is_zero()

    @pytest.mark.parametrize("p,k", [(13, 1), (31, 1), (7, 2), (11, 2)])
    def test_closed_form_b_matches_to_tate_normal(self, p, k):
        # b as a function of x(P) against the three-stage transform, at
        # every point of order 4..13 on curves with all five a-invariants
        F = make_field(p, k)
        checked = 0
        for E in random_curves(F, 12, random.Random(10 * p + k)):
            num, den = normal_form_b(E)
            for P in enumerate_points(E)[1:]:
                Q, N = P, 1  # Q = [N]P, up to N = 14
                while not Q.is_infinity and N < 14:
                    Q, N = E.add(Q, P), N + 1
                if Q.is_infinity and N >= 4:
                    b = (poly.value_and_derivative(num, P.x)[0]
                         / poly.value_and_derivative(den, P.x)[0])
                    assert b == to_tate_normal(E, P, N)[0].b, (E, P)
                    checked += 1
        assert checked > 50

    @pytest.mark.parametrize("p,k,draws", [(11, 1, None), (31, 1, None), (7, 2, None),
                                           (2**61 - 1, 1, 50)])
    def test_closed_form_j_matches_curve(self, p, k, draws):
        # the j-map of X_1(5) against the j of the built curve, and its
        # denominator b^5 (b^2 - 11b - 1) against normal_form_discriminant;
        # b^2 - 11b - 1 has the roots (11 +- sqrt(125)) / 2, which the
        # sampled sweep adds to b = 0
        F = make_field(p, k)
        roots = [(11 + r) / 2 for r in nth_roots(F.el(125), 2)]
        if draws is None:
            bs = list(F.elements())
        else:
            rng = random.Random(p)
            bs = [F.zero] + roots + [F.el(rng.randrange(p)) for _ in range(draws)]
        degenerate = 0
        for b in bs:
            delta = normal_form_discriminant(b, b)
            assert delta == b**5 * (b * b - 11 * b - 1)
            if delta.is_zero():
                degenerate += 1
                for build in (degree5_j_invariant, degree5_curve):
                    with pytest.raises(DegenerateParams,
                                       match="normal-form discriminant vanishes"):
                        build(b)
            else:
                assert degree5_j_invariant(b) == degree5_curve(b).j_invariant(), b
        assert degenerate == 1 + len(roots) and len(roots) in (0, 2)

    def test_degenerate_params_rejected(self, F11):
        assert normal_form_discriminant(F11.one, F11.one).is_zero()
        with pytest.raises(DegenerateParams):
            TateParams(F11.one, F11.one, 5)

    def test_degree5_requires_c_equal_b(self, F31):
        with pytest.raises(DegenerateParams):
            TateParams(F31.el(3), F31.el(4), 5)

    def test_roundtrip_identity(self, F31):
        b = F31.el(7)
        tp = TateParams(b, b, 5)
        E = curve_from_params(tp)
        got, iso = to_tate_normal(E, marked_point(F31), 5)
        assert got == tp
        assert iso.apply(marked_point(F31)) == marked_point(F31)

    def test_roundtrip_through_random_isomorphism(self, F11):
        b = F11.el(2)
        E = degree5_curve(b)
        rng = random.Random(23)
        for _ in range(10):
            u = F11.el(rng.randrange(1, 11))
            r, s, t = (F11.el(rng.randrange(11)) for _ in range(3))
            iso = _iso_from(E, u, r, s, t)
            moved = iso.apply(marked_point(F11))
            tp, back = to_tate_normal(iso.codomain, moved, 5)
            assert tp.b == b and tp.c == b
            assert back.apply(moved) == marked_point(F11)

    def test_c_equals_b_for_all_order5_inputs(self):
        rng = random.Random(31)
        checked = 0
        while checked < 10:
            p = rng.choice([11, 31, 41])
            F = make_field(p)
            E = degree5_curve(F.el(2) if p != 11 else F.el(3))
            for P in points_of_order(E, 5):
                tp, _ = to_tate_normal(E, P, 5)
                assert tp.c == tp.b
                checked += 1
                break

    def test_order_below_four_rejected(self, F11):
        E = degree5_curve(F11.el(2))
        with pytest.raises(ValueError):
            to_tate_normal(E, marked_point(F11), 4)


def isomorphisms_by_scan(E1, E2):
    """The O(q) oracle for `isomorphisms`: every scale u in F_q^x, in
    canonical order, through `isomorphism_with_scale`."""
    return [iso for u in E1.ctx.nonzero_elements()
            if (iso := isomorphism_with_scale(E1, E2, u)) is not None]


def iso_data(isos):
    return [(iso.u, iso.r, iso.s, iso.t) for iso in isos]


class TestIsomorphismSearch:
    @pytest.mark.parametrize("p,k", [(11, 1), (7, 2)])
    def test_matches_scan_on_degree5_curves(self, p, k):
        F = make_field(p, k)
        curves = [degree5_curve(b) for b in F.nonzero_elements()
                  if not normal_form_discriminant(b, b).is_zero()]
        js = [E.j_invariant() for E in curves]
        found = 0
        for E1, j1 in zip(curves, js):
            for E2, j2 in zip(curves, js):
                # curves of different j are not isomorphic; the scan checks the rest
                expected = iso_data(isomorphisms_by_scan(E1, E2)) if j1 == j2 else []
                assert iso_data(isomorphisms(E1, E2)) == expected, (E1, E2)
                found += len(expected)
        assert found >= 2 * len(curves)  # at least +-1 on each curve

    @pytest.mark.parametrize("p", [13, 37])
    def test_matches_scan_at_j_0_and_1728(self, p):
        # p = 1 mod 12: y^2 = x^3 + a6 has 6 automorphisms and y^2 = x^3 + a4 x
        # has 4.  E2 runs through every curve of a family and E1 through one
        # curve per twist class, the coefficient modulo 6th or 4th powers
        F = make_field(p)
        zero = F.zero
        families = {
            6: lambda c: WeierstrassCurve(zero, zero, zero, zero, c),
            4: lambda c: WeierstrassCurve(zero, zero, zero, c, zero),
        }
        units = list(F.nonzero_elements())
        for automorphisms, family in families.items():
            classes = {c ** ((p - 1) // automorphisms): c for c in reversed(units)}
            assert len(classes) == automorphisms
            counts = set()
            for E1 in map(family, classes.values()):
                for E2 in map(family, units):
                    expected = iso_data(isomorphisms_by_scan(E1, E2))
                    assert iso_data(isomorphisms(E1, E2)) == expected, (E1, E2)
                    counts.add(len(expected))
            assert counts == {0, automorphisms}

    def test_b_invariants_once_per_curve(self, F31, monkeypatch):
        # one b-invariant computation per curve gives both its j and its
        # Delta, on the j-mismatch path and on the 12th-root path alike
        E1, E2, E3 = (degree5_curve(F31.el(b)) for b in (2, 15, 3))
        assert E1.j_invariant() == E2.j_invariant() != E3.j_invariant()
        calls = []
        b_invariants = WeierstrassCurve.b_invariants

        def counted(self):
            calls.append(self)
            return b_invariants(self)

        monkeypatch.setattr(WeierstrassCurve, "b_invariants", counted)
        for other, found in ((E1, True), (E2, True), (E3, False)):
            calls.clear()
            assert bool(list(isomorphisms(E1, other))) is found
            assert calls == [E1, other]

    def test_identity_constraint(self, F11):
        E = degree5_curve(F11.el(2))
        P = marked_point(F11)
        iso = find_isomorphism(E, E, point_map=(P, P))
        assert iso is not None
        assert iso.apply(P) == P

    def test_marked_subgroups_equivalent_2_and_5(self, F11):
        # b * b' = -1 mod 11 for (2, 5)
        E1, E2 = degree5_curve(F11.el(2)), degree5_curve(F11.el(5))
        s1 = E1.subgroup(marked_point(F11))
        s2 = E2.subgroup(marked_point(F11))
        iso = find_isomorphism(E1, E2, subgroup_map=(s1, s2))
        assert iso is not None
        image = {iso.apply(q) for q in s1}
        assert image == set(s2)

    def test_marked_subgroups_inequivalent_2_and_3(self, F11):
        E1, E2 = degree5_curve(F11.el(2)), degree5_curve(F11.el(3))
        s1 = E1.subgroup(marked_point(F11))
        s2 = E2.subgroup(marked_point(F11))
        assert find_isomorphism(E1, E2, subgroup_map=(s1, s2)) is None

    def test_iso_respects_group_law(self, F11):
        E1, E2 = degree5_curve(F11.el(2)), degree5_curve(F11.el(5))
        iso = next(isomorphisms(E1, E2))
        pts = enumerate_points(E1)
        rng = random.Random(0)
        for _ in range(40):
            P, Q = rng.choice(pts), rng.choice(pts)
            assert iso.apply(E1.add(P, Q)) == E2.add(iso.apply(P), iso.apply(Q))

    def test_inverse_and_compose(self, F11):
        E = degree5_curve(F11.el(2))
        iso = _iso_from(E, F11.el(3), F11.el(1), F11.el(4), F11.el(2))
        back = iso.inverse()
        both = iso.compose(back)
        for P in enumerate_points(E):
            assert back.apply(iso.apply(P)) == P
            assert both.apply(P) == P


class TestTorsionBasis:
    def test_basis_over_f31(self, F31):
        E = degree5_curve(F31.el(11))
        P1, P2 = torsion_basis(E, 5, F31)
        assert point_order(E, P1) == 5 and point_order(E, P2) == 5
        e = weil(E, P1, P2, 5)
        assert e != F31.one and e**5 == F31.one

    def test_unavailable_over_f13(self, F13):
        E = degree5_curve(F13.el(4))
        with pytest.raises(TorsionUnavailable):
            torsion_basis(E, 5, F13)

    def test_basis_over_cubic_extension(self):
        # trace -6 over F_11 gives 25 | #E(F_11^3), with order-3 Frobenius
        # on the 5-torsion, so the basis appears over the cubic extension
        F = make_field(11)
        ext = make_field(11, 3)
        target = None
        for a in range(11):
            for b in range(11):
                try:
                    E = WeierstrassCurve(F.zero, F.zero, F.zero, F.el(a), F.el(b))
                except DegenerateParams:
                    continue
                if trace_of_frobenius(E) == -6:
                    target = E
                    break
            if target:
                break
        assert target is not None
        assert order_over_extension(target, 3) % 25 == 0
        P1, P2 = torsion_basis(target, 5, ext)
        Ee = base_change(target, ext)
        assert point_order(Ee, P1) == 5 and point_order(Ee, P2) == 5
        e = weil(Ee, P1, P2, 5)
        assert e != ext.one and e**5 == ext.one

    def test_basis_at_61_bits_without_enumeration_or_sampling(self, monkeypatch):
        # group_order would enumerate 2^61 points; the basis comes from the
        # roots of psi_5 and the Weil pairing alone
        F = make_field(2**61 - 1)
        b = F.el(1754659928281503099)
        assert not normal_form_discriminant(b, b).is_zero()
        E = degree5_curve(b)

        def refuse(*args, **kwargs):
            raise AssertionError("the basis enumerated the curve")

        monkeypatch.setattr(curve, "enumerate_points", refuse)
        monkeypatch.setattr(curve, "group_order", refuse)
        curve.reset_sample_count()
        P1, P2 = torsion_basis(E, 5, F)
        assert curve.sample_count() == 0
        assert has_order(E, P1, 5) and has_order(E, P2, 5)
        e = weil(E, P1, P2, 5)
        assert e != F.one and e**5 == F.one
        # the 25 combinations [i]P1 + [j]P2 are all of E[5], so it is rational
        span = {E.add(E.mul(i, P1), E.mul(j, P2)) for i in range(5) for j in range(5)}
        assert len(span) == 25
        assert set(points_of_order(E, 5)) == span - {O}

    def test_basis_exactly_where_the_5_torsion_is_rational_f31(self, F31):
        # oracle: E[5] is rational when 25 enumerated points are killed by 5
        rational = []
        for v in range(1, 31):
            b = F31.el(v)
            if normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            killed = sum(E.mul(5, P).is_infinity for P in enumerate_points(E))
            assert (killed == 25) == (len(points_of_order(E, 5)) == 24)
            if killed == 25:
                rational.append(v)
                P1, P2 = torsion_basis(E, 5, F31)
                assert weil(E, P1, P2, 5) != F31.one
            else:
                with pytest.raises(TorsionUnavailable, match=r"E\[5\] is not rational"):
                    torsion_basis(E, 5, F31)
        assert rational == [11, 14, 21, 28]

    def test_unavailable_although_25_divides_the_order(self):
        # over F_101, 25 | #E(F_101) at b = 6 (a point of order 25 lies over
        # the marked point), yet E[5] is not rational: refused, nothing drawn
        F = make_field(101)
        E = degree5_curve(F.el(6))
        assert group_order(E) % 25 == 0
        curve.reset_sample_count()
        with pytest.raises(TorsionUnavailable, match=r"E\[5\] is not rational"):
            torsion_basis(E, 5, F)
        assert curve.sample_count() == 0

    def test_even_order_refused(self, F11):
        with pytest.raises(ValueError, match="odd n"):
            points_of_order(degree5_curve(F11.el(2)), 4)

    def test_rational_order_25_point(self):
        F = make_field(101)
        E = degree5_curve(F.el(6))
        P = marked_point(F)
        above = points_above(E, P)
        assert len(above) == 5  # R + <P>, as E[5](F_101) = <P>
        R = above[0]
        assert point_order(E, R) == 25
        assert E.mul(5, R) == P
