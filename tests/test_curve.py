import math
import random
import re

import pytest

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
    division_polynomial,
    enum_bound,
    enumerate_points,
    find_isomorphism,
    group_order,
    has_order,
    identity_iso,
    isomorphisms,
    normal_form_discriminant,
    point_order,
    points_of_order,
    rational_point_of_order,
    scalar_mul,
    to_tate_normal,
    torsion_basis,
    trace_of_frobenius,
    order_over_extension,
    _iso_from,
    _points_for_x,
)
from radicant.errors import (
    DegenerateParams,
    EnumerationBound,
    InvariantError,
    TorsionUnavailable,
)
from radicant.field import make_field
from radicant.pairing import weil


def marked_point(ctx):
    return Point(ctx.zero, ctx.zero)


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

    def test_extension_order_recurrence(self, F13):
        E = degree5_curve(F13.el(4))
        ext = make_field(13, 2)
        from radicant.curve import base_change

        assert order_over_extension(E, 2) == group_order(base_change(E, ext))


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


class TestIsomorphismSearch:
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
        from radicant.curve import base_change

        Ee = base_change(target, ext)
        assert point_order(Ee, P1) == 5 and point_order(Ee, P2) == 5
        e = weil(Ee, P1, P2, 5)
        assert e != ext.one and e**5 == ext.one

    def test_rational_order_25_point(self):
        F = make_field(101)
        E = degree5_curve(F.el(6))
        P = marked_point(F)
        R = rational_point_of_order(E, 25, above=P)
        assert R is not None
        assert point_order(E, R) == 25
        assert E.mul(5, R) == P
