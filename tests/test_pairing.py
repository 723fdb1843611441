import random

import pytest

from radicant.curve import (
    O,
    Point,
    TateParams,
    base_change,
    degree5_curve,
    enumerate_points,
    normal_form_discriminant,
    torsion_basis,
)
from radicant.errors import DegenerateParams, SupportCollision
from radicant.field import make_field, nth_roots
from radicant.isogeny import velu
from radicant.pairing import _miller_raw, miller, radicand, tate_reduced, weil


def marked(ctx):
    return Point(ctx.zero, ctx.zero)


class TestMiller:
    def test_value_at_negative_of_base_f11(self, F11):
        E = degree5_curve(F11.el(2))
        P = marked(F11)
        assert miller(E, P, Point(F11.zero, F11.el(2)), 5) == F11.el(2)

    def test_radicand_equals_b_many_instances(self):
        rng = random.Random(6)
        checked = 0
        while checked < 50:
            p = rng.choice([11, 31, 41, 61, 71, 101, 131, 151])
            F = make_field(p)
            b = F.el(rng.randrange(1, p))
            if b.is_zero() or normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            P = marked(F)
            assert miller(E, P, E.neg(P), 5) == b
            checked += 1

    def test_support_collisions_rejected(self, F11):
        E = degree5_curve(F11.el(2))
        P = marked(F11)
        with pytest.raises(SupportCollision):
            miller(E, P, P, 5)
        with pytest.raises(SupportCollision):
            miller(E, P, O, 5)

    def test_wrong_order_rejected(self, F11):
        E = degree5_curve(F11.el(2))
        with pytest.raises(ValueError):
            miller(E, marked(F11), E.neg(marked(F11)), 7)

    def test_multiplicativity_up_to_fifth_powers(self, F31):
        # f(Q) f(Q') / f(Q + Q') is a fifth power (same reduced value)
        E = degree5_curve(F31.el(11))
        P = marked(F31)
        pts = [q for q in enumerate_points(E) if not q.is_infinity and q != P]
        rng = random.Random(1)
        exp = (31 - 1) // 5
        for _ in range(20):
            Q1, Q2 = rng.choice(pts), rng.choice(pts)
            S = E.add(Q1, Q2)
            if S.is_infinity or S == P:
                continue
            lhs = (miller(E, P, Q1, 5) * miller(E, P, Q2, 5)) ** exp
            rhs = miller(E, P, S, 5) ** exp
            assert lhs == rhs


class TestTateReduced:
    def test_lives_in_mu_n_and_nondegenerate(self, F31):
        E = degree5_curve(F31.el(11))
        P = marked(F31)
        t = tate_reduced(E, P, E.neg(P), 5)
        assert t**5 == F31.one and t != F31.one

    def test_requires_divisibility(self, F13):
        E = degree5_curve(F13.el(4))
        P = marked(F13)
        with pytest.raises(ValueError):
            tate_reduced(E, P, E.neg(P), 5)

    def test_bilinearity(self, F31):
        E = degree5_curve(F31.el(11))
        P = marked(F31)
        pts = [q for q in enumerate_points(E) if not q.is_infinity and q != P]
        rng = random.Random(5)
        for _ in range(15):
            Q1, Q2 = rng.choice(pts), rng.choice(pts)
            S = E.add(Q1, Q2)
            if S.is_infinity or S == P:
                continue
            assert tate_reduced(E, P, S, 5) == tate_reduced(E, P, Q1, 5) * tate_reduced(E, P, Q2, 5)

    def test_shift_independence(self, F31):
        # same reduced value for different auxiliary shifts
        E = degree5_curve(F31.el(11))
        P = marked(F31)
        Q = E.neg(P)
        exp = (31 - 1) // 5
        values = set()
        used = 0
        for U in enumerate_points(E):
            if U.is_infinity or U == P:
                continue
            QU = E.add(Q, U)
            if QU.is_infinity or QU == P:
                continue
            try:
                val = (_miller_raw(E, P, QU, 5) / _miller_raw(E, P, U, 5)) ** exp
            except SupportCollision:
                continue
            values.add(val)
            used += 1
            if used >= 8:
                break
        assert used >= 2 and len(values) == 1

    def test_fifth_power_class_invariance(self, F31):
        # replacing Q by Q + [5]Q' leaves the reduced value unchanged
        E = degree5_curve(F31.el(11))
        P = marked(F31)
        pts = [q for q in enumerate_points(E) if not q.is_infinity]
        rng = random.Random(10)
        for _ in range(10):
            Q, Qp = rng.choice(pts), rng.choice(pts)
            S = E.add(Q, E.mul(5, Qp))
            if Q.is_infinity or Q == P or S.is_infinity or S == P:
                continue
            assert tate_reduced(E, P, Q, 5) == tate_reduced(E, P, S, 5)


class TestWeil:
    def test_alternating_and_antisymmetric(self, F31):
        E = degree5_curve(F31.el(11))
        P1, P2 = torsion_basis(E, 5, F31)
        assert weil(E, P1, P1, 5) == F31.one
        assert weil(E, P2, P2, 5) == F31.one
        assert weil(E, P1, P2, 5) * weil(E, P2, P1, 5) == F31.one

    def test_basis_pairing_has_exact_order(self, F31):
        E = degree5_curve(F31.el(11))
        P1, P2 = torsion_basis(E, 5, F31)
        e = weil(E, P1, P2, 5)
        assert e**5 == F31.one
        assert all(e**m != F31.one for m in range(1, 5))

    def test_bilinear(self, F31):
        E = degree5_curve(F31.el(11))
        P1, P2 = torsion_basis(E, 5, F31)
        S = E.add(P1, P2)
        assert weil(E, S, P2, 5) == weil(E, P1, P2, 5) * weil(E, P2, P2, 5)

    def test_identity_argument(self, F31):
        E = degree5_curve(F31.el(11))
        P1, _ = torsion_basis(E, 5, F31)
        assert weil(E, O, P1, 5) == F31.one

    def test_dependent_pair_over_extension(self, F11):
        # S = (3, 4) and T = [2]S on the quotient of degree5_curve(2), both
        # rational over F_11, paired over F_{11^5}: e_5(S, [2]S) = 1
        E2 = velu(degree5_curve(F11.el(2)), marked(F11)).codomain
        ext = make_field(11, 5)
        E2e = base_change(E2, ext)
        S = Point(ext.el(3), ext.el(4))
        T = E2e.mul(2, S)
        assert T == Point(ext.el(5), ext.el(4))
        assert weil(E2e, S, T, 5) == ext.one

    def test_non_torsion_rejected(self, F31):
        from radicant.curve import points_of_order

        E = degree5_curve(F31.el(2))  # group order 40: mixed orders exist
        big = next(
            q for q in enumerate_points(E)
            if not q.is_infinity and not E.mul(5, q).is_infinity
        )
        P1 = points_of_order(E, 5)[0]
        with pytest.raises(ValueError):
            weil(E, big, P1, 5)


class TestRadicand:
    def test_returns_b(self, F31):
        assert radicand(TateParams(F31.el(7), F31.el(7), 5)) == F31.el(7)

    def test_roots_of_radicand_realize_the_root_function(self, F31):
        # any fifth root of f_{5,P}(-P), raised to 5, reproduces the value
        E = degree5_curve(F31.el(26))  # 26 is a fifth power mod 31
        P = marked(F31)
        val = miller(E, P, E.neg(P), 5)
        roots = nth_roots(val, 5)
        assert roots and all(r**5 == val for r in roots)

    def test_class_matches_reduced_pairing(self):
        rng = random.Random(77)
        checked = 0
        while checked < 10:
            p = rng.choice([11, 31, 41, 61])
            F = make_field(p)
            b = F.el(rng.randrange(1, p))
            if b.is_zero() or normal_form_discriminant(b, b).is_zero():
                continue
            E = degree5_curve(b)
            P = marked(F)
            rho = radicand(TateParams(b, b, 5))
            assert rho ** ((p - 1) // 5) == tate_reduced(E, P, E.neg(P), 5)
            checked += 1

    def test_degenerate_b_rejected(self, F31):
        with pytest.raises(DegenerateParams):
            TateParams(F31.zero, F31.zero, 5)

    def test_wrong_degree_rejected(self, F31):
        from radicant.curve import TateParams as TP

        tp = TP(F31.el(7), F31.el(3), 7)
        with pytest.raises(ValueError):
            radicand(tp)
