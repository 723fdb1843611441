import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radicant import moduli
from radicant.curve import (
    Point,
    WeierstrassCurve,
    degree5_curve,
    degree5_j_invariant,
    enum_bound,
    find_isomorphism,
    normal_form_discriminant,
    point_order,
    torsion_basis,
)
from radicant.errors import ContextMismatch, DegenerateParams
from radicant.field import make_field
from radicant.isogeny import dual_isogeny, is_distinguished, points_above
from radicant.moduli import (
    MarkedPoint,
    MarkedSubgroup,
    SemidirectElem,
    axis_subgroup_normality,
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

sd_units5 = st.sampled_from([1, 2, 3, 4])
sd_coord5 = st.integers(min_value=0, max_value=4)


def sd5(a, b, k):
    return SemidirectElem(a, b, k, 5)


class TestSemidirect:
    def test_worked_product(self):
        assert sd_mul(sd5(1, 2, 3), sd5(3, 1, 2)) == sd_identity(5)

    def test_worked_inverse(self):
        assert sd_inv(sd5(1, 2, 3)) == sd5(3, 1, 2)

    @pytest.mark.parametrize("N", range(3, 8))
    def test_identity_and_inverse_exhaustive(self, N):
        for g in group_elements(N):
            assert sd_mul(g, sd_identity(N)) == g
            assert sd_mul(sd_identity(N), g) == g
            assert sd_mul(g, sd_inv(g)) == sd_identity(N)
            assert sd_mul(sd_inv(g), g) == sd_identity(N)

    def test_inverse_involution(self):
        rng = random.Random(0)
        G = list(group_elements(7))
        for _ in range(100):
            g = rng.choice(G)
            assert sd_inv(sd_inv(g)) == g

    @given(sd_coord5, sd_coord5, sd_units5, sd_coord5, sd_coord5, sd_units5,
           sd_coord5, sd_coord5, sd_units5)
    def test_associativity_hypothesis(self, a1, b1, k1, a2, b2, k2, a3, b3, k3):
        g, h, f = sd5(a1, b1, k1), sd5(a2, b2, k2), sd5(a3, b3, k3)
        assert sd_mul(sd_mul(g, h), f) == sd_mul(g, sd_mul(h, f))

    def test_associativity_randomized_bulk(self):
        rng = random.Random(3)
        G = list(group_elements(5))
        for _ in range(10_000):
            g, h, f = rng.choice(G), rng.choice(G), rng.choice(G)
            assert sd_mul(sd_mul(g, h), f) == sd_mul(g, sd_mul(h, f))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            SemidirectElem(1, 1, 0, 5)
        with pytest.raises(ValueError):
            SemidirectElem(1, 1, 2, 6)

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            sd_mul(sd5(0, 0, 1), SemidirectElem(0, 0, 1, 7))


class TestAxisSubgroup:
    def test_membership_examples(self):
        assert in_axis_subgroup(SemidirectElem(3, 0, 2, 5))
        assert not in_axis_subgroup(SemidirectElem(0, 1, 1, 5))

    def test_count(self):
        for N in range(3, 13):
            phi_n = sum(1 for k in range(1, N) if math.gcd(k, N) == 1)
            count = sum(1 for g in group_elements(N) if in_axis_subgroup(g))
            assert count == N * phi_n

    @pytest.mark.parametrize("N", range(3, 13))
    def test_closure(self, N):
        H = [g for g in group_elements(N) if in_axis_subgroup(g)]
        for g in H:
            assert in_axis_subgroup(sd_inv(g))
        for g in H:
            for h in H:
                assert in_axis_subgroup(sd_mul(g, h))


class TestNormality:
    def test_worked_witness_instance(self):
        g, h = sd5(0, 1, 1), sd5(0, 0, 2)
        conj = sd_mul(sd_mul(g, h), sd_inv(g))
        assert conj == sd5(0, 4, 2)
        assert not in_axis_subgroup(conj)

    @pytest.mark.parametrize("N", range(5, 13))
    def test_not_normal_with_validated_witness(self, N):
        rep = axis_subgroup_normality(N)
        phi_n = sum(1 for k in range(1, N) if math.gcd(k, N) == 1)
        assert not rep.normal
        assert rep.group_order == N * N * phi_n
        assert rep.subgroup_order == N * phi_n
        g, h, conj = rep.witness
        assert sd_mul(sd_mul(g, h), sd_inv(g)) == conj
        assert in_axis_subgroup(h) and not in_axis_subgroup(conj)

    def test_small_levels_reported_without_interpretation(self):
        # levels 3 and 4 also come out non-normal under exhaustive conjugation
        for N in (3, 4):
            rep = axis_subgroup_normality(N)
            assert rep.normal is False


@pytest.fixture(scope="module")
def action_instance():
    F = make_field(251)
    E = degree5_curve(F.el(2))
    P = Point(F.zero, F.zero)
    R = points_above(E, P)[0]
    basis = torsion_basis(E, 5, F)
    return F, E, P, R, basis


class TestAction:
    def test_identity_action(self, action_instance):
        F, E, P, R, basis = action_instance
        assert g_action(sd_identity(5), E, R, basis) == R

    def test_action_axiom(self, action_instance):
        F, E, P, R, basis = action_instance
        rng = random.Random(2)
        G = list(group_elements(5))
        for _ in range(100):
            g, h = rng.choice(G), rng.choice(G)
            assert g_action(sd_mul(g, h), E, R, basis) == g_action(
                g, E, g_action(h, E, R, basis), basis
            )

    def test_orbit_size_matches_preimage_count(self, action_instance):
        F, E, P, R, basis = action_instance
        orbit = {g_action(g, E, R, basis) for g in group_elements(5)}
        assert len(orbit) == 100  # N^2 phi(N)

    def test_gamma0_class_invariant_along_orbit(self, action_instance):
        F, E, P, R, basis = action_instance
        base = gamma0_invariant(params_of(proj_point(MarkedPoint(E, R, 25), 5)).b)
        for g in group_elements(5):
            Rg = g_action(g, E, R, basis)
            assert point_order(E, Rg) == 25
            got = gamma0_invariant(params_of(proj_point(MarkedPoint(E, Rg, 25), 5)).b)
            assert got == base


@pytest.fixture(scope="module")
def marked25():
    F = make_field(101)
    E = degree5_curve(F.el(6))
    P = Point(F.zero, F.zero)
    R = points_above(E, P)[0]
    return F, E, P, MarkedPoint(E, R, 25)


class TestRescaleAndProjections:
    def test_rescale_has_exact_order_5(self, marked25):
        F, E, P, ec = marked25
        cur = ec
        pts = []
        for _ in range(5):
            cur = rescale(cur, 5)
            pts.append(cur.point)
        assert pts[-1] == ec.point
        assert all(q != ec.point for q in pts[:-1])

    def test_proj_point_invariance(self, marked25):
        F, E, P, ec = marked25
        assert proj_point(ec, 5).point == P
        base = params_of(proj_point(ec, 5)).b
        cur = ec
        for _ in range(4):
            cur = rescale(cur, 5)
            assert params_of(proj_point(cur, 5)).b == base

    def test_proj_quotient_invariance_and_distinguished(self, marked25):
        F, E, P, ec = marked25
        mp, phi = proj_quotient(ec, 5)
        assert mp.level == 5
        assert is_distinguished(dual_isogeny(phi), mp.point)
        base = params_of(mp).b
        cur = ec
        for _ in range(4):
            cur = rescale(cur, 5)
            mq, _ = proj_quotient(cur, 5)
            assert params_of(mq).b == base

    def test_level_validation(self, marked25):
        F, E, P, ec = marked25
        five = MarkedPoint(E, P, 5)
        with pytest.raises(ValueError):
            rescale(five, 5)
        with pytest.raises(ValueError):
            proj_point(five, 5)
        with pytest.raises(ValueError):
            MarkedPoint(E, P, 25)


class TestMarkedSubgroup:
    def test_valid_subgroup(self, F11):
        E = degree5_curve(F11.el(2))
        pts = tuple(E.subgroup(Point(F11.zero, F11.zero)))
        ms = MarkedSubgroup(E, pts, 5)
        assert len(ms.points) == 5

    def test_invalid_subgroup_rejected(self, F11):
        E = degree5_curve(F11.el(2))
        pts = tuple(E.subgroup(Point(F11.zero, F11.zero)))[:3]
        with pytest.raises(ValueError):
            MarkedSubgroup(E, pts, 5)


class TestGamma0Invariant:
    def test_values_f11(self, F11):
        assert gamma0_invariant(F11.el(2)) == F11.el(7)
        assert gamma0_invariant(F11.el(5)) == F11.el(7)
        assert gamma0_invariant(F11.el(3)) == F11.el(10)
        assert gamma0_invariant(F11.one) == F11.zero

    def test_zero_rejected(self, F11):
        with pytest.raises(DegenerateParams):
            gamma0_invariant(F11.zero)

    @given(st.integers(min_value=1, max_value=30))
    def test_symmetry_under_negated_inverse(self, v):
        F = make_field(31)
        b = F.el(v)
        assert gamma0_invariant(b) == gamma0_invariant(-(b.inverse()))


class TestGamma0Equivalence:
    def test_reflexive(self, F11):
        assert gamma0_equiv(F11.el(2), F11.el(2))

    def test_worked_pair(self, F11):
        assert gamma0_equiv(F11.el(2), F11.el(5))
        assert not gamma0_equiv(F11.el(2), F11.el(3))

    def test_invalid_rejected(self, F11):
        # b = 0 and the roots of b^2 - 11b - 1 = b^2 - 1 over F_11, either side
        invalid = [b for b in F11.elements() if normal_form_discriminant(b, b).is_zero()]
        assert invalid == [F11.zero, F11.one, F11.el(10)]
        for b in invalid:
            with pytest.raises(DegenerateParams):
                gamma0_equiv(b, F11.el(2))
            with pytest.raises(DegenerateParams):
                gamma0_equiv(F11.el(2), b)

    def test_mixed_fields_rejected(self, F11, F13):
        with pytest.raises(ContextMismatch):
            gamma0_equiv(F11.el(2), F13.el(2))

    def test_answered_above_enumeration_bound(self):
        # neither the j comparison nor the isomorphism search scans the
        # field, so a pair of equal j is answered, not refused
        F = make_field(2147483659)
        assert F.q > enum_bound()
        b1, b2 = F.el(2), F.el(3)
        assert degree5_curve(b1).j_invariant() != degree5_curve(b2).j_invariant()
        assert gamma0_equiv(b1, b2) is False
        assert gamma0_equiv(b1, b1) is True

    def test_negated_inverse_at_61_bits(self):
        # b -> -1/b fixes (b^2 - 1)/b and the marked subgroup's class
        F = make_field(2**61 - 1)
        rng = random.Random(61)
        for b in (F.el(rng.randrange(2, F.p)) for _ in range(5)):
            assert degree5_j_invariant(b) == degree5_j_invariant(-b.inverse())
            assert gamma0_equiv(b, -b.inverse()) is True

    def test_distinct_j_builds_no_subgroup(self, F31, monkeypatch):
        calls, curves = [], []
        original = WeierstrassCurve.subgroup
        monkeypatch.setattr(WeierstrassCurve, "subgroup",
                            lambda self, P: calls.append(P) or original(self, P))
        monkeypatch.setattr(moduli, "degree5_curve", lambda b: curves.append(b) or degree5_curve(b))
        b1, b2 = F31.el(2), F31.el(3)
        assert degree5_curve(b1).j_invariant() != degree5_curve(b2).j_invariant()
        assert gamma0_equiv(b1, b2) is False
        assert calls == [] and curves == []
        assert gamma0_equiv(b1, b1) is True
        assert len(calls) == 2 and curves == [b1, b1]
        # over all pairs, only the 64 pairs of equal j build their two curves
        valid = [b for b in F31.nonzero_elements() if not normal_form_discriminant(b, b).is_zero()]
        curves.clear()
        for x in valid:
            for y in valid:
                gamma0_equiv(x, y)
        assert (len(valid) ** 2, len(curves)) == (784, 128)


@pytest.mark.parametrize("p,k,n_equiv,n_unmarked", [(11, 1, 16, 0), (31, 1, 56, 8), (7, 2, 90, 0)])
def test_gamma0_equiv_matches_constrained_search(p, k, n_equiv, n_unmarked):
    # the full subgroup-constrained isomorphism search, for every valid pair;
    # n_unmarked counts isomorphic curves whose marked subgroups do not
    # correspond, the pairs a search without the constraint gets wrong
    F = make_field(p, k)
    P = Point(F.zero, F.zero)
    marked = [(b, degree5_curve(b)) for b in F.nonzero_elements()
              if not normal_form_discriminant(b, b).is_zero()]
    subgroups = [E.subgroup(P) for _, E in marked]
    equiv = unmarked = 0
    for (b1, E1), s1 in zip(marked, subgroups):
        for (b2, E2), s2 in zip(marked, subgroups):
            expected = find_isomorphism(E1, E2, subgroup_map=(s1, s2)) is not None
            assert gamma0_equiv(b1, b2) == expected, (b1, b2)
            equiv += expected
            unmarked += not expected and find_isomorphism(E1, E2) is not None
    assert (equiv, unmarked) == (n_equiv, n_unmarked)
