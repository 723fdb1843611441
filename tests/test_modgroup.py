import itertools

import pytest

from radicant import modgroup
from radicant.errors import EnumerationBound
from radicant.modgroup import (
    Mat2,
    NormalityReport,
    SubgroupSpec,
    conjugation_closed_form,
    identity,
    index,
    is_normal,
    member,
    rescale_matrix,
    sl2_count,
    sl2_count_formula,
    sl2_elements,
    subgroup_elements,
    subgroup_order,
    _members,
)


class TestMat2:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            Mat2(1, 0, 0, 2, 5)

    @pytest.mark.parametrize("M", [0, -1, -25])
    def test_modulus_must_be_positive(self, M):
        with pytest.raises(ValueError):
            Mat2(1, 0, 0, 1, M)

    def test_inverse(self):
        t = rescale_matrix(5)
        assert (t * t.inv()).entries() == identity(25).entries()

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            identity(5) * identity(25)


class TestCounts:
    @pytest.mark.parametrize("M,expected", [(2, 6), (5, 120), (25, 15000)])
    def test_exhaustive_counts(self, M, expected):
        assert sl2_count(M) == expected

    def test_formula_agreement_up_to_30(self):
        for M in range(2, 31):
            assert sl2_count(M) == sl2_count_formula(M)

    def test_bound(self):
        # M = 100 takes 100 (100 + 100^2) steps, just above the work ceiling
        with pytest.raises(EnumerationBound, match="enumeration mod 100"):
            sl2_count(100)

    def test_stream_members_have_det_one(self):
        for a, b, c, d in sl2_elements(8):
            assert (a * d - b * c) % 8 == 1

    @pytest.mark.parametrize("M", range(1, 13))
    def test_stream_equals_brute_force(self, M):
        # every 4-tuple filtered on the determinant, in the same order
        expected = [t for t in itertools.product(range(M), repeat=4)
                    if (t[0] * t[3] - t[1] * t[2]) % M == 1 % M]
        assert list(sl2_elements(M)) == expected


class TestMembership:
    def test_identity_in_everything(self):
        for kind, N, M in [
            ("full", 5, 5),
            ("gamma", 5, 5),
            ("gamma1", 5, 25),
            ("gamma0", 25, 25),
            ("gamma1_rescaled", 5, 25),
        ]:
            assert member(identity(M), SubgroupSpec(kind, N, M))

    def test_rescale_matrix_memberships(self):
        t = rescale_matrix(5)
        assert t.entries() == (21, 24, 0, 6)
        assert member(t, SubgroupSpec("gamma0", 25, 25))
        assert not member(t, SubgroupSpec("gamma1", 25, 25))
        assert member(t, SubgroupSpec("gamma1_rescaled", 5, 25))
        assert t.det() == 1

    def test_rescale_matrix_determinant_identity(self):
        # (1-N)(1+N) + N^2 = 1 for every level
        for N in range(2, 12):
            assert rescale_matrix(N).det() == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SubgroupSpec("gamma1_rescaled", 5, 5)
        with pytest.raises(ValueError):
            SubgroupSpec("gamma1", 5, 7)
        with pytest.raises(ValueError):
            SubgroupSpec("borel", 5, 5)

    @pytest.mark.parametrize("kind, N, M", [
        ("gamma1_rescaled", 0, 0),
        ("gamma1", 0, 0),
        ("gamma1_rescaled", -3, 9),
        ("gamma1", -3, 9),
        ("full", 1, 0),
        ("full", 0, 5),
        ("gamma0", 1, -4),
    ])
    def test_level_and_modulus_must_be_positive(self, kind, N, M):
        with pytest.raises(ValueError):
            SubgroupSpec(kind, N, M)

    def test_level_one_is_everything(self):
        # every residue is 0 mod 1, so Gamma(1) = Gamma1(1) = SL2(Z/M)
        for kind in ("gamma", "gamma1", "gamma0"):
            s = SubgroupSpec(kind, 1, 5)
            assert subgroup_order(s) == 120
            assert index(s, SubgroupSpec("full", 1, 5)) == 1
        assert all(member(Mat2(*t, 5), SubgroupSpec("gamma", 1, 5)) for t in sl2_elements(5))

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            member(identity(5), SubgroupSpec("gamma1", 5, 25))


class TestOrders:
    def test_rescaled_subgroup_order_counts(self):
        # paper-level count at N = 5 plus the general cube law
        for N in (4, 5, 6, 7):
            got = subgroup_order(SubgroupSpec("gamma1_rescaled", N, N * N))
            assert got == N**3
        assert subgroup_order(SubgroupSpec("gamma1_rescaled", 5, 25)) == 125

    def test_gamma1_25_order(self):
        elems = subgroup_elements(SubgroupSpec("gamma1", 25, 25))
        assert len(elems) == 25
        assert all(m.a == 1 and m.d == 1 and m.c == 0 for m in elems)

    def test_gamma0_4_index(self):
        order = subgroup_order(SubgroupSpec("gamma0", 4, 4))
        assert sl2_count(4) // order == 6


def _specs_at(M):
    specs = [SubgroupSpec(kind, N, M)
             for kind in ("full", "gamma", "gamma1", "gamma0")
             for N in range(1, M + 1) if M % N == 0]
    specs += [SubgroupSpec("gamma1_rescaled", N, M) for N in range(1, M + 1) if N * N == M]
    return specs


class TestGeneratedMembers:
    @pytest.mark.parametrize("M", range(1, 31))
    def test_matches_filter_oracle(self, M):
        # the sl2_elements + member filter is the oracle for the generator
        mats = [Mat2(*t, M) for t in sl2_elements(M)]
        for s in _specs_at(M):
            expected = [m.entries() for m in mats if member(m, s)]
            assert list(_members(s)) == expected, s

    @pytest.mark.parametrize("M", [1, 4, 6, 8, 9])
    def test_containment_matches_member_oracle(self, M):
        # index streams sub through sup's congruence steps; `member` on each
        # matrix of sub is the oracle for which pairs it refuses
        specs = _specs_at(M)
        for sub, sup in itertools.product(specs, specs):
            if all(member(m, sup) for m in subgroup_elements(sub)):
                assert index(sub, sup) * subgroup_order(sub) == subgroup_order(sup)
            else:
                with pytest.raises(ValueError, match="not contained"):
                    index(sub, sup)

    @pytest.mark.parametrize("call", [
        lambda s, t: subgroup_order(s),
        lambda s, t: subgroup_elements(s),
        lambda s, t: index(s, t),
        lambda s, t: is_normal(s, t),
    ], ids=["subgroup_order", "subgroup_elements", "index", "is_normal"])
    def test_enumeration_bound(self, call, monkeypatch):
        # both specs step through 200 * 100 * 100 triples; refused before
        # any determinant table is built
        def refuse(*args):
            raise AssertionError("enumerated before the ceiling check")

        monkeypatch.setattr(modgroup, "_d_solutions", refuse)
        with pytest.raises(EnumerationBound):
            call(SubgroupSpec("gamma1", 2, 200), SubgroupSpec("gamma0", 2, 200))

    def test_bound_counts_the_steps_not_the_modulus(self):
        # at one modulus, the full group is refused and Gamma1(M) answered
        with pytest.raises(EnumerationBound):
            subgroup_order(SubgroupSpec("full", 1, 120))
        assert subgroup_order(SubgroupSpec("gamma1", 120, 120)) == 120

    def test_small_subgroup_at_a_large_modulus_is_answered(self):
        # Gamma(M) = {1} and Gamma1(M) = {[[1, b], [0, 1]]} at M = 1000, far
        # above the old modulus ceiling of 50
        gamma, gamma1 = SubgroupSpec("gamma", 1000, 1000), SubgroupSpec("gamma1", 1000, 1000)
        assert subgroup_elements(gamma) == [identity(1000)]
        assert index(gamma, gamma1) == 1000
        assert is_normal(gamma, gamma1).normal

    def test_conjugation_test_bound(self):
        # Gamma1(1600) and the rescaled group at N = 40 pass the enumeration
        # ceiling, but |sub| |sup| = 1600 * 40^3 conjugations do not
        with pytest.raises(EnumerationBound, match="conjugation test"):
            is_normal(SubgroupSpec("gamma1", 1600, 1600),
                      SubgroupSpec("gamma1_rescaled", 40, 1600))


class TestIndex:
    def test_worked_indices(self):
        g1_25 = SubgroupSpec("gamma1", 25, 25)
        assert index(g1_25, SubgroupSpec("gamma1_rescaled", 5, 25)) == 5
        assert index(g1_25, SubgroupSpec("gamma1", 5, 25)) == 25

    def test_self_index(self):
        s = SubgroupSpec("gamma1", 25, 25)
        assert index(s, s) == 1

    def test_not_a_subgroup(self):
        with pytest.raises(ValueError):
            index(SubgroupSpec("gamma0", 25, 25), SubgroupSpec("gamma1", 25, 25))

    def test_multiplicativity(self):
        for N in (4, 5, 6, 7):
            M = N * N
            rescaled = SubgroupSpec("gamma1_rescaled", N, M)
            g1 = SubgroupSpec("gamma1", M, M)
            gg = SubgroupSpec("gamma", M, M)
            assert index(gg, rescaled) == index(g1, rescaled) * index(gg, g1)


class TestNormality:
    def test_gamma1_n2_normal_in_rescaled(self):
        for N in (4, 5, 6, 7):
            rep = is_normal(
                SubgroupSpec("gamma1", N * N, N * N),
                SubgroupSpec("gamma1_rescaled", N, N * N),
            )
            assert rep.normal and rep.witness is None

    def test_principal_normal_in_full(self):
        rep = is_normal(SubgroupSpec("gamma", 5, 5), SubgroupSpec("full", 5, 5))
        assert rep.normal

    def test_non_normal_witness(self):
        # the upper-unipotent group is not normal in SL2(Z/5)
        rep = is_normal(SubgroupSpec("gamma1", 5, 5), SubgroupSpec("full", 5, 5))
        assert not rep.normal
        g, h, conj = rep.witness
        assert (g * h * g.inv()).entries() == conj.entries()
        assert not member(conj, SubgroupSpec("gamma1", 5, 5))

    @pytest.mark.parametrize("sub, sup, witness", [
        (("gamma1", 5, 5), ("full", 5, 5), ((0, 1, 4, 0), (1, 1, 0, 1), (1, 0, 4, 1))),
        (("gamma0", 4, 4), ("full", 4, 4), ((0, 1, 3, 0), (1, 1, 0, 1), (1, 0, 3, 1))),
        (("gamma0", 2, 2), ("full", 2, 2), ((0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1))),
        (("gamma0", 6, 6), ("full", 6, 6), ((0, 1, 5, 0), (1, 1, 0, 1), (1, 0, 5, 1))),
        (("gamma1", 4, 4), ("gamma0", 2, 4), ((1, 0, 2, 1), (1, 1, 0, 1), (3, 1, 0, 3))),
        (("gamma1", 9, 9), ("gamma0", 3, 9), ((1, 0, 3, 1), (1, 1, 0, 1), (7, 1, 0, 4))),
        (("gamma1", 16, 16), ("gamma0", 4, 16), ((1, 0, 4, 1), (1, 1, 0, 1), (13, 1, 0, 5))),
        # Gamma1(N) is the kernel of Gamma0(N) -> (Z/N)^x, d mod N
        (("gamma1", 3, 3), ("gamma0", 3, 3), None),
        (("gamma1", 4, 4), ("gamma0", 4, 4), None),
        (("gamma1", 6, 6), ("gamma0", 6, 6), None),
        (("gamma1", 3, 9), ("gamma0", 3, 9), None),
    ])
    def test_pinned_witnesses(self, sub, sup, witness):
        # the first failing (g, h) in member order, as the exhaustive scan finds it
        rep = is_normal(SubgroupSpec(*sub), SubgroupSpec(*sup))
        assert rep.normal is (witness is None)
        got = None if rep.witness is None else tuple(m.entries() for m in rep.witness)
        assert got == witness

    def test_conjugation_closed_form_other_levels(self):
        for N in (4, 6, 7):
            M = N * N
            t = rescale_matrix(N)
            ti = t.inv()
            for b in range(M):
                conj = ti * Mat2(1, b, 0, 1, M) * t
                assert conj.entries() == conjugation_closed_form(N, b).entries()
