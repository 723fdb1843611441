import json
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radicant import curve, radical
from radicant.curve import (
    Point,
    degree5_curve,
    normal_form_discriminant,
    point_order,
)
from radicant.errors import DegenerateParams, DegenerateStep, NoRootError, RadicantError
from radicant.field import make_field, nth_roots
from radicant.isogeny import is_distinguished, velu
from radicant.radical import (
    ChainResult,
    distinguished_point_5,
    radical_chain,
    radical_poly_irreducible,
    radical_poly_irreducible_oracle,
    radical_step_5,
    step_from_root,
    velu_chain,
    velu_reference_step,
)


class TestStep:
    def test_f13_worked_instance(self, F13):
        step = radical_step_5(F13.el(4), policy="unique")
        assert step.alpha == F13.el(10)
        assert step.b_next == F13.el(2)
        assert step.root_index == 0

    def test_formula_shape(self, F13):
        # recompute the rational expression independently of step_from_root
        b = F13.el(4)
        (alpha,) = nth_roots(b, 5)
        num = alpha**4 + 3 * alpha**3 + 4 * alpha**2 + 2 * alpha + 1
        den = alpha**4 - 2 * alpha**3 + 4 * alpha**2 - 3 * alpha + 1
        assert step_from_root(b, alpha).b_next == alpha * num / den

    def test_zero_b_rejected(self, F13):
        with pytest.raises(DegenerateParams):
            radical_step_5(F13.zero)

    def test_degenerate_delta_rejected(self, F11):
        assert normal_form_discriminant(F11.one, F11.one).is_zero()
        with pytest.raises(DegenerateParams):
            radical_step_5(F11.one)

    def test_no_root_raises(self, F11):
        # 3 is not a fifth power mod 11
        with pytest.raises(NoRootError):
            radical_step_5(F11.el(3), policy="canonical")

    def test_pole_of_expression_reported(self):
        # roots of the denominator quartic only occur at degenerate b, so the
        # pole is reachable only by calling the raw step directly
        F = make_field(31)
        alpha = F.el(7)
        den = alpha**4 - 2 * alpha**3 + 4 * alpha**2 - 3 * alpha + 1
        assert den.is_zero()
        with pytest.raises(DegenerateStep) as err:
            step_from_root(alpha**5, alpha)
        assert err.value.alpha == alpha
        # and the corresponding b is itself degenerate, caught upstream
        with pytest.raises(DegenerateParams):
            radical_step_5(alpha**5)

    def test_policies(self):
        F = make_field(41)
        b = F.el(2) ** 5
        roots = nth_roots(b, 5)
        assert len(roots) == 5
        with pytest.raises(NoRootError):
            radical_step_5(b, policy="unique")
        st = radical_step_5(b, policy="canonical")
        assert st.alpha == roots[0]
        for i in range(5):
            sti = radical_step_5(b, policy=f"index:{i}")
            assert sti.alpha == roots[i] and sti.root_index == i
        with pytest.raises(NoRootError):
            radical_step_5(b, policy="index:5")
        with pytest.raises(ValueError):
            radical_step_5(b, policy="biggest")

    def test_v5_9_field_has_no_sylow_ceiling(self):
        # 50781251 - 1 = 2 * 13 * 5^9: a 5-Sylow subgroup of 5^9 elements
        F = make_field(50781251)
        rng = random.Random(9)
        bs = [F.el(32)] + [F.el(rng.randrange(2, F.p)) ** 5 for _ in range(2)]
        for b in bs:
            assert len(nth_roots(b, 5)) == 5
            j_quotient = velu(degree5_curve(b), Point(F.zero, F.zero)).codomain.j_invariant()
            for i in range(5):
                step = radical_step_5(b, policy=f"index:{i}")
                assert step.alpha**5 == b
                assert degree5_curve(step.b_next).j_invariant() == j_quotient

    def test_output_is_valid_parameter(self):
        rng = random.Random(15)
        checked = 0
        while checked < 30:
            p = rng.choice([13, 17, 19, 23, 37, 43, 47])
            if (p - 1) % 5 == 0:
                continue
            F = make_field(p)
            v = rng.randrange(1, p)
            b = F.el(v)
            if normal_form_discriminant(b, b).is_zero():
                continue
            step = radical_step_5(b, policy="unique")
            assert not normal_form_discriminant(step.b_next, step.b_next).is_zero()
            checked += 1


class TestDistinguishedPoint:
    def test_lies_on_codomain_has_order_5_and_is_distinguished(self):
        F = make_field(41)
        b = F.el(2) ** 5
        E = degree5_curve(b)
        phi = velu(E, Point(F.zero, F.zero))
        for alpha in nth_roots(b, 5):
            P2 = distinguished_point_5(b, alpha)
            assert phi.codomain.contains(P2)
            assert point_order(phi.codomain, P2) == 5
            assert is_distinguished(phi, P2)

    def test_f13_closed_form_point(self, F13):
        b = F13.el(4)
        (alpha,) = nth_roots(b, 5)
        P2 = distinguished_point_5(b, alpha)
        assert P2 == Point(F13.zero, F13.el(3))

    def test_wrong_root_rejected(self, F13):
        with pytest.raises(ValueError):
            distinguished_point_5(F13.el(4), F13.el(3))


class TestChain:
    def test_zero_steps(self, F13):
        chain = radical_chain(F13.el(4), 0, policy="unique")
        assert [b.to_int() for b in chain.b_values] == [4]

    @pytest.mark.parametrize("driver", [radical_chain, velu_chain])
    def test_negative_steps_rejected(self, F13, driver):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            driver(F13.el(4), -1)

    def test_one_step_consistency(self, F13):
        chain = radical_chain(F13.el(4), 1, policy="unique")
        step = radical_step_5(F13.el(4), policy="unique")
        assert chain.b_values == (F13.el(4), step.b_next)

    def test_two_steps_f13(self, F13):
        chain = radical_chain(F13.el(4), 2, policy="unique")
        assert [b.to_int() for b in chain.b_values[:2]] == [4, 2]
        nxt = radical_step_5(F13.el(2), policy="unique").b_next
        assert chain.b_values[2] == nxt

    def test_deterministic_bytes(self, F13):
        a = radical_chain(F13.el(4), 6, policy="unique").as_json()
        b = radical_chain(F13.el(4), 6, policy="unique").as_json()
        assert a == b
        assert json.loads(a)["chain"][0] == 4

    def test_error_carries_step_index(self, F11):
        # over F_11 the first step from b=2 yields another valid parameter;
        # b=3 has no fifth root at all, so step 0 fails
        with pytest.raises(NoRootError) as err:
            radical_chain(F11.el(3), 2, policy="canonical")
        assert "step 0" in str(err.value)


class TestNoRedundantChecks:
    @pytest.fixture
    def discriminant_calls(self, monkeypatch):
        calls = []

        def counted(b, c):
            calls.append(b)
            return normal_form_discriminant(b, c)

        # curve's own name too, which TateParams uses
        monkeypatch.setattr(radical, "normal_form_discriminant", counted)
        monkeypatch.setattr(curve, "normal_form_discriminant", counted)
        return calls

    @pytest.mark.parametrize("p,k,b0", [(13, 1, 4), (1013, 2, (5, 7))])
    @pytest.mark.parametrize("steps", [0, 1, 7])
    def test_chain_checks_each_parameter_once(self, discriminant_calls, p, k, b0, steps):
        # b0 once on entry, then each successor once, inside step_from_root
        chain = radical_chain(make_field(p, k).el(b0), steps, "unique")
        assert list(chain.b_values) == discriminant_calls
        assert len(discriminant_calls) == steps + 1

    @pytest.mark.parametrize("p,k,b", [(13, 1, 4), (1013, 2, (5, 7))])
    def test_step_checks_input_and_successor(self, discriminant_calls, p, k, b):
        step = radical_step_5(make_field(p, k).el(b), "unique")
        assert discriminant_calls == [step.b, step.b_next]


# F_p with 5 not dividing p - 1 (a unique root), F_p with 5 | p - 1 (five
# roots of a fifth power), and F_{p^2} with p = +-2 mod 5 (a unique root)
UNIQUE_PRIMES = [7, 13, 17, 19, 23, 29, 37, 43, 47, 1000003]
SPLIT_PRIMES = [11, 31, 41, 61, 71, 101, 251]
QUADRATIC_PRIMES = [7, 13, 17, 23, 37, 43]


def _quotient_j(b):
    return velu(degree5_curve(b), Point(b.ctx.zero, b.ctx.zero)).codomain.j_invariant()


def _stepwise(b0, steps, policy):
    """The chain as repeated radical_step_5 calls: (values, error or None)."""
    values = [b0]
    for i in range(steps):
        try:
            values.append(radical_step_5(values[-1], policy).b_next)
        except RadicantError as exc:
            return values, (type(exc), f"step {i}: {exc}")
    return values, None


class TestChainDifferential:
    def _check(self, b0, steps, policy):
        """Returns the values the chain reached."""
        values, error = _stepwise(b0, steps, policy)
        if error is None:
            assert radical_chain(b0, steps, policy).b_values == tuple(values)
        else:
            with pytest.raises(error[0]) as err:
                radical_chain(b0, steps, policy)
            assert str(err.value) == error[1]
        for b, b_next in zip(values, values[1:]):
            assert degree5_curve(b_next).j_invariant() == _quotient_j(b)
        return values

    @settings(max_examples=25)
    @given(p=st.sampled_from(UNIQUE_PRIMES), v=st.integers(1, 10**6),
           steps=st.integers(1, 6))
    def test_prime_field_unique(self, p, v, steps):
        b0 = make_field(p).el(v)
        assume(not b0.is_zero() and not normal_form_discriminant(b0, b0).is_zero())
        self._check(b0, steps, "unique")

    @settings(max_examples=25)
    @given(p=st.sampled_from(QUADRATIC_PRIMES), v=st.tuples(st.integers(0, 50), st.integers(1, 50)),
           steps=st.integers(1, 4))
    def test_quadratic_field_unique(self, p, v, steps):
        b0 = make_field(p, 2).el(v)
        assume(not normal_form_discriminant(b0, b0).is_zero())
        values = self._check(b0, steps, "unique")
        # the Velu oracle, with its dual built over F_{p^2}, agrees
        for b, b_next in zip(values, values[1:]):
            assert velu_reference_step(b) == [b_next]

    @settings(max_examples=25)
    @given(p=st.sampled_from(SPLIT_PRIMES), v=st.integers(2, 10**6), steps=st.integers(1, 3))
    def test_prime_field_every_root(self, p, v, steps):
        F = make_field(p)
        b0 = F.el(v) ** 5
        assume(not b0.is_zero() and not normal_form_discriminant(b0, b0).is_zero())
        assert len(nth_roots(b0, 5)) == 5
        for i in range(5):
            self._check(b0, steps, f"index:{i}")


class TestReferenceOracle:
    def test_all_roots_land_in_reference_set(self):
        rng = random.Random(99)
        checked = 0
        while checked < 6:
            p = rng.choice([31, 41, 61, 71, 101])
            F = make_field(p)
            b = F.el(rng.randrange(2, p)) ** 5
            if b.is_zero() or normal_form_discriminant(b, b).is_zero():
                continue
            roots = nth_roots(b, 5)
            assert len(roots) == 5
            ref = {e.coeffs for e in velu_reference_step(b)}
            assert len(ref) <= 5
            for i, alpha in enumerate(roots):
                assert step_from_root(b, alpha, i).b_next.coeffs in ref
            checked += 1

    def test_unique_regime_reference_matches_step(self, F13):
        for v in (2, 3, 4, 6):
            b = F13.el(v)
            if normal_form_discriminant(b, b).is_zero():
                continue
            ref = velu_reference_step(b)
            assert len(ref) == 1
            assert ref[0] == radical_step_5(b, policy="unique").b_next

    @pytest.mark.parametrize("p,b0", [(13, 4), (7, 3)])
    def test_velu_chain_agrees_with_radical_chain(self, p, b0):
        F = make_field(p)
        rad = radical_chain(F.el(b0), 3, policy="unique")
        vel = velu_chain(F.el(b0), 3)
        assert rad.b_values == vel.b_values

    @pytest.mark.parametrize("p", [19, 29])
    def test_velu_chain_agrees_at_p_4_mod_5(self, p):
        # q = 4 mod 5: E[5] is rational only over F_{q^2}, where the old
        # dual check could not reach its proof bound
        F = make_field(p)
        checked = 0
        for v in range(1, p):
            b = F.el(v)
            if normal_form_discriminant(b, b).is_zero():
                continue
            assert velu_chain(b, 1).b_values == radical_chain(b, 1, "unique").b_values
            checked += 1
        assert checked > 10

    def test_reference_step_needs_no_enumeration(self, monkeypatch):
        # p = 1000151: the oracle reads the 5-torsion off psi_5 and checks the
        # dual by polynomial identities, so no curve is enumerated or sampled
        monkeypatch.setenv("RADICANT_ENUM_BOUND", "1000")
        F = make_field(1000151)
        b = F.el(123457) ** 5
        curve.reset_sample_count()
        t0 = time.perf_counter()
        ref = velu_reference_step(b)
        assert time.perf_counter() - t0 < 5.0
        assert curve.sample_count() == 0
        successors = {radical_step_5(b, f"index:{i}").b_next for i in range(5)}
        assert ref == sorted(successors, key=lambda e: e.coeffs)

    @pytest.mark.parametrize("p,v", [(11, 4), (31, 3), (11, 2), (11, 3), (31, 7)])
    def test_reference_over_extension_matches_radical_steps(self, p, v):
        # b is no fifth power in F_p, so no rational codomain point is
        # distinguished and the oracle searches E2[5] over F_{p^5}; there
        # the radical formula sees all five fifth roots of b.  At (11, 2)
        # and (11, 3) the torsion basis over F_{11^5} once failed its Weil
        # pairing check on a dependent pair
        b = make_field(p).el(v)
        assert not nth_roots(b, 5)
        ref = velu_reference_step(b)
        ext = ref[0].ctx
        assert ext.k == 5
        successors = {radical_step_5(ext.embed(b), f"index:{i}").b_next for i in range(5)}
        assert ref == sorted(successors, key=lambda e: e.coeffs)

    def test_velu_chain_rejects_mod5_fields(self, F31):
        with pytest.raises(ValueError):
            velu_chain(F31.el(2), 1)


class TestIrreducibility:
    def test_f11_examples(self, F11):
        assert radical_poly_irreducible(F11.el(3), 5, F11) is True
        assert radical_poly_irreducible(F11.el(10), 5, F11) is False

    def test_f11_exhaustive_vs_oracle(self, F11):
        fifth_powers = {(F11.el(v) ** 5).to_int() for v in range(1, 11)}
        for v in range(1, 11):
            b = F11.el(v)
            crit = radical_poly_irreducible(b, 5, F11)
            assert crit == radical_poly_irreducible_oracle(b, 5, F11)
            assert crit == (v not in fifth_powers)

    def test_f13_always_reducible(self, F13):
        for v in range(1, 13):
            assert radical_poly_irreducible(F13.el(v), 5, F13) is False
            assert radical_poly_irreducible_oracle(F13.el(v), 5, F13) is False

    def test_sylow_heavy_field(self):
        # q = 1 mod 25: the criterion must still match the generic oracle
        F = make_field(101)
        rng = random.Random(3)
        for _ in range(6):
            v = rng.randrange(1, 101)
            b = F.el(v)
            assert radical_poly_irreducible(b, 5, F) == radical_poly_irreducible_oracle(b, 5, F)

    def test_composite_degree_rejected(self, F11):
        with pytest.raises(ValueError):
            radical_poly_irreducible(F11.el(3), 6, F11)
