import gc
import math
import operator
import random
import time
import types

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from radicant import field
from radicant.errors import ContextMismatch, NoRootError
from radicant.field import (
    _mul_raw,
    _mul_schoolbook,
    make_field,
    nth_roots,
)
from radicant.miscutil import order_dividing
from radicant.radical import radical_chain


def brute_roots(ctx, rho, n):
    """Independent oracle: exhaustive search over the whole field."""
    return sorted(
        (x for x in ctx.elements() if not x.is_zero() and x**n == rho),
        key=lambda e: e.coeffs,
    )


PINNED_MODULI = [
    ((5, 2), (1, 1, 1)), ((5, 3), (1, 0, 1, 1)), ((5, 4), (1, 0, 1, 1, 1)),
    ((7, 2), (1, 0, 1)), ((7, 3), (1, 0, 1, 1)), ((7, 4), (1, 0, 0, 1, 1)),
    ((11, 2), (1, 0, 1)),
    ((13, 2), (1, 3, 1)), ((13, 3), (1, 0, 4, 1)), ((13, 4), (1, 0, 0, 1, 1)),
    ((17, 4), (1, 0, 0, 3, 1)), ((31, 4), (1, 0, 0, 1, 1)),
    ((101, 2), (1, 1, 1)), ((101, 3), (1, 0, 1, 1)),
    ((1013, 2), (1, 1, 1)), ((10007, 2), (1, 0, 1)),
]


class TestMakeField:
    def test_prime_field(self):
        F = make_field(11, 1)
        assert F.q == 11 and F.modulus == (0, 1)

    def test_f25_smallest_irreducible(self):
        F = make_field(5, 2)
        # oracle: scan all monic quadratics in lex coefficient order and take
        # the first with no root
        best = None
        for c0 in range(5):
            for c1 in range(5):
                if any((x * x + c1 * x + c0) % 5 == 0 for x in range(5)):
                    continue
                best = (c0, c1, 1)
                break
            if best:
                break
        assert F.modulus == best == (1, 1, 1)

    @pytest.mark.parametrize("pk,modulus", PINNED_MODULI)
    def test_pinned_defining_polynomials(self, pk, modulus):
        # the defining polynomial fixes the canonical element order downstream
        assert make_field(*pk).modulus == modulus

    def test_degree4_construction_budget(self):
        t0 = time.perf_counter()
        make_field(31, 4)
        assert time.perf_counter() - t0 < 1.0

    def test_not_prime(self):
        with pytest.raises(ValueError):
            make_field(4, 1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_field(3, 1)

    def test_extension_polynomial_has_no_roots(self):
        F = make_field(13, 3)
        c = F.modulus
        assert len(c) == 4 and c[-1] == 1
        assert all(
            (x**3 * c[3] + x * x * c[2] + x * c[1] + c[0]) % 13 != 0
            for x in range(13)
        )


class TestArith:
    def test_examples_f11(self, F11):
        assert F11.el(7) + F11.el(8) == F11.el(4)
        assert F11.el(3).inverse() == F11.el(4)
        assert F11.el(2) ** 5 == F11.el(10)

    def test_division(self, F11):
        assert F11.el(7) / F11.el(3) * F11.el(3) == F11.el(7)

    def test_division_by_zero(self, F11):
        with pytest.raises(ZeroDivisionError):
            F11.el(1) / F11.zero

    def test_context_mixing_rejected(self, F11, F13):
        with pytest.raises(ContextMismatch):
            F11.el(1) + F13.el(1)

    def test_equal_contexts_from_separate_builds_mix(self):
        A, B = make_field(31), make_field(31)
        assert A is not B and A == B
        x, y = A.el(5), B.el(7)
        assert x + y == A.el(12)
        assert x * y == B.el(4)
        assert x / y * y == x
        assert A.el(9) == B.el(9) and hash(A.el(9)) == hash(B.el(9))

    def test_distinct_fields_do_not_mix(self):
        x, y = make_field(31).el(3), make_field(37).el(3)
        assert x != y
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ContextMismatch):
                op(x, y)

    @pytest.mark.parametrize("pk", [(11, 1), (5, 2), (7, 3)])
    def test_field_axioms_randomized(self, pk):
        F = make_field(*pk)
        rng = random.Random(repr(pk))
        els = [F.random_element(rng) for _ in range(40)]
        for _ in range(1100):
            a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    @given(st.integers(), st.integers())
    def test_add_sub_roundtrip(self, x, y):
        F = make_field(101)
        a, b = F.el(x), F.el(y)
        assert a + b - b == a

    @given(st.integers(min_value=1), st.integers(min_value=1))
    def test_mul_div_roundtrip(self, x, y):
        F = make_field(101)
        a, b = F.el(x), F.el(y)
        if b.is_zero():
            return
        assert (a * b) / b == a

    @pytest.mark.parametrize("p,k", [(5, 2), (7, 3), (5, 4), (11, 2)])
    def test_extension_inverse(self, p, k):
        F = make_field(p, k)
        for a in F.nonzero_elements():
            assert a * a.inverse() == F.one

    @pytest.mark.parametrize("p,k", [(1013, 2), (10007, 2), (13, 4)])
    def test_extension_inverse_matches_power(self, p, k):
        # a^(q-2) runs square-and-multiply only, never inverse
        F = make_field(p, k)
        rng = random.Random(p * k)
        for _ in range(20):
            a = F.random_element(rng)
            if not a.is_zero():
                assert a.inverse() == a ** (F.q - 2)

    @pytest.mark.parametrize("k", [2, 4])
    def test_extension_inverse_of_zero(self, k):
        with pytest.raises(ZeroDivisionError):
            make_field(13, k).zero.inverse()


def check_against_ints(F, a, b):
    """Every binary operator on a, b over F_p against int arithmetic mod p.

    a and b may be any ints; each pair is tried element-element,
    element-int and int-element, so the reflected forms run too.
    """
    p = F.p
    x, y = F.el(a), F.el(b)
    for lhs, rhs in ((x, y), (x, b), (a, y)):
        for result, expected in ((lhs + rhs, a + b), (lhs - rhs, a - b), (lhs * rhs, a * b)):
            assert result.ctx is F and result.coeffs == (expected % p,)
        if b % p:
            quotient = lhs / rhs
            assert quotient.ctx is F and quotient.coeffs == (a * pow(b, -1, p) % p,)
        else:
            with pytest.raises(ZeroDivisionError):
                lhs / rhs
        assert (lhs == rhs) is (a % p == b % p)
        assert (lhs != rhs) is (a % p != b % p)


class TestOperatorsAgainstInts:
    @pytest.mark.parametrize("p", [7, 11])
    def test_every_pair(self, p):
        # negative ints and ints >= p as well as the residues
        F = make_field(p)
        values = range(-p - 2, 2 * p + 2)
        for a in values:
            for b in values:
                check_against_ints(F, a, b)

    @pytest.mark.parametrize("p", [1048583, 2147483659, 2305843009213693907])
    def test_random_pairs_at_walk_primes(self, p):
        F = make_field(p)
        rng = random.Random(p)
        for _ in range(200):
            check_against_ints(F, rng.randrange(-p, 2 * p), rng.randrange(-p, 2 * p))

    @pytest.mark.parametrize("other", [(13, 1), (11, 2)], ids=["F13", "F11^2"])
    def test_foreign_context_rejected_by_every_operator(self, F11, other):
        x, y = F11.el(3), make_field(*other).el(3)
        for lhs, rhs in ((x, y), (y, x)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(ContextMismatch):
                    op(lhs, rhs)
            assert lhs != rhs

    @pytest.mark.parametrize("k", [1, 2])
    def test_separate_builds_mix_under_every_operator(self, k):
        A, B = make_field(11, k), make_field(11, k)
        assert A is not B
        rng = random.Random(k)
        for _ in range(50):
            a, b = A.random_element(rng), A.random_element(rng)
            b2 = B.el(b.coeffs)
            assert a + b2 == a + b and b2 + a == b + a
            assert a - b2 == a - b and b2 - a == b - a
            assert a * b2 == a * b and b2 * a == b * a
            if not b.is_zero():
                assert a / b2 == a / b
            if not a.is_zero():
                assert b2 / a == b / a
            assert (a == b2) is (a == b)


class TestExtensionRawArithmetic:
    # the written-out k = 2 product against the schoolbook loop that serves
    # every k >= 3, called directly: the modulus need not be irreducible for
    # the two to agree, so p near 2^31 needs no make_field
    @pytest.mark.parametrize("p", [5, 7, 1013, 2147483659])
    def test_k2_product_matches_schoolbook(self, p):
        rng = random.Random(p)

        def coeff():
            return rng.choice((0, 1, p - 1)) if rng.random() < 0.2 else rng.randrange(p)

        for _ in range(500):
            x, y = (coeff(), coeff()), (coeff(), coeff())
            modulus = (coeff(), coeff(), 1)
            assert _mul_raw(x, y, p, modulus) == _mul_schoolbook(x, y, p, modulus)

    @pytest.mark.parametrize("pk", [(5, 2), (7, 2), (1013, 2), (7, 3)])
    def test_int_operands_match_elements(self, pk):
        # x op n takes the coefficients directly; ctx.el(n) is the oracle
        F = make_field(*pk)
        p = F.p
        rng = random.Random(repr(pk))
        ints = [0, 1, -1, p, -p, p - 1, 2 * p + 3] + [rng.randrange(-p * p, p * p)
                                                      for _ in range(30)]
        for _ in range(40):
            x = F.random_element(rng)
            for n in ints:
                y = F.el(n)
                for got, expected in ((x * n, x * y), (n * x, y * x), (x + n, x + y),
                                      (n + x, y + x), (x - n, x - y), (n - x, y - x)):
                    assert got.ctx is F and got.coeffs == expected.coeffs
                    assert all(0 <= c < p for c in got.coeffs)

    @pytest.mark.parametrize("pk", [(5, 2), (7, 2), (1013, 2), (7, 3)])
    def test_pow_matches_repeated_products(self, pk):
        F = make_field(*pk)
        rng = random.Random(repr(pk))
        for _ in range(10):
            x = F.random_element(rng)
            power = F.one
            for e in range(40):
                got = x**e
                assert got.ctx is F and got.coeffs == power.coeffs
                power = power * x
            a, b = rng.randrange(F.q**2), rng.randrange(F.q**2)
            assert x ** (a + b) == x**a * x**b


def oracle_pow(x, e, F):
    """x^e by square-and-multiply over every bit of e on `_mul_schoolbook`,
    with no reduction of e; e < 0 inverts first, as x^(q-2)."""
    if e < 0:
        return oracle_pow(oracle_pow(x, F.q - 2, F), -e, F)
    result, base = (1,) + (0,) * (F.k - 1), x
    while e:
        if e & 1:
            result = _mul_schoolbook(result, base, F.p, F.modulus)
        base = _mul_schoolbook(base, base, F.p, F.modulus)
        e >>= 1
    return result


class TestQuadraticPowerAndInverse:
    # the k = 2 power runs over the base-p digits of the exponent and
    # inverts through the norm; the oracle is square-and-multiply over all
    # log2(e) bits on the schoolbook product that serves k >= 3
    PRIMES = [5, 7, 1013, 10007, 2147483659]

    @staticmethod
    def exponents(F, rng):
        p, q = F.p, F.q
        fixed = list(range(41)) + [p - 1, p, p + 1, q - 2, q - 1, q, q + 1, 3 * q + 1]
        drawn = [rng.randrange(q) for _ in range(4)] + [rng.randrange(q**2) for _ in range(2)]
        return fixed + drawn + [-e for e in (1, 2, p, q - 2, q, rng.randrange(1, q))]

    @pytest.mark.parametrize("p", PRIMES)
    def test_power_matches_oracle(self, p):
        F = make_field(p, 2)
        rng = random.Random(p)
        xs = [F.one, F.el(-1), F.el((0, 1)), F.el((p - 1, p - 1))]
        xs += [F.random_element(rng) for _ in range(6)]
        for x in xs:
            if x.is_zero():
                continue
            for e in self.exponents(F, rng):
                got = x**e
                assert got.ctx is F and got.coeffs == oracle_pow(x.coeffs, e, F), (x, e)

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_base(self, p):
        F = make_field(p, 2)
        assert F.zero**0 == F.one
        for e in self.exponents(F, random.Random(p)):
            if e > 0:
                assert F.zero**e == F.zero
        with pytest.raises(ZeroDivisionError):
            F.zero ** -1

    @pytest.mark.parametrize("p", PRIMES)
    def test_inverse_matches_oracle(self, p):
        F = make_field(p, 2)
        rng = random.Random(-p)
        for _ in range(30):
            x = F.random_element(rng)
            if not x.is_zero():
                assert x.inverse().coeffs == oracle_pow(x.coeffs, F.q - 2, F)
        with pytest.raises(ZeroDivisionError):
            F.zero.inverse()

    @pytest.mark.parametrize("pk", [pk for pk, _ in PINNED_MODULI if pk[1] == 2])
    def test_frobenius_matrix_matches_oracle(self, pk):
        # columns: coefficient j of x^0 and of x^p
        F = make_field(*pk)
        xp = oracle_pow((0, 1), F.p, F)
        assert F.frobenius == tuple(zip((1, 0), xp))


class TestRepresentation:
    def test_prime_field_element_holds_no_tuple(self):
        # a k = 1 element keeps its int: no 1-tuple per value
        F = make_field(13)
        for x in (F.el(5), F.zero, F.one, F.el(3) * F.el(7), F.el(2) ** 5, -F.el(4)):
            assert not any(isinstance(r, tuple) for r in gc.get_referents(x)), x

    @pytest.mark.parametrize("p,k", [(13, 1), (2**61 - 1, 1), (7, 2), (5, 3)])
    def test_coeffs_and_hash(self, p, k):
        F = make_field(p, k)
        rng = random.Random(p * k)
        for x in [F.zero, F.one] + [F.random_element(rng) for _ in range(20)]:
            assert type(x.coeffs) is tuple and len(x.coeffs) == k
            assert all(type(c) is int and 0 <= c < p for c in x.coeffs)
            assert F.el(x.coeffs) == x
            assert hash(x) == hash((x.ctx._key, x.coeffs))
            assert hash(x * x) == hash((F._key, (x * x).coeffs))

    def test_coeffs_are_read_only(self):
        x = make_field(13).el(5)
        with pytest.raises(AttributeError):
            x.coeffs = (6,)


class TestNthRoots:
    def test_fifth_roots_of_10_in_f11(self, F11):
        got = nth_roots(F11.el(10), 5)
        assert got == brute_roots(F11, F11.el(10), 5)
        assert [x.to_int() for x in got] == [2, 6, 7, 8, 10]

    def test_unique_root_f13(self, F13):
        got = nth_roots(F13.el(4), 5)
        assert got == brute_roots(F13, F13.el(4), 5)
        assert [x.to_int() for x in got] == [10]

    def test_no_root(self, F11):
        assert nth_roots(F11.el(3), 5) == []
        assert brute_roots(F11, F11.el(3), 5) == []

    def test_zero_radicand_rejected(self, F11):
        with pytest.raises(NoRootError):
            nth_roots(F11.zero, 5)

    @pytest.mark.parametrize("pk,n", [((11, 1), 5), ((13, 1), 5), ((5, 2), 3),
                                      ((11, 1), 2), ((13, 2), 4), ((31, 1), 6)])
    def test_matches_brute_force(self, pk, n):
        F = make_field(*pk)
        rng = random.Random(repr((pk, n)))
        for _ in range(12):
            rho = F.random_element(rng)
            if rho.is_zero():
                continue
            assert nth_roots(rho, n) == brute_roots(F, rho, n)

    @pytest.mark.parametrize("pk,n", [((11, 1), 5), ((13, 1), 5), ((5, 2), 7)])
    def test_root_count_and_power_property(self, pk, n):
        F = make_field(*pk)
        d = math.gcd(n, F.q - 1)
        rng = random.Random(42)
        for _ in range(25):
            rho = F.random_element(rng)
            if rho.is_zero():
                continue
            roots = nth_roots(rho, n)
            assert len(roots) in (0, d)
            for r in roots:
                assert r**n == rho

    def test_coprime_case_is_bijection(self, F13):
        # gcd(5, 12) = 1: unique root, and root-then-power is the identity
        for v in range(1, 13):
            rho = F13.el(v)
            (r,) = nth_roots(rho, 5)
            assert r**5 == rho

    def test_sylow_lifting_25(self):
        # q = 1 mod 25 exercises the nontrivial Sylow correction
        F = make_field(101)
        rng = random.Random(1)
        for _ in range(10):
            rho = F.random_element(rng)
            if rho.is_zero():
                continue
            assert nth_roots(rho, 5) == brute_roots(F, rho, 5)

    # v_5(q - 1) >= 2 at p = 101, 251, 401 and v_2(q - 1) >= 5 at p = 97, 257,
    # so the Sylow discrete log runs over several digits
    @given(
        st.sampled_from([(11, 1), (31, 1), (97, 1), (101, 1), (251, 1), (257, 1),
                         (401, 1), (7, 2), (11, 2), (19, 2), (31, 2), (5, 4), (7, 4)]),
        st.sampled_from([2, 3, 4, 5, 10, 25]),
        st.lists(st.integers(min_value=0), min_size=4, max_size=4),
        st.booleans(),
    )
    def test_differential_against_brute_force(self, pk, n, coeffs, as_power):
        F = make_field(*pk)
        c = F.el(coeffs[: F.k])
        if c.is_zero():
            return
        rho = c**n if as_power else c
        assert nth_roots(rho, n) == brute_roots(F, rho, n)

    # v_2, v_3, v_5 of q - 1: F_11 (1, 0, 1), F_31 (1, 1, 1), F_101 (2, 0, 2),
    # F_251 (1, 0, 3), F_257 (8, 0, 0), F_{7^2} (4, 1, 0), F_{11^2} (3, 1, 1),
    # F_{11^3} (1, 0, 1), whose powers run the k >= 3 square-and-multiply
    @pytest.mark.parametrize("pk", [(11, 1), (31, 1), (101, 1), (251, 1), (257, 1),
                                    (7, 2), (11, 2), (11, 3)])
    def test_every_element_against_the_power_map(self, pk):
        # the power map x -> x^n, inverted once per (field, n), is the
        # oracle for every nonzero radicand, the non-n-th powers included
        F = make_field(*pk)
        units = list(F.nonzero_elements())
        for n in (2, 3, 4, 5, 12, 25):
            preimages = {}
            for x in units:  # canonical order, so each list is sorted
                preimages.setdefault(x**n, []).append(x)
            for rho in units:
                assert nth_roots(rho, n) == preimages.get(rho, []), (pk, n, rho)
            assert len(preimages) == (F.q - 1) // math.gcd(n, F.q - 1)

    @pytest.mark.parametrize("p,k,b", [(13, 1, 4), (1013, 2, (5, 7)), (11, 1, 10),
                                       (2**61 - 1, 1, 2)])
    def test_prime_degree_needs_no_factorisation(self, monkeypatch, p, k, b):
        # n = 5 goes straight to the prime-degree routine, as does every
        # radical step; a composite n still factors
        def refuse(n):
            raise AssertionError(f"factorint({n}) called")

        monkeypatch.setattr(field, "factorint", refuse)
        F = make_field(p, k)
        b = F.el(b)
        roots = nth_roots(b, 5)
        assert roots and all(r**5 == b for r in roots)
        assert roots == sorted(roots, key=lambda e: e.coeffs)
        if (F.q - 1) % 5:
            assert len(radical_chain(b, 20, "unique").b_values) == 21
        with pytest.raises(AssertionError):
            nth_roots(b, 4)

    def test_sylow_data_built_once_per_context_and_prime(self, monkeypatch):
        built = []

        class CountedRandom(random.Random):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(field, "random", types.SimpleNamespace(Random=CountedRandom))
        F = make_field(1125001)  # v_5(q - 1) = 6
        rng = random.Random(3)
        for _ in range(100):
            c = F.el(rng.randrange(1, F.p))
            assert [x**5 for x in nth_roots(c**5, 5)] == [c**5] * 5
        assert built == [5]
        for _ in range(100):
            nth_roots(F.el(rng.randrange(1, F.p)), 20)
        assert built == [5, 2]
        with pytest.raises(ValueError):
            F.sylow(7)  # q - 1 = 2^3 * 3^2 * 5^6
        assert built == [5, 2]

    # v_5(q - 1) = 2, 6 and 9 over F_p; q - 1 = 2^5 3 5^2 over F_{7^4} and
    # 2^5 3^2 5 7 101 over F_{1009^2}
    @pytest.mark.parametrize("pk", [(101, 1), (1125001, 1), (50781251, 1), (7, 4),
                                    (1009, 2)])
    def test_sylow_table_against_its_definition(self, pk):
        F = make_field(*pk)
        for r in sympy.primefactors(F.q - 1):
            s, rows, log_zeta = F.sylow(r)
            t = len(rows)
            w = (F.q - 1) // r**t
            assert w % r and s * r % w == 1 % w
            gen_inv = F.el(rows[0][1])  # gen^-1 generates the r-Sylow subgroup
            assert gen_inv ** (r**t) == 1 and gen_inv ** (r ** (t - 1)) != 1
            for i, row in enumerate(rows):
                base = F.el(row[1])
                assert [F.el(x) for x in row] == [base**d for d in range(r)], (r, i)
                if i + 1 < t:
                    assert F.el(rows[i + 1][1]) == base**r, (r, i)
            zetas = [F.el(z) for z in log_zeta]
            zeta = zetas[1]
            assert list(log_zeta.values()) == list(range(r))
            assert zetas == [zeta**d for d in range(r)]
            assert zeta != 1 and zeta**r == 1  # so the r keys are distinct
            assert zeta * F.el(rows[-1][1]) == 1  # zeta = gen^(r^(t-1))

    @pytest.mark.parametrize("pk,n,radicand,built", [
        ((1125001, 1), 5, "power", 5), ((1009, 2), 5, "power", 5),
        ((1125001, 1), 5, "non-power", 0), ((1009, 2), 5, "non-power", 0),
        ((1048583, 1), 5, "any", 1),  # 5 is prime to q - 1
        ((31, 1), 12, "power", 6),  # gcd(12, 30)
    ])
    def test_builds_only_the_returned_roots(self, monkeypatch, pk, n, radicand, built):
        # the roots are found on values: the elements built are the roots
        # returned, once the field's Sylow tables exist
        F = make_field(*pk)
        rng = random.Random(repr(pk))
        while True:
            c = F.random_element(rng)
            if c.is_zero():
                continue
            if radicand == "power":
                c = c**n
            if radicand != "non-power" or c ** ((F.q - 1) // n) != 1:
                break
        nth_roots(F.one, n)  # builds the Sylow tables
        values = []
        init = field.FieldElement.__init__

        def counted(self, ctx, v):
            values.append(v)
            init(self, ctx, v)

        monkeypatch.setattr(field.FieldElement, "__init__", counted)
        roots = nth_roots(c, n)
        monkeypatch.undo()
        assert len(roots) == len(values) == built
        assert [F.el(v) for v in values] == roots
        assert all(x**n == c for x in roots)

    @pytest.mark.parametrize("pk,n", [((101, 1), 25), ((7, 2), 12), ((11, 2), 10)])
    def test_equal_contexts_from_separate_builds_agree(self, pk, n):
        F1, F2 = make_field(*pk), make_field(*pk)
        assert F1 == F2 and F1 is not F2
        for x in F1.nonzero_elements():
            got1 = nth_roots(x, n)
            got2 = nth_roots(F2.el(x.coeffs), n)
            assert [r.coeffs for r in got1] == [r.coeffs for r in got2]
            assert all(r.ctx is F1 for r in got1) and all(r.ctx is F2 for r in got2)

    def test_non_fifth_powers_at_v5_9(self):
        # q - 1 = 2 * 5^9 * 13: the Sylow discrete log runs over nine digits
        F = make_field(50781251)
        rng = random.Random(9)
        non_powers = 0
        while non_powers < 30:
            c = F.el(rng.randrange(1, F.p))
            if c ** ((F.q - 1) // 5) == 1:
                assert [x**5 for x in nth_roots(c, 5)] == [c] * 5
                continue
            assert nth_roots(c, 5) == []
            assert nth_roots(c * c**5, 5) == []  # the same coset, another input
            non_powers += 1

    def test_multiplicative_order(self, F11):
        # the least m >= 1 with a^m = 1, by a scan; order_dividing, which
        # strips prime factors from q - 1, must agree on every element
        def scanned(a):
            return next(m for m in range(1, a.ctx.q) if a**m == a.ctx.one)

        assert scanned(F11.el(10)) == 2 and scanned(F11.el(2)) == 10
        for F in (F11, make_field(5, 2)):
            for a in F.nonzero_elements():
                assert order_dividing(F.q - 1, lambda m: a**m == F.one) == scanned(a)
