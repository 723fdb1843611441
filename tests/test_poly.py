import random

import pytest

from radicant import poly
from radicant.field import make_field


def evaluate(f, x):
    acc = x.ctx.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def roots_by_scan(f, ctx):
    return [x for x in ctx.elements() if evaluate(f, x).is_zero()]


def brute_irreducible(f, ctx):
    """Oracle for degree <= 3: irreducible iff the polynomial has no root
    (after verifying it is nonconstant)."""
    deg = len(poly.trim(f, ctx)) - 1
    assert deg in (2, 3)
    return not roots_by_scan(f, ctx)


def test_quadratics_f5_vs_root_scan():
    F = make_field(5)
    for c0 in range(5):
        for c1 in range(5):
            f = [F.el(c0), F.el(c1), F.one]
            assert poly.is_irreducible(f, F) == brute_irreducible(f, F)


def test_cubics_f7_vs_root_scan():
    F = make_field(7)
    rng = random.Random(0)
    for _ in range(60):
        f = [F.el(rng.randrange(7)) for _ in range(3)] + [F.one]
        assert poly.is_irreducible(f, F) == brute_irreducible(f, F)


def test_product_is_reducible():
    F = make_field(11)
    rng = random.Random(4)
    for _ in range(20):
        g = [F.el(rng.randrange(11)), F.one]
        h = [F.el(rng.randrange(11)), F.el(rng.randrange(11)), F.one]
        if not poly.is_irreducible(h, F):
            continue
        assert not poly.is_irreducible(poly.mul(g, h, F), F)


def test_divmod_roundtrip():
    F = make_field(13)
    rng = random.Random(7)
    for _ in range(40):
        a = [F.el(rng.randrange(13)) for _ in range(6)]
        b = [F.el(rng.randrange(13)) for _ in range(3)] + [F.one]
        q, r = poly.divmod_(a, b, F)
        back = poly.add(poly.mul(q, b, F), r, F)
        assert poly.trim(back, F) == poly.trim(a, F)


def test_extension_field_irreducibility():
    # x^5 - rho over F_25: 5 divides q - 1 = 24? no (24 = 2^3*3), so a fifth
    # root always exists and x^5 - rho is reducible
    F = make_field(5, 2)
    rng = random.Random(2)
    for _ in range(8):
        rho = F.random_element(rng)
        if rho.is_zero():
            continue
        f = [-rho] + [F.zero] * 4 + [F.one]
        assert not poly.is_irreducible(f, F)


@pytest.mark.parametrize("p,k", [(11, 1), (13, 1), (5, 2), (7, 2)])
def test_roots_match_a_scan_of_the_field(p, k):
    F = make_field(p, k)
    rng = random.Random(100 * p + k)
    for _ in range(30):
        lead = F.random_element(rng)
        f = [F.random_element(rng) for _ in range(rng.randrange(1, 8))]
        f.append(F.one if lead.is_zero() else lead)
        assert poly.roots(f, F) == roots_by_scan(f, F)


@pytest.mark.parametrize("p,k", [(13, 1), (7, 2)])
def test_roots_of_products_with_repeated_factors(p, k):
    # (x - r1)^3 (x - r2)^2 (x - r3) times an irreducible quadratic
    F = make_field(p, k)
    rng = random.Random(p + k)
    quadratic = next(
        q for q in ([F.random_element(rng), F.random_element(rng), F.one] for _ in range(200))
        if poly.is_irreducible(q, F)
    )
    for _ in range(10):
        rs = [F.random_element(rng) for _ in range(3)]
        f = quadratic
        for r, e in zip(rs, (3, 2, 1)):
            for _ in range(e):
                f = poly.mul(f, [-r, F.one], F)
        f = [c * F.el(3) for c in f]
        expected = sorted(set(rs), key=lambda e: e.coeffs)
        assert poly.roots(f, F) == expected == roots_by_scan(f, F)


def test_roots_of_polynomials_without_roots():
    F = make_field(7, 2)
    rng = random.Random(5)
    for _ in range(10):
        f = [F.random_element(rng), F.random_element(rng), F.one]
        if poly.is_irreducible(f, F):
            assert poly.roots(f, F) == [] == roots_by_scan(f, F)
    assert poly.roots([F.el(4)], F) == []
    with pytest.raises(ValueError):
        poly.roots([F.zero, F.zero], F)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2)])
def test_factors_match_a_scan_of_monic_divisors(p, k):
    # random products of linear, quadratic and cubic factors, some repeated:
    # the factors of degree <= 2 are the monic divisors of degree <= 2 that
    # have no root of lower degree, found by scanning all of them
    F = make_field(p, k)
    rng = random.Random(10 * p + k)
    elements = list(F.elements())
    monics = [[a, F.one] for a in elements] + [[a, b, F.one] for a in elements
                                                 for b in elements]
    for _ in range(12):
        f = [F.el(2)]
        for _ in range(rng.randrange(1, 6)):
            g = [F.random_element(rng) for _ in range(rng.randrange(1, 4))] + [F.one]
            for _ in range(rng.choice((1, 1, 2))):
                f = poly.mul(f, g, F)
        expected = [g for g in monics
                    if poly.divmod_(f, g, F)[1] == [F.zero]
                    and (len(g) == 2 or not roots_by_scan(g, F))]
        got = poly.factors(f, F, 2)
        assert got == sorted(expected, key=lambda g: (len(g), [c.coeffs for c in g]))
        assert poly.factors(f, F) == [g for g in got if len(g) == 2]
