"""Dense univariate polynomials with FieldElement coefficients.

This is the package's one polynomial implementation: field.py inverts
through the Frobenius norm and has no polynomial code of its own.  Hosts the
one Rabin irreducibility test, used over any F_{p^k}; make_field bootstraps
through it over the prime field F_p.  `roots` finds the roots in the field by
Cantor-Zassenhaus splitting.  Polynomials are lists, constant term first.
"""

from __future__ import annotations

import random

from sympy import factorint


def trim(f, ctx):
    f = list(f)
    while len(f) > 1 and f[-1].is_zero():
        f.pop()
    return f


def add(f, g, ctx):
    n = max(len(f), len(g))
    z = ctx.zero
    return [
        (f[i] if i < len(f) else z) + (g[i] if i < len(g) else z) for i in range(n)
    ]


def sub(f, g, ctx):
    n = max(len(f), len(g))
    z = ctx.zero
    return [
        (f[i] if i < len(f) else z) - (g[i] if i < len(g) else z) for i in range(n)
    ]


def mul(f, g, ctx):
    out = [ctx.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def divmod_(f, g, ctx):
    f, g = trim(f, ctx), trim(g, ctx)
    if g == [ctx.zero]:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(g) - 1
    if len(f) <= n:
        return [ctx.zero], f
    r = f[:]
    q = [ctx.zero] * (len(f) - n)
    inv_lead = g[-1].inverse()
    for i in range(len(f) - 1, n - 1, -1):
        coef = r[i]
        if coef.is_zero():
            continue
        coef = coef * inv_lead
        q[i - n] = coef
        for j in range(n):  # r[i] itself cancels
            r[i - n + j] = r[i - n + j] - coef * g[j]
    return trim(q, ctx), trim(r[:n] or [ctx.zero], ctx)


def powmod(base, exponent: int, modpoly, ctx):
    result = [ctx.one]
    b = divmod_(base, modpoly, ctx)[1]
    e = exponent
    while e:
        if e & 1:
            result = divmod_(mul(result, b, ctx), modpoly, ctx)[1]
        b = divmod_(mul(b, b, ctx), modpoly, ctx)[1]
        e >>= 1
    return result


def monic(f, ctx):
    """f scaled to leading coefficient 1 (f must be nonzero)."""
    f = trim(f, ctx)
    if f[-1] == ctx.one:
        return f
    inv_lead = f[-1].inverse()
    return [c * inv_lead for c in f]


def gcd(f, g, ctx):
    f, g = trim(f, ctx), trim(g, ctx)
    while g != [ctx.zero]:
        f, g = g, divmod_(f, g, ctx)[1]
    if f != [ctx.zero]:
        f = monic(f, ctx)
    return f


def roots(f, ctx) -> list:
    """The distinct roots of f in the field, in canonical element order.

    g = gcd(f, x^q - x) is the product of the distinct linear factors of f.
    Cantor-Zassenhaus splits it: for random a, gcd(g, (x + a)^((q-1)/2) - 1)
    takes each root r with r + a a nonzero square, so it is a proper factor
    about half the time.  The rng has a fixed seed; the root set is unique
    anyway.
    """
    f = trim(f, ctx)
    if f == [ctx.zero]:
        raise ValueError("every element is a root of the zero polynomial")
    x = [ctx.zero, ctx.one]
    g = gcd(f, sub(powmod(x, ctx.q, f, ctx), x, ctx), ctx)
    rng = random.Random(0)
    half = (ctx.q - 1) // 2
    found, todo = [], [g]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            found.append(-g[0])
            continue
        if len(g) < 2:
            continue
        while True:
            h = sub(powmod([ctx.random_element(rng), ctx.one], half, g, ctx), [ctx.one], ctx)
            h = gcd(g, h, ctx)
            if 1 < len(h) < len(g):
                break
        todo += [h, divmod_(g, h, ctx)[0]]
    return sorted(found, key=lambda e: e.coeffs)


def is_irreducible(f, ctx) -> bool:
    """Rabin's test: generic factorization-free irreducibility oracle."""
    f = trim(f, ctx)
    n = len(f) - 1
    if n <= 0:
        return False
    f = monic(f, ctx)
    if n == 1:
        return True
    q = ctx.q
    x = [ctx.zero, ctx.one]
    for r in sorted(set(factorint(n))):
        h = sub(powmod(x, q ** (n // r), f, ctx), x, ctx)
        if len(gcd(h, f, ctx)) > 1:
            return False
    h = sub(powmod(x, q**n, f, ctx), x, ctx)
    return trim(h, ctx) == [ctx.zero]
