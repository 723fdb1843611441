"""Dense univariate polynomials with FieldElement coefficients.

Hosts the one Rabin irreducibility test, used over any F_{p^k}; make_field
bootstraps through it over the prime field F_p.  Polynomials are lists,
constant term first.
"""

from __future__ import annotations

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
    q = [ctx.zero] * max(1, len(f) - len(g) + 1)
    r = f[:]
    inv_lead = g[-1].inverse()
    while len(r) >= len(g):
        r = trim(r, ctx)
        if len(r) < len(g) or r == [ctx.zero]:
            break
        coef = r[-1] * inv_lead
        deg = len(r) - len(g)
        q[deg] = coef
        for i, c in enumerate(g):
            r[deg + i] = r[deg + i] - coef * c
        r = trim(r, ctx)
    return trim(q, ctx), trim(r, ctx)


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


def gcd(f, g, ctx):
    f, g = trim(f, ctx), trim(g, ctx)
    while g != [ctx.zero]:
        f, g = g, divmod_(f, g, ctx)[1]
    if f != [ctx.zero]:
        f = [c * f[-1].inverse() for c in f]
    return f


def is_irreducible(f, ctx) -> bool:
    """Rabin's test: generic factorization-free irreducibility oracle."""
    f = trim(f, ctx)
    n = len(f) - 1
    if n <= 0:
        return False
    if not f[-1] == ctx.one:
        f = [c * f[-1].inverse() for c in f]
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
