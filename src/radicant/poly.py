"""Dense univariate polynomials with FieldElement coefficients.

This is the package's one polynomial implementation: field.py inverts
through the Frobenius norm and has no polynomial code of its own.  Hosts the
one Rabin irreducibility test, used over any F_{p^k}; make_field bootstraps
through it over the prime field F_p.  `factors` finds the irreducible factors
of small degree by distinct-degree and Cantor-Zassenhaus equal-degree
splitting; `roots` is its degree-1 case.  `charpoly` gives characteristic
polynomials in F_q[x]/(m).  Polynomials are lists, constant term first.
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


def charpoly(num, den, m, ctx):
    """prod (Y - num(x_i)/den(x_i)) over the roots x_i of the monic m of
    degree n, with multiplicity: the characteristic polynomial of num/den in
    F_q[x]/(m), for p > n.  Newton's identities, k c_{n-k} + sum_{0<i<k}
    c_{n-i} s_{k-i} = 0 for monic c with power sums s, run forward on m for
    the traces of x^j and backward from the traces of (num/den)^k.
    """
    n = len(m) - 1
    if ctx.p <= n:
        raise ValueError(f"characteristic {ctx.p} does not exceed the degree {n}")
    r0, r1, s0, s1 = m, divmod_(den, m, ctx)[1], [ctx.zero], [ctx.one]
    while r1 != [ctx.zero]:  # invariant: s_i den = r_i modulo m
        quo, rem = divmod_(r0, r1, ctx)
        r0, r1, s0, s1 = r1, rem, s1, sub(s0, mul(quo, s1, ctx), ctx)
    if len(r0) > 1:
        raise ZeroDivisionError("the denominator is no unit modulo m")
    h = divmod_(mul(num, [c / r0[0] for c in s0], ctx), m, ctx)[1]

    def newton(c, s, k):
        return sum((c[n - i] * s[k - i] for i in range(1, k)), ctx.zero)

    s, t, power, c = [ctx.el(n)], [None], [ctx.one], [ctx.zero] * n + [ctx.one]
    for k in range(1, n):
        s.append(-(k * m[n - k] + newton(m, s, k)))
    for _ in range(n):
        power = divmod_(mul(power, h, ctx), m, ctx)[1]
        t.append(sum((a * b for a, b in zip(power, s)), ctx.zero))
    for k in range(1, n + 1):
        c[n - k] = -(t[k] + newton(c, t, k)) / k
    return c


def from_roots(roots, ctx):
    """The monic polynomial with the given roots."""
    f = [ctx.one]
    for r in roots:
        f = mul(f, [-r, ctx.one], ctx)
    return f


def derivative(f, ctx):
    return [i * c for i, c in enumerate(f)][1:] or [ctx.zero]


def value_and_derivative(f, x):
    """(f(x), f'(x)) by one Horner pass."""
    value, slope = f[-1], x.ctx.zero
    for c in reversed(f[:-1]):
        slope = slope * x + value
        value = value * x + c
    return value, slope


def factors(f, ctx, max_degree: int = 1) -> list:
    """The distinct monic irreducible factors of f of degree at most
    max_degree, ordered by degree, then by coefficients (constant first).

    Distinct-degree step: with the factors of degree below d divided out,
    gcd(f, x^(q^d) - x) is the product of those of degree d.  Equal-degree
    step (Cantor-Zassenhaus): for a random monic a, gcd(g, a^((q^d-1)/2) - 1)
    takes each factor of g modulo which a is a nonzero square, so it is a
    proper factor about half the time.  For d = 1, a = x + c suffices and
    keeps the powers short.  The rng has a fixed seed; the factors are
    unique anyway.
    """
    f = trim(f, ctx)
    if f == [ctx.zero]:
        raise ValueError("the zero polynomial has no factorization")
    x = [ctx.zero, ctx.one]
    rng = random.Random(0)
    rest, x_power, found = monic(f, ctx), x, []
    for d in range(1, max_degree + 1):
        if len(rest) == 1:
            break
        x_power = powmod(x_power, ctx.q, rest, ctx)  # x^(q^d) mod rest
        g = gcd(rest, sub(x_power, x, ctx), ctx)
        while len(common := gcd(rest, g, ctx)) > 1:  # every copy of each factor
            rest = divmod_(rest, common, ctx)[0]
        half = (ctx.q**d - 1) // 2
        todo = [g]
        while todo:
            g = todo.pop()
            if len(g) - 1 == d:
                found.append(g)
                continue
            while len(g) > 1:
                width = 1 if d == 1 else len(g) - 1
                a = [ctx.random_element(rng) for _ in range(width)] + [ctx.one]
                h = gcd(g, sub(powmod(a, half, g, ctx), [ctx.one], ctx), ctx)
                if 1 < len(h) < len(g):
                    todo += [h, divmod_(g, h, ctx)[0]]
                    break
    return sorted(found, key=lambda g: (len(g), [c.coeffs for c in g]))


def roots(f, ctx) -> list:
    """The distinct roots of f in the field, in canonical element order: the
    linear `factors` x - r."""
    return sorted((-g[0] for g in factors(f, ctx)), key=lambda e: e.coeffs)


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
