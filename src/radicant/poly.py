"""Dense univariate polynomials over a field F_q.

This is the package's one polynomial implementation: field.py inverts
through the Frobenius norm and has no polynomial code of its own.  Hosts the
one Rabin irreducibility test, used over any F_{p^k}; make_field bootstraps
through it over the prime field F_p.  `factors` finds the irreducible factors
of small degree by distinct-degree and Cantor-Zassenhaus equal-degree
splitting; `roots` is its degree-1 case.  `charpoly` gives characteristic
polynomials in F_q[x]/(m), from the power sums of `_power_traces` by
Newton's identities (`_from_power_sums`).  Polynomials are lists, constant
term first.

The public functions take and return lists of FieldElements.  The
algorithms compute on raw coefficients, chosen once per call from ctx.k:
over F_p plain ints in [0, p), where sums of products stay unreduced and
each coefficient is reduced mod p once, where it is read as a pivot or
written out; over F_{p^k} with k > 1 the FieldElements themselves, whose
operators reduce as they go.  Coefficients are unwrapped on entry (an F_p
element's int is read straight off its value slot) and rebuilt through
ctx.el on exit.  curve.py and isogeny.py chain the underscored algorithms
the same way, on the raw lists of `_coeffs(ctx)`, and wrap only their
results.
"""

from __future__ import annotations

import operator
import random
from itertools import zip_longest

from .miscutil import factorint


class _Ints:
    """F_p coefficients as plain ints in [0, p)."""

    def __init__(self, ctx):
        self.ctx, self.p = ctx, ctx.p
        self.zero, self.one = 0, 1
        self.reduce = ctx.p.__rmod__  # c -> c % p

    def unwrap(self, f) -> list:
        return [c._v for c in f]

    def wrap(self, f) -> list:
        el = self.ctx.el
        return [el(c) for c in f]

    def reduced(self, f) -> list:
        p = self.p
        return [c % p for c in f]

    def inverse(self, c):
        if c == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(c, -1, self.p)

    def scalar(self, n: int):
        return n % self.p


class _Elements:
    """F_{p^k} coefficients, k > 1: the FieldElements, already reduced."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.zero, self.one = ctx.zero, ctx.one

    @staticmethod
    def unwrap(f) -> list:
        return list(f)

    wrap = unwrap

    @staticmethod
    def reduce(c):
        return c

    @staticmethod
    def reduced(f) -> list:
        return f

    @staticmethod
    def inverse(c):
        return c.inverse()

    def scalar(self, n: int):
        return self.ctx.el(n)


def _coeffs(ctx):
    return _Ints(ctx) if ctx.k == 1 else _Elements(ctx)


# ---------------------------------------------------------------------------
# the algorithms, on raw coefficient lists (every returned list is reduced)
# ---------------------------------------------------------------------------

def _trim(f, zero) -> list:
    n = len(f)
    while n > 1 and f[n - 1] == zero:
        n -= 1
    return f[:n]


def _zip(op, f, g, A) -> list:
    """op coefficientwise, the shorter polynomial padded with zeros."""
    return A.reduced([op(a, b) for a, b in zip_longest(f, g, fillvalue=A.zero)])


def _mul(f, g, A) -> list:
    zero = A.zero
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == zero:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return A.reduced(out)


def _divmod(f, g, A):
    zero, reduce = A.zero, A.reduce
    r, g = _trim(f, zero), _trim(g, zero)
    if g == [zero]:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(g) - 1
    if len(r) <= n:
        return [zero], r
    q = [zero] * (len(r) - n)
    inv_lead = A.inverse(g[-1])
    g = g[:n]  # r[i] itself cancels
    for i in range(len(r) - 1, n - 1, -1):
        coef = reduce(r[i])
        if coef == zero:
            continue
        coef = reduce(coef * inv_lead)
        q[i - n] = coef
        r[i - n:i] = [c - coef * b for c, b in zip(r[i - n:i], g)]
    return _trim(q, zero), _trim(A.reduced(r[:n]) or [zero], zero)


def _powmod(base, exponent: int, modpoly, A) -> list:
    result = [A.one]
    b = _divmod(base, modpoly, A)[1]
    e = exponent
    while e:
        if e & 1:
            result = _divmod(_mul(result, b, A), modpoly, A)[1]
        e >>= 1
        if e:
            b = _divmod(_mul(b, b, A), modpoly, A)[1]
    return result


def _monic(f, A) -> list:
    f = _trim(f, A.zero)
    if f[-1] == A.one:
        return f
    inv_lead = A.inverse(f[-1])
    return A.reduced([c * inv_lead for c in f])


def _derivative(f, A) -> list:
    return A.reduced([i * c for i, c in enumerate(f)][1:]) or [A.zero]


def _gcd(f, g, A) -> list:
    zero = A.zero
    f, g = _trim(f, zero), _trim(g, zero)
    while g != [zero]:
        f, g = g, _divmod(f, g, A)[1]
    if f != [zero]:
        f = _monic(f, A)
    return f


# ---------------------------------------------------------------------------
# public functions, on lists of FieldElements
# ---------------------------------------------------------------------------

def sub(f, g, ctx):
    A = _coeffs(ctx)
    return A.wrap(_zip(operator.sub, A.unwrap(f), A.unwrap(g), A))


def mul(f, g, ctx):
    A = _coeffs(ctx)
    return A.wrap(_mul(A.unwrap(f), A.unwrap(g), A))


def monic(f, ctx):
    """f scaled to leading coefficient 1 (f must be nonzero)."""
    A = _coeffs(ctx)
    return A.wrap(_monic(A.unwrap(f), A))


def charpoly(num, den, m, ctx):
    """prod (Y - num(x_i)/den(x_i)) over the roots x_i of the monic m of
    degree n, with multiplicity: the characteristic polynomial of num/den in
    F_q[x]/(m), for p > n.  `_power_traces` gives its power sums, and
    `_from_power_sums` runs Newton's identities backward from them, dividing
    by 1..n.
    """
    n = len(m) - 1
    if ctx.p <= n:
        raise ValueError(f"characteristic {ctx.p} does not exceed the degree {n}")
    A = _coeffs(ctx)
    traces = _power_traces(A.unwrap(num), A.unwrap(den), A.unwrap(m), n, A)
    return A.wrap(_from_power_sums(traces, A))


def _power_traces(num, den, m, count, A) -> list:
    """[Tr(h^k) for k = 1..count] in F_q[x]/(m), h = num/den mod m, for the
    monic m of degree n: the power sums of the h(x_i) over the roots x_i of
    m, with multiplicity.  Newton's identities run forward on m give the
    traces of x^j, j < n, with no division, and Tr(h^k) is linear in the
    coefficients of h^k mod m.
    """
    zero, one, reduce = A.zero, A.one, A.reduce
    n = len(m) - 1
    r0, r1, s0, s1 = m, _divmod(den, m, A)[1], [zero], [one]
    while r1 != [zero]:  # invariant: s_i den = r_i modulo m
        quo, rem = _divmod(r0, r1, A)
        r0, r1, s0, s1 = r1, rem, s1, _zip(operator.sub, s0, _mul(quo, s1, A), A)
    if len(r0) > 1:
        raise ZeroDivisionError("the denominator is no unit modulo m")
    inv_r0 = A.inverse(r0[0])
    h = _divmod(_mul(num, A.reduced([c * inv_r0 for c in s0]), A), m, A)[1]
    s = [A.scalar(n)]
    for k in range(1, n):
        s.append(reduce(-(k * m[n - k] + _newton_sum(m, s, k, A))))
    traces, power = [], [one]
    for _ in range(count):
        power = _divmod(_mul(power, h, A), m, A)[1]
        traces.append(reduce(sum((a * b for a, b in zip(power, s)), zero)))
    return traces


def _newton_sum(c, s, k, A):
    """sum_{0<i<k} c_{n-i} s_{k-i} for the monic c of degree n = len(c) - 1
    with power sums s (s[j] the j-th)."""
    n = len(c) - 1
    return sum((c[n - i] * s[k - i] for i in range(1, k)), A.zero)


def _from_power_sums(traces, A) -> list:
    """The monic c of degree n = len(traces) whose roots have the power sums
    traces[k - 1], k = 1..n: Newton's identities, k c_{n-k} + sum_{0<i<k}
    c_{n-i} s_{k-i} + s_k = 0, solved for c_{n-k}, which divides by k < p.
    """
    n, reduce = len(traces), A.reduce
    s, c = [None] + list(traces), [A.zero] * n + [A.one]
    for k in range(1, n + 1):
        c[n - k] = reduce(-(s[k] + _newton_sum(c, s, k, A)) * A.inverse(A.scalar(k)))
    return c


def from_roots(roots, ctx):
    """The monic polynomial with the given roots."""
    A = _coeffs(ctx)
    f = [A.one]
    for r in A.unwrap(roots):
        f = _mul(f, [A.reduce(-r), A.one], A)
    return A.wrap(f)


def derivative(f, ctx):
    A = _coeffs(ctx)
    return A.wrap(_derivative(A.unwrap(f), A))


def value_and_derivative(f, x):
    """(f(x), f'(x)) by one Horner pass."""
    A = _coeffs(x.ctx)
    f, (x,) = A.unwrap(f), A.unwrap([x])
    reduce = A.reduce
    value, slope = f[-1], A.zero
    for c in reversed(f[:-1]):
        slope = reduce(slope * x + value)
        value = reduce(value * x + c)
    return tuple(A.wrap([value, slope]))


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
    A = _coeffs(ctx)
    zero, one = A.zero, A.one
    f = _trim(A.unwrap(f), zero)
    if f == [zero]:
        raise ValueError("the zero polynomial has no factorization")
    x = [zero, one]
    rng = random.Random(0)
    rest, x_power, found = _monic(f, A), x, []
    for d in range(1, max_degree + 1):
        if len(rest) == 1:
            break
        x_power = _powmod(x_power, ctx.q, rest, A)  # x^(q^d) mod rest
        g = _gcd(rest, _zip(operator.sub, x_power, x, A), A)
        while len(common := _gcd(rest, g, A)) > 1:  # every copy of each factor
            rest = _divmod(rest, common, A)[0]
        half = (ctx.q**d - 1) // 2
        todo = [g]
        while todo:
            g = todo.pop()
            if len(g) - 1 == d:
                found.append(A.wrap(g))
                continue
            while len(g) > 1:
                width = 1 if d == 1 else len(g) - 1
                a = A.unwrap([ctx.random_element(rng) for _ in range(width)]) + [one]
                h = _gcd(g, _zip(operator.sub, _powmod(a, half, g, A), [one], A), A)
                if 1 < len(h) < len(g):
                    todo += [h, _divmod(g, h, A)[0]]
                    break
    return sorted(found, key=lambda g: (len(g), [c.coeffs for c in g]))


def roots(f, ctx) -> list:
    """The distinct roots of f in the field, in canonical element order: the
    linear `factors` x - r."""
    return sorted((-g[0] for g in factors(f, ctx)), key=lambda e: e.coeffs)


def is_irreducible(f, ctx) -> bool:
    """Rabin's test: generic factorization-free irreducibility oracle."""
    A = _coeffs(ctx)
    f = _trim(A.unwrap(f), A.zero)
    n = len(f) - 1
    if n <= 0:
        return False
    f = _monic(f, A)
    if n == 1:
        return True
    q = ctx.q
    x = [A.zero, A.one]
    for r in sorted(set(factorint(n))):
        h = _zip(operator.sub, _powmod(x, q ** (n // r), f, A), x, A)
        if len(_gcd(h, f, A)) > 1:
            return False
    h = _zip(operator.sub, _powmod(x, q**n, f, A), x, A)
    return _trim(h, A.zero) == [A.zero]
