"""Prime fields F_p and small extensions F_{p^k}.

An element holds its value plus a reference to the field context: over
F_p the int in [0, p) itself, over F_{p^k}, k > 1, the coefficient tuple
(constant term first).  `coeffs` is that tuple for every k.  Everything is
immutable, so values can be shared freely.  The canonical ordering used
everywhere downstream is the lexicographic order on coefficient tuples.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Iterator, Sequence

from . import poly
from .errors import ContextMismatch, InvariantError, NoRootError, RadicantError
from .miscutil import factorint, isprime

MAX_FIELD_BITS = 63  # q = p^k must stay in a machine-word range


class FieldCtx:
    """Descriptor of F_{p^k}: characteristic, degree and defining polynomial.

    The defining polynomial is monic of degree k, stored as an ascending
    coefficient tuple of length k+1.  For k = 1 the convention is x - 0,
    i.e. (0, 1).

    For k > 1, `frobenius` is the matrix of a -> a^p on coefficient
    vectors, stored by columns: column j holds coefficient j of x^(i*p)
    mod the modulus, for i = 0..k-1.  It is None for k = 1.  For k = 2 it
    is written down: x^p is the other root of the modulus, -m1 - x.

    `sylow(r)` holds the r-Sylow data that `_prime_roots` needs for a prime
    r dividing q - 1.  It depends only on (q, r), so it is built the first
    time each r is asked for and kept in `_sylow`: at most one entry per
    prime factor of q - 1, living and dying with this context.
    """

    __slots__ = ("p", "k", "modulus", "q", "_key", "frobenius", "_sylow", "zero", "one")

    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
        self.q = p**k
        self._key = (p, self.modulus)
        # elements are immutable, so one zero and one one serve every caller
        self.zero = self._from_coeffs((0,) * k)
        self.one = self._from_coeffs((1,) + (0,) * (k - 1))
        self.frobenius = None
        if k == 2:
            self.frobenius = ((1, -self.modulus[1] % p), (0, p - 1))
        elif k > 2:
            xp = FieldElement(self, (0, 1) + (0,) * (k - 2)) ** p
            powers = [self.one]  # x^(i*p) for i = 0..k-1
            for _ in range(k - 1):
                powers.append(powers[-1] * xp)
            self.frobenius = tuple(zip(*(x._v for x in powers)))
        self._sylow = {}

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}"

    def sylow(self, r: int) -> tuple:
        """(s, rows, log_zeta) for a prime r dividing q - 1 = r^t * w, r not
        dividing w, on element values (`_v`), not elements: s = 1/r mod w;
        rows[i][d] = gen^(-d r^i) for i = 0..t-1 and d = 0..r-1, with gen a
        generator of the r-Sylow subgroup, so t*r values in all; and
        log_zeta maps each r-th root of unity zeta^d, zeta = gen^(r^(t-1)),
        to d, in the order d = 0..r-1.  Built on the first call for each r.
        """
        data = self._sylow.get(r)
        if data is not None:
            return data
        t, w = 0, self.q - 1
        while w % r == 0:
            t += 1
            w //= r
        if t == 0:
            raise ValueError(f"{r} does not divide q - 1 = {self.q - 1}")
        # z^w generates the Sylow subgroup iff z is not an r-th power, which
        # holds for a fraction 1 - 1/r of the field: a fixed-seed draw finds
        # one in O(1) expected tries.  A canonical-order scan can hit long
        # runs of r-th powers (over F_{p^2} the first p candidates c*x can
        # all be).  The root set is unique, so the choice of generator
        # changes no output.
        rng = random.Random(r)
        while True:
            z = self.random_element(rng)
            if z.is_zero():
                continue
            gen = z**w
            zeta = gen ** (r ** (t - 1))  # = z^((q-1)/r): != 1 iff gen generates
            if zeta != self.one:
                break
        rows, g = [], gen.inverse()
        for _ in range(t):
            row = [self.one]
            for _ in range(r - 1):
                row.append(row[-1] * g)
            rows.append(tuple(x._v for x in row))
            g = g**r
        log_zeta, power = {}, self.one
        for d in range(r):
            log_zeta[power._v] = d
            power = power * zeta
        data = self._sylow[r] = (pow(r, -1, w), tuple(rows), log_zeta)
        return data

    # -- element construction -------------------------------------------

    def _from_coeffs(self, coeffs: tuple) -> "FieldElement":
        """The element with these reduced coefficients, k of them."""
        return FieldElement(self, coeffs[0] if self.k == 1 else coeffs)

    def el(self, value) -> "FieldElement":
        """Coerce an int or coefficient sequence into a field element."""
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise ContextMismatch(f"element of {value.ctx} used in {self}")
            return value
        if isinstance(value, int):
            if self.k == 1:
                return FieldElement(self, value % self.p)
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coeffs = list(value)
        if len(coeffs) > self.k:
            raise ValueError(f"coefficient vector longer than degree {self.k}")
        coeffs += [0] * (self.k - len(coeffs))
        return self._from_coeffs(tuple(c % self.p for c in coeffs))

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in canonical (coefficient-lex) order."""
        def rec(prefix):
            if len(prefix) == self.k:
                yield self._from_coeffs(tuple(prefix))
                return
            for c in range(self.p):
                yield from rec(prefix + [c])

        yield from rec([])

    def nonzero_elements(self) -> Iterator["FieldElement"]:
        for x in self.elements():
            if not x.is_zero():
                yield x

    def random_element(self, rng) -> "FieldElement":
        return self._from_coeffs(tuple(rng.randrange(self.p) for _ in range(self.k)))

    def embed(self, elem: "FieldElement") -> "FieldElement":
        """Embed an element of the prime subfield F_p into this field."""
        if elem.ctx == self:
            return elem
        if elem.ctx.k != 1 or elem.ctx.p != self.p:
            raise ContextMismatch("only prime-subfield embeddings are supported")
        return self.el(elem._v)


class FieldElement:
    """A single element of a FieldCtx; supports the usual operators.

    `_v` is the value: the int in [0, p) over a prime field, so a k = 1
    operation builds no tuple, and the coefficient tuple for k > 1.  Only
    this module and poly.py (which unwraps F_p coefficients) read it.
    """

    __slots__ = ("ctx", "_v")

    def __init__(self, ctx: FieldCtx, v):
        self.ctx = ctx
        self._v = v

    @property
    def coeffs(self) -> tuple:
        """The coefficient vector, constant term first, for every k."""
        return (self._v,) if self.ctx.k == 1 else self._v

    # -- helpers ---------------------------------------------------------

    def _check(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            # make_field returns a new context per call: equal ones must mix
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other
            raise ContextMismatch(f"cannot mix {self.ctx} and {other.ctx}")
        if isinstance(other, int):
            return self.ctx.el(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self._v if self.ctx.k == 1 else not any(self._v)

    def to_int(self) -> int:
        """Value as an int; only valid over a prime field."""
        if self.ctx.k != 1:
            raise ValueError("to_int is only defined over prime fields")
        return self._v

    # -- arithmetic ------------------------------------------------------
    #
    # Each binary operator first takes an operand of this very context, and
    # an int, without building an intermediate element; the context identity
    # test comes first, so F_{p^k} operands skip `_check` as well.  Over
    # F_{p^k}, k > 1, an int shifts the constant coefficient (+, -) or scales
    # every coefficient (*).  Anything else goes through `_check`, which
    # admits equal contexts from separate builds and raises ContextMismatch
    # for the rest.

    def __add__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            if isinstance(other, int):
                if ctx.k == 1:
                    return FieldElement(ctx, (self._v + other) % ctx.p)
                return FieldElement(ctx, ((self._v[0] + other) % ctx.p,) + self._v[1:])
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if ctx.k == 1:
            return FieldElement(ctx, (self._v + other._v) % ctx.p)
        p = ctx.p
        return FieldElement(ctx, tuple((a + b) % p for a, b in zip(self._v, other._v)))

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            if isinstance(other, int):
                if ctx.k == 1:
                    return FieldElement(ctx, (self._v - other) % ctx.p)
                return FieldElement(ctx, ((self._v[0] - other) % ctx.p,) + self._v[1:])
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if ctx.k == 1:
            return FieldElement(ctx, (self._v - other._v) % ctx.p)
        p = ctx.p
        return FieldElement(ctx, tuple((a - b) % p for a, b in zip(self._v, other._v)))

    def __rsub__(self, other):
        ctx = self.ctx
        if ctx.k == 1 and isinstance(other, int):
            return FieldElement(ctx, (other - self._v) % ctx.p)
        if isinstance(other, int):
            p = ctx.p
            return FieldElement(ctx, ((other - self._v[0]) % p,)
                                + tuple(-a % p for a in self._v[1:]))
        return ctx.el(other) - self

    def __neg__(self):
        ctx = self.ctx
        p = ctx.p
        if ctx.k == 1:
            return FieldElement(ctx, -self._v % p)
        return FieldElement(ctx, tuple(-a % p for a in self._v))

    def __mul__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            if isinstance(other, int):
                p = ctx.p
                if ctx.k == 1:
                    return FieldElement(ctx, self._v * other % p)
                return FieldElement(ctx, tuple(a * other % p for a in self._v))
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if ctx.k == 1:
            return FieldElement(ctx, self._v * other._v % ctx.p)
        return FieldElement(ctx, _mul_raw(self._v, other._v, ctx.p, ctx.modulus))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        ctx = self.ctx
        p, k = ctx.p, ctx.k
        if k == 1:
            return FieldElement(ctx, _inverse_mod(self._v, p))
        if k == 2:
            return FieldElement(ctx, _inverse_k2(self._v, p, ctx.modulus))
        # k >= 3, Itoh-Tsujii: with r = (q - 1)/(p - 1), a^(r-1) is the
        # product of the conjugates a^(p^i), i = 1..k-1, and the norm
        # N(a) = a^r lies in F_p, so a^-1 = a^(r-1) / N(a) needs one
        # inversion in F_p; only a = 0 has norm 0
        modulus, frobenius = ctx.modulus, ctx.frobenius
        conj = rest = _frobenius(self._v, p, frobenius)
        for _ in range(k - 2):
            conj = _frobenius(conj, p, frobenius)
            rest = _mul_raw(rest, conj, p, modulus)
        norm = _mul_raw(self._v, rest, p, modulus)
        if any(norm[1:]):
            raise InvariantError(f"norm of {self!r} is not in the prime field")
        n_inv = _inverse_mod(norm[0], p)
        return FieldElement(ctx, tuple(c * n_inv % p for c in rest))

    def __truediv__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            if ctx.k == 1 and isinstance(other, int):
                return FieldElement(ctx, self._v * _inverse_mod(other, ctx.p) % ctx.p)
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if ctx.k == 1:
            return FieldElement(ctx, self._v * _inverse_mod(other._v, ctx.p) % ctx.p)
        return self * other.inverse()

    def __rtruediv__(self, other):
        ctx = self.ctx
        if ctx.k == 1 and isinstance(other, int):
            return FieldElement(ctx, other * _inverse_mod(self._v, ctx.p) % ctx.p)
        return ctx.el(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        ctx = self.ctx
        if ctx.k == 1:
            return FieldElement(ctx, pow(self._v, exponent, ctx.p))
        if ctx.k == 2 and any(self._v):
            return FieldElement(ctx, _pow_k2(self._v, exponent % (ctx.q - 1), ctx.p, ctx.modulus))
        # k >= 3 and the zero base
        return FieldElement(ctx, _pow_raw(self._v, exponent, ctx.p, ctx.modulus))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        ctx = self.ctx
        if isinstance(other, FieldElement):
            return self._v == other._v and (other.ctx is ctx or other.ctx == ctx)
        if isinstance(other, int):
            if ctx.k == 1:
                return self._v == other % ctx.p
            return self._v == ctx.el(other)._v
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx._key, self.coeffs))

    def __repr__(self):
        if self.ctx.k == 1:
            return f"{self._v}"
        return f"{list(self._v)}"


def _mul_raw(x: tuple, y: tuple, p: int, modulus: tuple) -> tuple:
    """x * y in F_p[t]/(modulus) on coefficient tuples of length k > 1.

    For k = 2 the product is written out: with t^2 = -m1 t - m0, the t^2
    coefficient c2 = a1 b1 folds back into the two lower ones.
    """
    if len(x) == 2:
        a0, a1 = x
        b0, b1 = y
        c2 = a1 * b1
        return ((a0 * b0 - c2 * modulus[0]) % p, (a0 * b1 + a1 * b0 - c2 * modulus[1]) % p)
    return _mul_schoolbook(x, y, p, modulus)


def _mul_schoolbook(x: tuple, y: tuple, p: int, modulus: tuple) -> tuple:
    """x * y for any k: the full product, reduced from the top degree
    down; the reference the k = 2 form of `_mul_raw` is tested against."""
    k = len(x)
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d] % p
        if c:
            for j in range(k):
                prod[d - k + j] -= c * modulus[j]
        prod[d] = 0
    return tuple(c % p for c in prod[:k])


def _pow_raw(x: tuple, e: int, p: int, modulus: tuple) -> tuple:
    """x^e for e >= 0 on coefficient tuples of length k > 1: right-to-left
    square-and-multiply over the bits of e; any x, zero included."""
    result, base = (1,) + (0,) * (len(x) - 1), x
    while e:
        if e & 1:
            result = _mul_raw(result, base, p, modulus)
        e >>= 1
        if e:
            base = _mul_raw(base, base, p, modulus)
    return result


def _conjugate_and_norm(x: tuple, p: int, modulus: tuple) -> tuple:
    """(c0, c1, N) for x = (a0, a1) over F_p[t]/(t^2 + m1 t + m0): the
    conjugate x^p = c0 + c1 t, which swaps t with the other root -m1 - t,
    and the norm N = x * x^p = a0^2 - m1 a0 a1 + m0 a1^2 in F_p."""
    a0, a1 = x
    m0, m1 = modulus[0], modulus[1]
    return (a0 - m1 * a1) % p, -a1 % p, (a0 * a0 - m1 * a0 * a1 + m0 * a1 * a1) % p


def _pow_k2(x: tuple, e: int, p: int, modulus: tuple) -> tuple:
    """x^e for a nonzero x of F_{p^2} and 0 <= e < p^2 - 1.

    With e = e0 + e1 p, x^e = x^e0 * conj(x)^e1: one left-to-right
    square-and-multiply over the bits of e0 and e1 together, multiplying
    by x, by conj(x) or, where both bits are set, by the scalar N(x).  That
    is log2(p) squarings rather than log2(p^2).
    """
    a0, a1 = x
    m0, m1 = modulus[0], modulus[1]
    e1, e0 = divmod(e, p)
    top = (e0 | e1).bit_length() - 1
    if top < 0:
        return 1, 0
    if e1:  # conj(x) and N(x) serve only the bits of e1
        b0, b1, norm = _conjugate_and_norm(x, p, modulus)
    # the top digit starts r, so 1 is neither squared nor multiplied
    if e0 >> top & 1:
        r0, r1 = (norm, 0) if e1 >> top & 1 else (a0, a1)
    else:
        r0, r1 = b0, b1
    for i in range(top - 1, -1, -1):
        c2 = r1 * r1
        r0, r1 = (r0 * r0 - c2 * m0) % p, (2 * r0 * r1 - c2 * m1) % p
        if e0 >> i & 1:
            if e1 >> i & 1:
                r0, r1 = r0 * norm % p, r1 * norm % p
            else:
                c2 = r1 * a1
                r0, r1 = (r0 * a0 - c2 * m0) % p, (r0 * a1 + r1 * a0 - c2 * m1) % p
        elif e1 >> i & 1:
            c2 = r1 * b1
            r0, r1 = (r0 * b0 - c2 * m0) % p, (r0 * b1 + r1 * b0 - c2 * m1) % p
    return r0, r1


def _inverse_k2(x: tuple, p: int, modulus: tuple) -> tuple:
    """x^-1 = conj(x) / N(x) over F_{p^2}; only x = 0 has norm 0, and it
    raises ZeroDivisionError."""
    c0, c1, norm = _conjugate_and_norm(x, p, modulus)
    n_inv = _inverse_mod(norm, p)
    return c0 * n_inv % p, c1 * n_inv % p


def _horner_k2(x: tuple, coeffs: Sequence[int], p: int, modulus: tuple) -> tuple:
    """coeffs(x) over F_{p^2} for integer coefficients, constant first: Horner
    with the written-out product of `_mul_raw`, adding each coefficient
    inside its reduction."""
    a0, a1 = x
    m0, m1 = modulus[0], modulus[1]
    r0, r1 = coeffs[-1] % p, 0
    for c in coeffs[-2::-1]:
        c2 = r1 * a1
        r0, r1 = (r0 * a0 - c2 * m0 + c) % p, (r0 * a1 + r1 * a0 - c2 * m1) % p
    return r0, r1


def _frobenius(x: tuple, p: int, frobenius: tuple) -> tuple:
    """x^p, as the Frobenius matrix (by columns) applied to the coefficients."""
    return tuple(sum(map(operator.mul, x, col)) % p for col in frobenius)


def _inverse_mod(c: int, p: int) -> int:
    """c^-1 mod p; ZeroDivisionError when p divides c."""
    try:
        return pow(c, -1, p)
    except ValueError:
        raise ZeroDivisionError("inverse of zero field element") from None


def _smallest_irreducible(p: int, k: int):
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Coefficient tuples (c0, ..., c_{k-1}) are scanned in lexicographic
    order with the constant term most significant, so the result is
    reproducible across runs and platforms.  For k > 1 every candidate with
    c0 = 0 is divisible by x, so the scan starts at c0 = 1.
    """
    if k == 1:
        return (0, 1)
    prime = FieldCtx(p, 1, (0, 1))

    def rec(prefix):
        if len(prefix) == k:
            f = tuple(prefix) + (1,)
            if poly.is_irreducible([prime.el(c) for c in f], prime):
                return f
            return None
        for c in range(0 if prefix else 1, p):
            found = rec(prefix + [c])
            if found is not None:
                return found
        return None

    found = rec([])
    if found is None:  # cannot happen: irreducibles exist in every degree
        raise RadicantError(f"no irreducible polynomial of degree {k} over F_{p}")
    return found


# ---------------------------------------------------------------------------
# public constructors and operations
# ---------------------------------------------------------------------------

def make_field(p: int, k: int = 1) -> FieldCtx:
    """Build F_{p^k} with a deterministically chosen defining polynomial."""
    if p < 5 or not isprime(p):
        raise ValueError(f"{p} is not a prime >= 5")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p**k >= 1 << MAX_FIELD_BITS:
        raise ValueError(f"field order p^k = {p}^{k} exceeds the integer width")
    return FieldCtx(p, k, _smallest_irreducible(p, k))


def rational_map_k2(x: FieldElement, num: Sequence[int], den: Sequence[int]):
    """x * num(x) / den(x) for x in F_{p^2} and integer polynomials num and
    den (constant first), or None where den(x) = 0.  It runs on coefficient
    pairs and builds one element, the result."""
    ctx = x.ctx
    p, modulus = ctx.p, ctx.modulus
    v = x._v
    d = _horner_k2(v, den, p, modulus)
    if not any(d):
        return None
    n = _mul_raw(v, _horner_k2(v, num, p, modulus), p, modulus)
    return FieldElement(ctx, _mul_raw(n, _inverse_k2(d, p, modulus), p, modulus))


def is_root(x: FieldElement, coeffs: Sequence[int]) -> bool:
    """Does the integer polynomial with these coefficients (constant first)
    vanish at x?  Horner runs on x's value and builds no element."""
    ctx = x.ctx
    p, v = ctx.p, x._v
    if ctx.k == 1:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * v + c) % p
        return not acc
    if ctx.k == 2:
        return not any(_horner_k2(v, coeffs, p, ctx.modulus))
    acc = (0,) * ctx.k
    for c in reversed(coeffs):
        acc = _mul_raw(acc, v, p, ctx.modulus)
        acc = ((acc[0] + c) % p,) + acc[1:]
    return not any(acc)


def _value_mul(ctx: FieldCtx, x, y):
    """x * y on the values (`_v`) of two elements of ctx."""
    if ctx.k == 1:
        return x * y % ctx.p
    return _mul_raw(x, y, ctx.p, ctx.modulus)


def _value_pow(ctx: FieldCtx, x, e: int):
    """x^e, e >= 0, on the value of a nonzero element of ctx, through the
    kernel `__pow__` uses at its degree."""
    if ctx.k == 1:
        return pow(x, e, ctx.p)
    if ctx.k == 2:
        return _pow_k2(x, e % (ctx.q - 1), ctx.p, ctx.modulus)
    return _pow_raw(x, e, ctx.p, ctx.modulus)


def _prime_roots(ctx: FieldCtx, a, r: int) -> list:
    """The values of all solutions of x^r = a for prime r (possibly empty),
    where a is the value of a nonzero element of ctx.

    Adleman-Manders-Miller: with q - 1 = r^t * w and r not dividing w,
    x0 = a^s, s = 1/r mod w, is a root up to a factor in the r-Sylow
    subgroup: x0^r = a * u with u = a^(rs - 1).  That factor is read off by
    a Pohlig-Hellman discrete log of u = gen^e in t base-r digits, with no
    search over the r^t elements of the Sylow subgroup.  The generator's
    powers gen^(-d r^i), t*r of them, and the r-th roots of unity are field
    constants (`FieldCtx.sylow`), held as values; a call does only the work
    that depends on a, on values too, and builds no element.

    Digit 0 also decides whether a is an r-th power.  Write rs - 1 = k w;
    r does not divide k, since r | k would give r | rs - 1 and so r | 1.  Then
    u^(r^(t-1)) = a^(k w r^(t-1)) = (a^((q-1)/r))^k, and as k is a unit mod
    r this is 1 exactly when a^((q-1)/r) is, i.e. when a is an r-th power.
    So a nonzero digit 0 means there is no root.  Otherwise r | e, and
    x0 * gen^(-e/r) is a root.
    """
    n = ctx.q - 1
    if n % r != 0:
        # x -> x^r is a bijection
        return [_value_pow(ctx, a, pow(r, -1, n))]
    s, rows, log_zeta = ctx.sylow(r)
    # x0 = a^s and u = x0^r / a = a^(rs - 1) both come from y = a^(s - 1),
    # without inverting a (s = 0 when w = 1, so the exponent is taken mod n)
    y = _value_pow(ctx, a, (s - 1) % n)
    root = _value_mul(ctx, y, a)
    v = _value_mul(ctx, _value_pow(ctx, root, r - 1), y)
    # with v = u * gen^(-e_low), e_low the digits below i,
    # v^(r^(t-1-i)) = zeta^(digit i); digit i of e is digit i - 1 of e/r
    t = len(rows)
    for i in range(t):
        d = log_zeta[_value_pow(ctx, v, r ** (t - 1 - i))]
        if d:
            if i == 0:
                return []
            v = _value_mul(ctx, v, rows[i][d])
            root = _value_mul(ctx, root, rows[i - 1][d])
    return [_value_mul(ctx, root, z) for z in log_zeta]


def nth_roots(rho: FieldElement, n: int) -> list:
    """All solutions of x^n = rho, sorted in canonical coefficient order.

    The result has gcd(n, q-1) entries when rho is an n-th power and is
    empty otherwise.  rho = 0 is rejected: upstream it signals a vanishing
    discriminant.  Roots are found on values, the intermediate ones of a
    composite n included, and the only elements built are the roots returned.
    """
    if n < 1:
        raise ValueError("root degree must be positive")
    if rho.is_zero():
        raise NoRootError("zero radicand (degenerate instance)")
    ctx = rho.ctx
    if isprime(n):  # the radical step's n = 5: no factorisation
        roots = _prime_roots(ctx, rho._v, n)
    else:
        roots = {rho._v}
        for r, e in sorted(factorint(n).items()):
            for _ in range(e):
                roots = {x for a in roots for x in _prime_roots(ctx, a, r)}
                if not roots:
                    return []
    if len(roots) not in (0, math.gcd(n, ctx.q - 1)):
        raise InvariantError("root count does not match gcd(n, q-1)")
    return [FieldElement(ctx, v) for v in sorted(roots)]
