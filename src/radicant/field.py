"""Prime fields F_p and small extensions F_{p^k}.

Elements carry their coefficient vector (constant term first) plus a
reference to the field context.  Everything is immutable, so values can be
shared freely.  The canonical ordering used everywhere downstream is the
lexicographic order on coefficient tuples.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Iterator, Sequence

from sympy import factorint, isprime

from . import poly
from .errors import ContextMismatch, InvariantError, NoRootError, RadicantError
from .miscutil import order_dividing

MAX_FIELD_BITS = 63  # q = p^k must stay in a machine-word range


class FieldCtx:
    """Descriptor of F_{p^k}: characteristic, degree and defining polynomial.

    The defining polynomial is monic of degree k, stored as an ascending
    coefficient tuple of length k+1.  For k = 1 the convention is x - 0,
    i.e. (0, 1).

    For k > 1, `frobenius` is the matrix of a -> a^p on coefficient
    vectors, stored by columns: column j holds coefficient j of x^(i*p)
    mod the modulus, for i = 0..k-1.  It is None for k = 1.
    """

    __slots__ = ("p", "k", "modulus", "q", "_key", "frobenius", "zero", "one")

    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
        self.q = p**k
        self._key = (p, self.modulus)
        # elements are immutable, so one zero and one one serve every caller
        self.zero = FieldElement(self, (0,) * k)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1))
        self.frobenius = None
        if k > 1:
            xp = FieldElement(self, (0, 1) + (0,) * (k - 2)) ** p
            powers = [self.one]  # x^(i*p) for i = 0..k-1
            for _ in range(k - 1):
                powers.append(powers[-1] * xp)
            self.frobenius = tuple(zip(*(x.coeffs for x in powers)))

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}"

    # -- element construction -------------------------------------------

    def el(self, value) -> "FieldElement":
        """Coerce an int or coefficient sequence into a field element."""
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise ContextMismatch(f"element of {value.ctx} used in {self}")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.k - 1)
            return FieldElement(self, coeffs)
        coeffs = list(value)
        if len(coeffs) > self.k:
            raise ValueError(f"coefficient vector longer than degree {self.k}")
        coeffs += [0] * (self.k - len(coeffs))
        return FieldElement(self, tuple(c % self.p for c in coeffs))

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in canonical (coefficient-lex) order."""
        def rec(prefix):
            if len(prefix) == self.k:
                yield FieldElement(self, tuple(prefix))
                return
            for c in range(self.p):
                yield from rec(prefix + [c])

        yield from rec([])

    def nonzero_elements(self) -> Iterator["FieldElement"]:
        for x in self.elements():
            if not x.is_zero():
                yield x

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    def embed(self, elem: "FieldElement") -> "FieldElement":
        """Embed an element of the prime subfield F_p into this field."""
        if elem.ctx == self:
            return elem
        if elem.ctx.k != 1 or elem.ctx.p != self.p:
            raise ContextMismatch("only prime-subfield embeddings are supported")
        return self.el(elem.coeffs[0])


class FieldElement:
    """A single element of a FieldCtx; supports the usual operators."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

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
        return not any(self.coeffs)

    def to_int(self) -> int:
        """Value as an int; only valid over a prime field."""
        if self.ctx.k != 1:
            raise ValueError("to_int is only defined over prime fields")
        return self.coeffs[0]

    # -- arithmetic ------------------------------------------------------
    #
    # Each binary operator first takes an operand of this very context, and
    # over F_p an int, without building an intermediate element; the context
    # identity test comes first, so F_{p^k} operands skip `_check` as well.
    # Anything else goes through `_check`, which admits equal contexts from
    # separate builds and raises ContextMismatch for the rest.

    def __add__(self, other):
        ctx = self.ctx
        if isinstance(other, FieldElement) and other.ctx is ctx:
            if ctx.k == 1:
                return FieldElement(ctx, ((self.coeffs[0] + other.coeffs[0]) % ctx.p,))
        elif ctx.k == 1 and isinstance(other, int):
            return FieldElement(ctx, ((self.coeffs[0] + other) % ctx.p,))
        else:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        p = ctx.p
        return FieldElement(
            ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        if isinstance(other, FieldElement) and other.ctx is ctx:
            if ctx.k == 1:
                return FieldElement(ctx, ((self.coeffs[0] - other.coeffs[0]) % ctx.p,))
        elif ctx.k == 1 and isinstance(other, int):
            return FieldElement(ctx, ((self.coeffs[0] - other) % ctx.p,))
        else:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        p = ctx.p
        return FieldElement(
            ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        ctx = self.ctx
        if ctx.k == 1 and isinstance(other, int):
            return FieldElement(ctx, ((other - self.coeffs[0]) % ctx.p,))
        return ctx.el(other) - self

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, FieldElement) and other.ctx is ctx:
            if ctx.k == 1:
                return FieldElement(ctx, (self.coeffs[0] * other.coeffs[0] % ctx.p,))
        elif ctx.k == 1 and isinstance(other, int):
            return FieldElement(ctx, (self.coeffs[0] * other % ctx.p,))
        else:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        p, k = ctx.p, ctx.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        mod = ctx.modulus
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for j in range(k):
                    prod[d - k + j] -= c * mod[j]
            prod[d] = 0
        return FieldElement(ctx, tuple(c % p for c in prod[:k]))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        ctx = self.ctx
        p, k = ctx.p, ctx.k
        if k == 1:
            return FieldElement(ctx, (_inverse_mod(self.coeffs[0], p),))
        # Itoh-Tsujii: with r = (q - 1)/(p - 1), a^(r-1) is the product of
        # the conjugates a^(p^i), i = 1..k-1, and the norm N(a) = a^r lies
        # in F_p, so a^-1 = a^(r-1) / N(a) needs one inversion in F_p; only
        # a = 0 has norm 0
        conj = rest = self._frobenius()
        for _ in range(k - 2):
            conj = conj._frobenius()
            rest = rest * conj
        norm = self * rest
        if any(norm.coeffs[1:]):
            raise InvariantError(f"norm of {self!r} is not in the prime field")
        n_inv = _inverse_mod(norm.coeffs[0], p)
        return FieldElement(ctx, tuple(c * n_inv % p for c in rest.coeffs))

    def _frobenius(self) -> "FieldElement":
        """a^p, as the Frobenius matrix applied to the coefficient vector."""
        p = self.ctx.p
        return FieldElement(self.ctx, tuple(
            sum(map(operator.mul, self.coeffs, col)) % p for col in self.ctx.frobenius
        ))

    def __truediv__(self, other):
        ctx = self.ctx
        if isinstance(other, FieldElement) and other.ctx is ctx:
            if ctx.k == 1:
                inv = _inverse_mod(other.coeffs[0], ctx.p)
                return FieldElement(ctx, (self.coeffs[0] * inv % ctx.p,))
        elif ctx.k == 1 and isinstance(other, int):
            inv = _inverse_mod(other, ctx.p)
            return FieldElement(ctx, (self.coeffs[0] * inv % ctx.p,))
        else:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        ctx = self.ctx
        if ctx.k == 1 and isinstance(other, int):
            return FieldElement(ctx, (other * _inverse_mod(self.coeffs[0], ctx.p) % ctx.p,))
        return ctx.el(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.ctx.k == 1:
            return FieldElement(self.ctx, (pow(self.coeffs[0], exponent, self.ctx.p),))
        result = self.ctx.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        ctx = self.ctx
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs and (other.ctx is ctx or other.ctx == ctx)
        if isinstance(other, int):
            if ctx.k == 1:
                return self.coeffs[0] == other % ctx.p
            return self.coeffs == ctx.el(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx._key, self.coeffs))

    def __repr__(self):
        if self.ctx.k == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}"


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


def arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Functional form of the four basic operations (used by the CLI)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown field operation {op!r}")


def multiplicative_order(a: FieldElement) -> int:
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    return order_dividing(a.ctx.q - 1, lambda m: a**m == a.ctx.one)


def _prime_roots(a: FieldElement, r: int) -> list:
    """All solutions of x^r = a for prime r (possibly empty).

    Adleman-Manders-Miller: with q - 1 = r^t * w and r not dividing w,
    x0 = a^(1/r mod w) is a root up to a factor in the r-Sylow subgroup.
    That factor is read off by a Pohlig-Hellman discrete log in t base-r
    digits against a Sylow generator: O(t^2 log r) multiplications, with no
    search over the r^t elements of the Sylow subgroup.
    """
    ctx = a.ctx
    n = ctx.q - 1
    if n % r != 0:
        # x -> x^r is a bijection
        return [a ** pow(r, -1, n)]
    if a ** (n // r) != ctx.one:
        return []
    t, w = 0, n
    while w % r == 0:
        t += 1
        w //= r
    # z^w generates the Sylow subgroup iff z is not an r-th power, which
    # holds for a fraction 1 - 1/r of the field: a fixed-seed draw finds one
    # in O(1) expected tries.  A canonical-order scan can hit long runs of
    # r-th powers (over F_{p^2} the first p candidates c*x can all be).  The
    # root set is unique, so the choice of generator changes no output.
    rng = random.Random(r)
    while True:
        z = ctx.random_element(rng)
        if z.is_zero():
            continue
        gen = z**w
        zeta = gen ** (r ** (t - 1))  # = z^(n/r), so zeta != 1 iff gen generates
        if zeta != ctx.one:
            break
    log_zeta, power = {}, ctx.one
    for d in range(r):
        log_zeta[power] = d
        power = power * zeta
    # x0 = a^s with s = 1/r mod w is a root up to a Sylow factor u = x0^r / a
    # = a^(rs - 1); both come from y = a^(s - 1) without inverting a
    y = a ** (pow(r, -1, w) - 1)
    x0 = y * a
    u = x0 ** (r - 1) * y
    # u = gen^e with r | e, read off in base-r digits:
    # (u * gen^-e_low)^(r^(t-1-i)) = zeta^(digit i)
    order = r**t
    e = 0
    for i in range(t):
        e += log_zeta[(u * gen ** (-e % order)) ** (r ** (t - 1 - i))] * r**i
    root = x0 * gen ** (-(e // r) % order)
    return [root * z for z in log_zeta]


def nth_roots(rho: FieldElement, n: int) -> list:
    """All solutions of x^n = rho, sorted in canonical coefficient order.

    The result has gcd(n, q-1) entries when rho is an n-th power and is
    empty otherwise.  rho = 0 is rejected: upstream it signals a vanishing
    discriminant.
    """
    if n < 1:
        raise ValueError("root degree must be positive")
    if rho.is_zero():
        raise NoRootError("zero radicand (degenerate instance)")
    roots = {rho}
    for r, e in sorted(factorint(n).items()):
        for _ in range(e):
            roots = {x for a in roots for x in _prime_roots(a, r)}
            if not roots:
                return []
    expected = math.gcd(n, rho.ctx.q - 1)
    out = sorted(roots, key=lambda e: e.coeffs)
    if len(out) not in (0, expected):
        raise InvariantError("root count does not match gcd(n, q-1)")
    return out
