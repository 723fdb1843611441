"""General Weierstrass curves over small finite fields.

Provides the chord-tangent group law, exhaustive point enumeration with a
Hasse-interval self check, point orders, division polynomials and the
rational N-torsion read off their roots, torsion bases from the same
roots and the Weil pairing, the unique normal form carrying a marked point
at (0,0), and exact isomorphism search between curves.  Enumeration keeps no
cache and serves `group_order`, one F_31 pairing claim and the tests; random
points are drawn only for the sampling comparand of `radical.velu_chain`.
"""

from __future__ import annotations

import math
import operator
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from . import poly
from .errors import (
    ContextMismatch,
    DegenerateParams,
    EnumerationBound,
    InvariantError,
    RadicantError,
    TorsionUnavailable,
)
from .field import FieldCtx, FieldElement, is_root, nth_roots
from .miscutil import isprime, order_dividing

DEFAULT_ENUM_BOUND = 2_000_000

# diagnostic counter: how many random curve points the sampling comparand drew
_sample_count = 0


def reset_sample_count():
    global _sample_count
    _sample_count = 0


def sample_count() -> int:
    return _sample_count


def enum_bound() -> int:
    raw = os.environ.get("RADICANT_ENUM_BOUND")
    if raw is None:
        return DEFAULT_ENUM_BOUND
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ValueError(f"RADICANT_ENUM_BOUND must be a positive integer, got {raw!r}")
    return bound


@dataclass(frozen=True)
class Point:
    """Affine point or the point at infinity (x = y = None)."""

    x: Optional[FieldElement]
    y: Optional[FieldElement]

    @staticmethod
    def infinity() -> "Point":
        return Point(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x!r}, {self.y!r})"


O = Point.infinity()


def _discriminant(b2, b4, b6, b8) -> FieldElement:
    """The discriminant from the b-invariants."""
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over a fixed field."""

    a1: FieldElement
    a2: FieldElement
    a3: FieldElement
    a4: FieldElement
    a6: FieldElement

    def __post_init__(self):
        ctx = self.a1.ctx
        for c in (self.a2, self.a3, self.a4, self.a6):
            if c.ctx != ctx:
                raise ContextMismatch("curve coefficients from different fields")
        if self.discriminant().is_zero():
            raise DegenerateParams("singular Weierstrass equation")

    @property
    def ctx(self) -> FieldCtx:
        return self.a1.ctx

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> FieldElement:
        return _discriminant(*self.b_invariants())

    def c4_and_discriminant(self) -> tuple:
        """(c4, Delta) from one computation of the b-invariants."""
        b2, b4, b6, b8 = self.b_invariants()
        return b2 * b2 - 24 * b4, _discriminant(b2, b4, b6, b8)

    def j_invariant(self) -> FieldElement:
        c4, disc = self.c4_and_discriminant()
        return c4**3 / disc

    # -- point predicates -------------------------------------------------

    def contains(self, pt: Point) -> bool:
        if pt.is_infinity:
            return True
        x, y = pt.x, pt.y
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x**3 + self.a2 * x * x + self.a4 * x + self.a6
        return lhs == rhs

    def require(self, pt: Point):
        if not self.contains(pt):
            raise ValueError(f"point {pt} is not on the curve")

    def neg(self, pt: Point) -> Point:
        if pt.is_infinity:
            return pt
        return Point(pt.x, -pt.y - self.a1 * pt.x - self.a3)

    # -- group law --------------------------------------------------------

    def line(self, P: Point, Q: Point):
        """The line y = lam*x + nu through the finite points P and Q, the
        tangent when P == Q, as (lam, nu, P + Q); None when it is vertical
        (Q = -P).  Its one inversion builds the line, and the sum is the
        negated third point where the line meets the curve."""
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if (y1 + y2 + a1 * x1 + a3).is_zero():
                return None
            inv = (2 * y1 + a1 * x1 + a3).inverse()
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * inv
            nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) * inv
        else:
            inv = (x2 - x1).inverse()
            lam = (y2 - y1) * inv
            nu = (y1 * x2 - y2 * x1) * inv
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        return lam, nu, Point(x3, -(lam + a1) * x3 - nu - a3)

    def add(self, P: Point, Q: Point) -> Point:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        line = self.line(P, Q)
        return O if line is None else line[2]

    def mul(self, n: int, P: Point) -> Point:
        if n < 0:
            return self.mul(-n, self.neg(P))
        result = O
        base = P
        while n:
            if n & 1:
                result = self.add(result, base)
            base = self.add(base, base)
            n >>= 1
        return result

    def subgroup(self, P: Point) -> list:
        """All multiples of P, starting from O."""
        pts = [O]
        Q = P
        while not Q.is_infinity:
            pts.append(Q)
            Q = self.add(Q, P)
        return pts


# ---------------------------------------------------------------------------
# basic operations in functional form
# ---------------------------------------------------------------------------

def add(E: WeierstrassCurve, P: Point, Q: Point) -> Point:
    E.require(P)
    E.require(Q)
    return E.add(P, Q)


def scalar_mul(E: WeierstrassCurve, n: int, P: Point) -> Point:
    E.require(P)
    return E.mul(n, P)


def point_order(E: WeierstrassCurve, P: Point, multiple: Optional[int] = None) -> int:
    """Least n >= 1 with [n]P = O, from a known multiple of it.

    `multiple` defaults to the group order, which needs enumeration; pass any
    m >= 1 with [m]P = O to avoid it.
    """
    E.require(P)
    if P.is_infinity:
        return 1
    if multiple is None:
        multiple = group_order(E)
    if multiple < 1 or not E.mul(multiple, P).is_infinity:
        raise InvariantError(f"{multiple} is not a multiple of the point order")
    return order_dividing(multiple, lambda m: E.mul(m, P).is_infinity)


def has_order(E: WeierstrassCurve, P: Point, N: int) -> bool:
    """True when P has exact order N; needs no group order."""
    if N < 1 or not E.mul(N, P).is_infinity:
        return False
    E.require(P)
    return order_dividing(N, lambda m: E.mul(m, P).is_infinity) == N


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _sqrt_table(ctx: FieldCtx) -> dict:
    table = {}
    for v in ctx.elements():
        table.setdefault((v * v).coeffs, []).append(v)
    return table


def _points_for_x(E: WeierstrassCurve, x: FieldElement, sqrt_table=None) -> list:
    """Solutions y of the curve equation at fixed x (0, 1 or 2 points)."""
    ctx = E.ctx
    h = E.a1 * x + E.a3
    rhs = x**3 + E.a2 * x * x + E.a4 * x + E.a6
    # complete the square: (2y + h)^2 = h^2 + 4 rhs
    disc = h * h + 4 * rhs
    two_inv = ctx.el(2).inverse()
    if disc.is_zero():
        return [Point(x, -h * two_inv)]
    if sqrt_table is not None:
        roots = sqrt_table.get(disc.coeffs, [])
    else:
        roots = nth_roots(disc, 2)
    return [Point(x, (r - h) * two_inv) for r in roots]


def enumerate_points(E: WeierstrassCurve) -> list:
    """All rational points including O; checked against the Hasse interval."""
    q = E.ctx.q
    if q > enum_bound():
        raise EnumerationBound(f"field of order {q} exceeds the enumeration bound")
    table = _sqrt_table(E.ctx)
    pts = [O]
    for x in E.ctx.elements():
        pts.extend(_points_for_x(E, x, table))
    n = len(pts)
    s = math.isqrt(4 * q)
    if not (q + 1 - s <= n <= q + 1 + s + 1):
        raise RadicantError(f"point count {n} violates the Hasse interval")
    return pts


@lru_cache(maxsize=512)
def group_order(E: WeierstrassCurve) -> int:
    return len(enumerate_points(E))


# ---------------------------------------------------------------------------
# base change between F_p and F_{p^k}
# ---------------------------------------------------------------------------

def base_change(E: WeierstrassCurve, ext: FieldCtx) -> WeierstrassCurve:
    if E.ctx == ext:
        return E
    return WeierstrassCurve(*(ext.embed(c) for c in (E.a1, E.a2, E.a3, E.a4, E.a6)))


# ---------------------------------------------------------------------------
# torsion points
# ---------------------------------------------------------------------------

def random_point(E: WeierstrassCurve, rng) -> Point:
    """Draw a uniform-ish random point by x-coordinate sampling.

    Every draw is counted; the radical chain must never trigger this.
    """
    global _sample_count
    while True:
        _sample_count += 1
        x = E.ctx.random_element(rng)
        pts = _points_for_x(E, x)
        if pts:
            return pts[rng.randrange(len(pts))]


def _sylow_reduce(E: WeierstrassCurve, P: Point, n: int, N: int):
    """Map P to the N-Sylow part and peel down to a point of order N."""
    v = 0
    m = n
    while m % N == 0:
        v += 1
        m //= N
    S = E.mul(m, P)
    if S.is_infinity:
        return None
    chain = [S]
    while not chain[-1].is_infinity:
        chain.append(E.mul(N, chain[-1]))
        if len(chain) > v + 2:
            raise RadicantError("Sylow reduction did not terminate")
    return chain[-2]


def _rng_for(E: WeierstrassCurve, tag: str) -> random.Random:
    key = (E.ctx.p, E.ctx.k, tuple(c.coeffs for c in (E.a1, E.a2, E.a3, E.a4, E.a6)), tag)
    return random.Random(repr(key))


def torsion_basis(E: WeierstrassCurve, N: int, ext: FieldCtx):
    """A basis (P1, P2) of E[N] rational over the given extension, for odd N.

    The points of order N are read off the roots of psi_N
    (`points_of_order`), so nothing is enumerated or sampled: P1 is the
    first of them and P2 the first whose Weil pairing with P1 has exact
    order N.  Raises TorsionUnavailable when E[N] is not rational over ext.
    """
    from .pairing import weil

    Eext = base_change(E, ext)
    points = points_of_order(Eext, N)
    for P2 in points[1:]:
        e = weil(Eext, points[0], P2, N)  # an N-th root of unity, or InvariantError
        if order_dividing(N, lambda m: e**m == ext.one) == N:
            return points[0], P2
    raise TorsionUnavailable(f"E[{N}] is not rational over {ext}")


def full_torsion_degree(E: WeierstrassCurve, N: int, max_degree: int = 8):
    """Smallest extension degree d with E[N] rational over F_{q^d}; the
    Weil pairing puts mu_N in F_{q^d} first."""
    from .field import make_field

    for d in range(1, max_degree + 1):
        if E.ctx.k != 1 and d > 1:
            break
        if (E.ctx.q**d - 1) % N != 0:
            continue
        ext = E.ctx if d == 1 else make_field(E.ctx.p, d)
        try:
            basis = torsion_basis(E, N, ext)
        except TorsionUnavailable:
            continue
        return d, ext, basis
    raise TorsionUnavailable(
        f"E[{N}] not rational within extension degree {max_degree}"
    )


def division_polynomial(E: WeierstrassCurve, n: int) -> list:
    """The division polynomial psi_n for odd n >= 1, in x (constant first).

    Its roots are the x-coordinates of the points P != O with [n]P = O, and
    its leading coefficient is n.  Built by the standard recursion on the
    b-invariants (Washington, Elliptic Curves, section 3.2):
        psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3,
        psi_{2m} = psi_m (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2) / psi_2.
    Even indices are carried as f_m = psi_m / psi_2, a polynomial in x, with
    psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"division polynomials are built for odd n >= 1, got {n}")
    A = poly._coeffs(E.ctx)
    b2, b4, b6, b8 = A.unwrap(E.b_invariants())
    psi2_sq = A.reduced([b6, 2 * b4, b2, A.scalar(4)])
    psi2_4th = poly._mul(psi2_sq, psi2_sq, A)
    f = {
        0: [A.zero],
        1: [A.one],
        2: [A.one],
        3: A.reduced([b8, 3 * b6, 3 * b4, b2, A.scalar(3)]),
        4: A.reduced([b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2,
                      A.scalar(2)]),
    }

    def mul(*factors):
        out = factors[0]
        for g in factors[1:]:
            out = poly._mul(out, g, A)
        return out

    def get(m):
        if m not in f:
            k = m // 2
            if m % 2:
                # one of psi_{m+2} psi_m^3, psi_{m-1} psi_{m+1}^3 has two even
                # indices, whose psi_2^4 is restored here
                hi = mul(get(k + 2), get(k), get(k), get(k))
                lo = mul(get(k - 1), get(k + 1), get(k + 1), get(k + 1))
                if k % 2 == 0:
                    hi = poly._mul(psi2_4th, hi, A)
                else:
                    lo = poly._mul(psi2_4th, lo, A)
                f[m] = poly._zip(operator.sub, hi, lo, A)
            else:
                f[m] = poly._mul(get(k), poly._zip(
                    operator.sub, mul(get(k + 2), get(k - 1), get(k - 1)),
                    mul(get(k - 2), get(k + 1), get(k + 1)), A), A)
        return f[m]

    return A.wrap(poly._trim(get(n), A.zero))


def points_of_order(E: WeierstrassCurve, N: int) -> list:
    """All rational points of exact order N, for odd N, in enumeration order.

    The x-coordinates are the rational roots of psi_N, each giving its
    points through the curve equation, so nothing is enumerated; for prime
    N every such point has order exactly N.  `division_polynomial` refuses
    even N.
    """
    candidates = [P for x in poly.roots(division_polynomial(E, N), E.ctx)
                  for P in _points_for_x(E, x)]
    if isprime(N):
        return candidates
    return [P for P in candidates if has_order(E, P, N)]


# ---------------------------------------------------------------------------
# the marked normal form y^2 + (1-c)xy - by = x^3 - bx^2
# ---------------------------------------------------------------------------

def normal_form_discriminant(b: FieldElement, c: FieldElement) -> FieldElement:
    """b^3 (c^4 - 3c^3 + 3c^2 - 8bc^2 + 16b^2 - 20bc + b - c), the
    discriminant of y^2 + (1-c)xy - by = x^3 - bx^2, evaluated in factored
    form."""
    c2 = c * c
    inner = c2 * (c2 - 3 * c + 3 - 8 * b) + b * (16 * b - 20 * c + 1) - c
    return b**3 * inner


# b^2 - 11b - 1, constant first: Delta(b) = b^5 times this quadratic
_DELTA_QUADRATIC = (-1, -11, 1)


def degree5_discriminant(b: FieldElement) -> FieldElement:
    """Delta(b) = b^5 (b^2 - 11b - 1), the discriminant of `degree5_curve(b)`:
    `normal_form_discriminant(b, b)` in factored form."""
    c0, c1, _ = _DELTA_QUADRATIC
    return b**5 * (b * (b + c1) + c0)


def degree5_degenerate(b: FieldElement) -> bool:
    """Delta(b) = 0, read off its factors: b = 0 or b^2 - 11b - 1 = 0.  No
    power is taken and no element is built."""
    return b.is_zero() or is_root(b, _DELTA_QUADRATIC)


@dataclass(frozen=True)
class TateParams:
    """Parameters (b, c) of the unique normal form with marked point (0,0)."""

    b: FieldElement
    c: FieldElement
    N: int

    def __post_init__(self):
        if normal_form_discriminant(self.b, self.c).is_zero():
            raise DegenerateParams("normal-form discriminant vanishes")
        if self.N == 5 and self.b != self.c:
            raise DegenerateParams("degree-5 normal form requires c = b")


def curve_from_params(tp: TateParams) -> WeierstrassCurve:
    ctx = tp.b.ctx
    one = ctx.one
    return WeierstrassCurve(one - tp.c, -tp.b, -tp.b, ctx.zero, ctx.zero)


def degree5_curve(b: FieldElement) -> WeierstrassCurve:
    """Convenience constructor for the c = b family carrying a 5-point."""
    return curve_from_params(TateParams(b, b, 5))


def degree5_j_invariant(b: FieldElement) -> FieldElement:
    """j of `degree5_curve(b)` without building it: the j-map of X_1(5),
    (b^4 - 12b^3 + 14b^2 + 12b + 1)^3 / Delta(b).  The numerator is c4^3;
    where Delta(b) = `degree5_discriminant(b)` vanishes DegenerateParams is
    raised as `degree5_curve` raises it."""
    delta = degree5_discriminant(b)
    if delta.is_zero():
        raise DegenerateParams("normal-form discriminant vanishes")
    c4 = b * (b * (b * (b - 12) + 14) + 12) + 1
    return c4**3 / delta


@dataclass(frozen=True)
class CurveIso:
    """Change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    Maps points of `domain` to points of `codomain`.
    """

    u: FieldElement
    r: FieldElement
    s: FieldElement
    t: FieldElement
    domain: WeierstrassCurve
    codomain: WeierstrassCurve

    def apply(self, P: Point) -> Point:
        if P.is_infinity:
            return P
        u, r, s, t = self.u, self.r, self.s, self.t
        x2 = (P.x - r) / (u * u)
        y2 = (P.y - s * (P.x - r) - t) / (u**3)
        return Point(x2, y2)

    def inverse(self) -> "CurveIso":
        u, r, s, t = self.u, self.r, self.s, self.t
        ui = u.inverse()
        return CurveIso(
            ui, -r * ui * ui, -s * ui, (r * s - t) * ui**3, self.codomain, self.domain
        )

    def compose(self, other: "CurveIso") -> "CurveIso":
        """self then other (domains must chain)."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return CurveIso(
            u1 * u2,
            u1 * u1 * r2 + r1,
            u1 * s2 + s1,
            u1**3 * t2 + s1 * u1 * u1 * r2 + t1,
            self.domain,
            other.codomain,
        )


def _transformed_coeffs(E: WeierstrassCurve, u, r, s, t):
    """Coefficients of the image curve under (u, r, s, t)."""
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    b1 = (a1 + 2 * s) / u
    b2 = (a2 - s * a1 + 3 * r - s * s) / (u * u)
    b3 = (a3 + r * a1 + 2 * t) / (u**3)
    b4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / (u**4)
    b6 = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / (u**6)
    return b1, b2, b3, b4, b6


def _iso_from(E: WeierstrassCurve, u, r, s, t) -> CurveIso:
    b1, b2, b3, b4, b6 = _transformed_coeffs(E, u, r, s, t)
    cod = WeierstrassCurve(b1, b2, b3, b4, b6)
    return CurveIso(u, r, s, t, E, cod)


def to_tate_normal(E: WeierstrassCurve, P: Point, N: int):
    """Transform (E, P) with P of order N >= 4 into the marked normal form.

    Returns (TateParams, CurveIso).  The classical three-stage construction:
    translate P to the origin, shear the tangent horizontal, then scale so
    that a2 = a3; uniqueness of the resulting (b, c) is a tested property,
    not an assumption.
    """
    E.require(P)
    if not has_order(E, P, N):
        raise ValueError(f"point does not have order {N}")
    if N < 4:
        raise ValueError("normal form needs a point of order >= 4")
    ctx = E.ctx
    iso1 = _iso_from(E, ctx.one, P.x, ctx.zero, P.y)
    E1 = iso1.codomain
    # tangent slope at the origin is a4/a3; shear it away
    iso2 = _iso_from(E1, ctx.one, ctx.zero, E1.a4 / E1.a3, ctx.zero)
    E2 = iso2.codomain
    u = E2.a3 / E2.a2
    iso3 = _iso_from(E2, u, ctx.zero, ctx.zero, ctx.zero)
    E3 = iso3.codomain
    if not (E3.a4.is_zero() and E3.a6.is_zero() and E3.a2 == E3.a3):
        raise InvariantError("normal-form transform left a4, a6 or a2 - a3 nonzero")
    b = -E3.a2
    c = ctx.one - E3.a1
    iso = iso1.compose(iso2).compose(iso3)
    if not iso.apply(P) == Point(ctx.zero, ctx.zero):
        raise InvariantError("normal-form transform does not send P to (0, 0)")
    return TateParams(b, c, N), iso


def normal_form_b(E: WeierstrassCurve) -> tuple:
    """(num, den) with b = num(x(P)) / den(x(P)) for `to_tate_normal(E, P, N)`,
    which the tests check it against.  On y^2 = f(x)/4, f = 4x^3 + b2 x^2 +
    2 b4 x + b6, moving P to (0, 0) and shearing off its tangent leave a3^2 =
    f and a2 = 3x + b2/4 - f'^2 / (16 f), and scaling to a2 = a3 gives
    b = -a2^3 / a3^2 = -(f (3x + b2/4) - f'^2/16)^3 / f^4."""
    ctx = E.ctx
    b2, b4, b6, _ = E.b_invariants()
    f = [b6, 2 * b4, b2, ctx.el(4)]
    df = poly.derivative(f, ctx)
    a2f = poly.sub(poly.mul(f, [b2 / 4, ctx.el(3)], ctx),
                   [c / 16 for c in poly.mul(df, df, ctx)], ctx)
    f_sq = poly.mul(f, f, ctx)
    return ([-c for c in poly.mul(a2f, poly.mul(a2f, a2f, ctx), ctx)],
            poly.mul(f_sq, f_sq, ctx))


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def isomorphisms(E1: WeierstrassCurve, E2: WeierstrassCurve) -> Iterator[CurveIso]:
    """All isomorphisms E1 -> E2 in canonical order of the scale factor u.

    An isomorphism of scale u sends the discriminant D to D / u^12, so its u
    is a 12th root of D(E1) / D(E2): at most gcd(12, q - 1) candidates,
    taken from `nth_roots` in canonical order.  Each u forces the rest
    (`isomorphism_with_scale`), which checks it exactly.  Nothing scans the
    field, so the search answers over any field size.  Each curve's
    b-invariants are computed once, for both its j and its Delta: j(E1) =
    j(E2) reads c4(E1)^3 Delta(E2) = c4(E2)^3 Delta(E1), with no division.
    """
    if E1.ctx != E2.ctx:
        raise ContextMismatch("isomorphism search needs a common base field")
    c4_1, disc1 = E1.c4_and_discriminant()
    c4_2, disc2 = E2.c4_and_discriminant()
    if c4_1**3 * disc2 != c4_2**3 * disc1:
        return
    for u in nth_roots(disc1 / disc2, 12):
        iso = isomorphism_with_scale(E1, E2, u)
        if iso is not None:
            yield iso


def isomorphism_with_scale(
    E1: WeierstrassCurve, E2: WeierstrassCurve, u: FieldElement
) -> Optional[CurveIso]:
    """The isomorphism E1 -> E2 with scale factor u, or None.

    The a1, a2, a3 transformation equations force (s, r, t) for p >= 5; the
    a4 and a6 equations then decide whether they give an isomorphism.
    """
    a1, a2, a3 = E1.a1, E1.a2, E1.a3
    s = (u * E2.a1 - a1) / 2
    r = (u * u * E2.a2 - a2 + s * a1 + s * s) / 3
    t = (u**3 * E2.a3 - a3 - r * a1) / 2
    b1, b2, b3, b4, b6 = _transformed_coeffs(E1, u, r, s, t)
    if b4 == E2.a4 and b6 == E2.a6:
        return CurveIso(u, r, s, t, E1, E2)
    return None


def find_isomorphism(
    E1: WeierstrassCurve,
    E2: WeierstrassCurve,
    point_map=None,
    subgroup_map=None,
) -> Optional[CurveIso]:
    """First isomorphism satisfying the optional constraint, or None.

    point_map = (P, Q) requires iso(P) = Q; subgroup_map = (list1, list2)
    requires the image of list1 to equal list2 as a set.  The candidates are
    the at most 6 isomorphisms of `isomorphisms`, so no field-size bound
    applies; the cost is that of the constraint lists.
    """
    target = set()
    if subgroup_map is not None:
        target = {(q.x.coeffs, q.y.coeffs) if not q.is_infinity else None for q in subgroup_map[1]}
    for iso in isomorphisms(E1, E2):
        if point_map is not None and iso.apply(point_map[0]) != point_map[1]:
            continue
        if subgroup_map is not None:
            image = {
                (q.x.coeffs, q.y.coeffs) if not q.is_infinity else None
                for q in (iso.apply(p) for p in subgroup_map[0])
            }
            if image != target:
                continue
        return iso
    return None
