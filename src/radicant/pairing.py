"""Miller functions, reduced Tate pairing, Weil pairing, and the radicand.

Miller functions are normalized to be monic with respect to the uniformizer
x/y at infinity.  Under that convention the usual loop with lines written
as  y - lambda*x - nu  and verticals  x - x0  needs no correction factor.

Evaluation tracks a formal leading term at the evaluation point: each line
factor is either a plain value or (lc, ord) data of its local expansion, so
legitimate zero/pole cancellations between loop factors (which occur, for
example, when evaluating f_{N,P} at -P) are handled exactly.
"""

from __future__ import annotations

from .curve import (
    Point,
    TateParams,
    WeierstrassCurve,
    _points_for_x,
    has_order,
)
from .errors import DegenerateParams, InvariantError, SupportCollision
from .field import FieldElement

_SHIFT_SCAN_LIMIT = 500  # candidate auxiliary points tried for divisor shifts


class _LocalValue:
    """Leading coefficient and vanishing order at a fixed evaluation point."""

    __slots__ = ("c", "ord")

    def __init__(self, c: FieldElement, ord_: int):
        if c.is_zero():
            raise SupportCollision("leading coefficient vanished")
        self.c = c
        self.ord = ord_

    def __mul__(self, other):
        return _LocalValue(self.c * other.c, self.ord + other.ord)

    def __truediv__(self, other):
        return _LocalValue(self.c / other.c, self.ord - other.ord)

    def square(self):
        return _LocalValue(self.c * self.c, 2 * self.ord)


def _curve_slope(E: WeierstrassCurve, Q: Point) -> FieldElement:
    den = 2 * Q.y + E.a1 * Q.x + E.a3
    if den.is_zero():
        raise SupportCollision("evaluation at a ramified (two-torsion) point")
    return (3 * Q.x * Q.x + 2 * E.a2 * Q.x + E.a4 - E.a1 * Q.y) / den


def _curve_half_curvature(E: WeierstrassCurve, Q: Point) -> FieldElement:
    """y''(Q)/2 for the local branch y(x) through Q (implicit derivatives)."""
    fy = 2 * Q.y + E.a1 * Q.x + E.a3
    s1 = _curve_slope(E, Q)
    # F(x,y) = y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6
    fxx = -6 * Q.x - 2 * E.a2
    fxy = E.a1
    fyy = E.a1.ctx.el(2)
    ypp = -(fxx + 2 * fxy * s1 + fyy * s1 * s1) / fy
    return ypp / 2


def _eval_chord(E, lam, nu, Q: Point) -> _LocalValue:
    """Value of y - lam*x - nu at Q, as local data w.r.t. u = x - x_Q.

    A line through Q vanishes to order 1 generically, and to order 2 when it
    is the tangent at Q (possible mid-loop when Q lies in the base point's
    subgroup); the second-order coefficient comes from the curvature of the
    local branch.
    """
    val = Q.y - lam * Q.x - nu
    if not val.is_zero():
        return _LocalValue(val, 0)
    lc = _curve_slope(E, Q) - lam
    if not lc.is_zero():
        return _LocalValue(lc, 1)
    s2 = _curve_half_curvature(E, Q)
    if s2.is_zero():
        raise SupportCollision("line meets the evaluation point to order > 2")
    return _LocalValue(s2, 2)


def _eval_vertical(E, x0: FieldElement, Q: Point) -> _LocalValue:
    val = Q.x - x0
    if not val.is_zero():
        return _LocalValue(val, 0)
    _curve_slope(E, Q)  # raises on two-torsion, where ord would be 2
    return _LocalValue(Q.x.ctx.one, 1)


def _line_factors(E: WeierstrassCurve, T: Point, S: Point, Q: Point):
    """(numerator, denominator) local values for the Miller step T, S -> T+S."""
    one = _LocalValue(Q.x.ctx.one, 0)
    if T.is_infinity and S.is_infinity:
        return one, one
    if T.is_infinity or S.is_infinity:
        fin = S if T.is_infinity else T
        return _eval_vertical(E, fin.x, Q), one
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    if T.x == S.x and (T.y + S.y + a1 * T.x + a3).is_zero():
        # chord is vertical; T + S = O and the O-vertical is the constant 1
        return _eval_vertical(E, T.x, Q), one
    if T == S:
        den = 2 * T.y + a1 * T.x + a3
        lam = (3 * T.x * T.x + 2 * a2 * T.x + a4 - a1 * T.y) / den
        nu = (-(T.x**3) + a4 * T.x + 2 * a6 - a3 * T.y) / den
    else:
        lam = (S.y - T.y) / (S.x - T.x)
        nu = (T.y * S.x - S.y * T.x) / (S.x - T.x)
    R = E.add(T, S)
    num = _eval_chord(E, lam, nu, Q)
    if R.is_infinity:
        return num, one
    return num, _eval_vertical(E, R.x, Q)


def _miller_raw(E: WeierstrassCurve, P: Point, Q: Point, N: int) -> FieldElement:
    """Normalized f_{N,P}(Q) for [N]P = O, via double-and-add."""
    if Q.is_infinity:
        raise SupportCollision("cannot evaluate at the base point of the divisor")
    if P.is_infinity:
        return Q.x.ctx.one
    f = _LocalValue(Q.x.ctx.one, 0)
    T = P
    for bit in bin(N)[3:]:
        num, den = _line_factors(E, T, T, Q)
        f = f.square() * num / den
        T = E.add(T, T)
        if bit == "1":
            num, den = _line_factors(E, T, P, Q)
            f = f * num / den
            T = E.add(T, P)
    if f.ord != 0:
        raise SupportCollision("evaluation point lies in the divisor support")
    return f.c


def miller(E: WeierstrassCurve, P: Point, Q: Point, N: int) -> FieldElement:
    """Normalized Miller function f_{N,P} evaluated at Q.

    Requires P of exact order N and Q outside {P, O}.
    """
    E.require(P)
    E.require(Q)
    if not has_order(E, P, N):
        raise ValueError("base point does not have the stated order")
    if Q.is_infinity or Q == P:
        raise SupportCollision("evaluation point collides with the divisor")
    return _miller_raw(E, P, Q, N)


def _point_candidates(E: WeierstrassCurve, limit: int = _SHIFT_SCAN_LIMIT):
    """Finite points in canonical x order, without full enumeration."""
    count = 0
    for x in E.ctx.elements():
        for pt in _points_for_x(E, x):
            yield pt
            count += 1
            if count >= limit:
                return


def tate_reduced(E: WeierstrassCurve, P: Point, Q: Point, N: int) -> FieldElement:
    """Reduced Tate pairing t_N(P, Q)^((q-1)/N), a value in mu_N.

    Evaluated on the shifted divisor (Q + U) - (U), which is linearly
    equivalent to (Q) - (O) with support disjoint from {P, O}.
    """
    q = E.ctx.q
    if (q - 1) % N != 0:
        raise ValueError(f"N = {N} does not divide q - 1 = {q - 1}")
    E.require(P)
    E.require(Q)
    if not has_order(E, P, N):
        raise ValueError("first argument must have exact order N")
    exp = (q - 1) // N
    for U in _point_candidates(E):
        QU = E.add(Q, U)
        if QU.is_infinity or QU == P or U == P:
            continue
        try:
            val = _miller_raw(E, P, QU, N) / _miller_raw(E, P, U, N)
        except SupportCollision:
            continue
        return val**exp
    raise SupportCollision("no valid divisor shift found")


def weil(E: WeierstrassCurve, S: Point, T: Point, N: int) -> FieldElement:
    """Weil pairing e_N(S, T) for S, T in E[N].

    e_N(S, T) = f_{D_S}(D_T) / f_{D_T}(D_S) with D_S = (S) - (O) and the
    shifted D_T = (T + U) - (U), whose function is f_{N,T}(X - U) up to a
    constant.  So e = [f_{N,S}(T + U) / f_{N,S}(U)] * [f_{N,T}(-U) /
    f_{N,T}(S - U)], and the supports are disjoint when U is none of O, S,
    -T and S - T.
    """
    E.require(S)
    E.require(T)
    if not E.mul(N, S).is_infinity or not E.mul(N, T).is_infinity:
        raise ValueError("both arguments must be N-torsion points")
    one = E.ctx.one
    if S.is_infinity or T.is_infinity:
        return one
    for U in _point_candidates(E):
        negU = E.neg(U)
        TU, SU = E.add(T, U), E.add(S, negU)
        if U == S or TU.is_infinity or TU == S:
            continue
        try:
            e = (_miller_raw(E, S, TU, N) / _miller_raw(E, S, U, N)
                 * _miller_raw(E, T, negU, N) / _miller_raw(E, T, SU, N))
        except SupportCollision:
            continue
        if not e**N == one:
            raise InvariantError("Weil value is not an N-th root of unity")
        return e
    raise SupportCollision("no valid divisor shift found for the Weil pairing")


def radicand(tp: TateParams) -> FieldElement:
    """Representative of t_N(P, -P) driving the radical step; equals b when
    N = 5."""
    if tp.N != 5:
        raise ValueError("closed-form radicand is only available for degree 5")
    if tp.b.is_zero():
        raise DegenerateParams("b = 0 is a degenerate parameter")
    return tp.b
