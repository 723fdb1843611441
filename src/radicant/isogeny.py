"""Separable isogenies, given by their kernel polynomials.

An isogeny is its kernel polynomial D (monic, vanishing on the x-coordinates
of the kernel points other than O) with its rational maps: x o phi = num/D^2
by Kohel's formulas (Kohel, Endomorphism rings of elliptic curves over
finite fields, 1996, section 2.4), and y o phi from the invariant
differential, which phi keeps.  `velu` takes D from the multiples of a
kernel point, where these become Velu's sums (C. R. Acad. Sci. Paris 273,
1971).  The polynomial work runs on poly.py's raw coefficient lists.

The dual of phi of odd prime degree N is built over the base field, in
closed form: its kernel polynomial D^ follows from traces of the x-map of
phi modulo the factor of psi_N(E) prime to D, by Newton's identities
(`dual_isogeny`).  Nothing is factored, searched, enumerated or sampled, and
no extension field is built.  The candidate iso o psi, with psi the isogeny
of D^ and iso the isomorphism of scale N onto E, is then proved to be the
dual (`_verify_dual`):
  (a) ker(psi o phi) = E[N], an identity of kernel polynomials over the base
      field against psi_N; and
  (b) iso scales the invariant differential by u = N, as [N] does.
(a) gives psi o phi = lambda o [N] for an isomorphism lambda, and (b) makes
iso o lambda the automorphism with scale 1, the identity for p >= 5.
`preimages` lists the rational points over a point, of phi or of its dual,
from the rational roots of one fibre polynomial of degree N (`_x_fibre`).
A dual is a value: `distinguished_points` and `is_distinguished` take it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from . import poly
from .curve import (
    O,
    CurveIso,
    Point,
    WeierstrassCurve,
    _points_for_x,
    division_polynomial,
    has_order,
    isomorphism_with_scale,
)
from .errors import InvariantError
from .miscutil import isprime
from .poly import (
    _coeffs,
    _derivative,
    _divmod,
    _from_power_sums,
    _gcd,
    _monic,
    _mul,
    _power_traces,
    _trim,
    _zip,
)


@dataclass(frozen=True)
class Isogeny:
    """Separable normalized isogeny: x o phi = x_numerator / D^2, where D is
    the kernel polynomial; `velu` also records the kernel generator."""

    domain: WeierstrassCurve
    codomain: WeierstrassCurve
    degree: int
    kernel_polynomial: tuple  # D, monic, constant term first
    x_numerator: tuple
    kernel_generator: Optional[Point] = None

    def __call__(self, P: Point) -> Point:
        return evaluate(self, P)


def from_kernel_polynomial(
    E: WeierstrassCurve, D, kernel_generator: Optional[Point] = None
) -> Isogeny:
    """The normalized isogeny of E whose kernel polynomial is D, which must
    be monic and vanish exactly on the x-coordinates of a finite subgroup
    minus O.

    With f = (2y + a1 x + a3)^2 and T = f'/2, over the roots x_i of D,
        x o phi = x + sum_i w_i T(x_i) / (x - x_i) + f(x_i) / (x - x_i)^2,
    with weight w_i = 1/2 on the 2-torsion roots (where f vanishes), else 1.
    Over the roots of a squarefree g, sum_i h(x_i) / (x - x_i) = (h g' mod g)
    / g, and the squared terms are minus its derivative.  The codomain is
    a4 - 5t, a6 - b2 t - 7w, where x o phi = x + t/x + w/x^2 + O(x^-3).
    """
    A = _coeffs(E.ctx)
    b2, b4, b6, _ = E.b_invariants()
    f = A.reduced(A.unwrap([b6, 2 * b4, b2]) + [A.scalar(4)])
    T = A.reduced(A.unwrap([b4, b2]) + [A.scalar(6)])
    kernel = tuple(D)
    D = A.unwrap(kernel)
    d = len(D) - 1
    D2 = _gcd(D, f, A)  # the 2-torsion roots

    def over_roots(h, g):
        return _divmod(_mul(h, _derivative(g, A), A), g, A)[1]

    def sub(g, h):
        return _zip(operator.sub, g, h, A)

    R_f = over_roots(f, D)
    half = A.inverse(A.scalar(2))
    half_2torsion = [c * half for c in _mul(_divmod(D, D2, A)[0], over_roots(T, D2), A)]
    inner = sub(sub(over_roots(T, D), half_2torsion), _derivative(R_f, A))
    # rest = D^2 (x o phi - x), of degree below 2d
    rest = _zip(operator.add, _mul(D, inner, A), _mul(R_f, _derivative(D, A), A), A)
    rest += [A.zero] * (2 * d - len(rest))
    t = rest[2 * d - 1]
    w = rest[2 * d - 2] - 2 * D[d - 1] * t
    num = _zip(operator.add, [A.zero] + _mul(D, D, A), rest, A)
    t, w = A.wrap(A.reduced([t, w]))
    codomain = WeierstrassCurve(E.a1, E.a2, E.a3, E.a4 - 5 * t, E.a6 - b2 * t - 7 * w)
    degree = 2 * d + 2 - len(D2)  # two points per root, one per 2-torsion root, plus O
    return Isogeny(E, codomain, degree, kernel, tuple(A.wrap(num)), kernel_generator)


def velu(E: WeierstrassCurve, K: Point) -> Isogeny:
    """Quotient isogeny E -> E/<K> for a finite kernel generator K."""
    E.require(K)
    if K.is_infinity:
        raise ValueError("kernel generator must be a finite point")
    xs = {Q.x.coeffs: Q.x for Q in E.subgroup(K)[1:]}  # Q and -Q share a root
    return from_kernel_polynomial(E, poly.from_roots(xs.values(), E.ctx), K)


def evaluate(phi: Isogeny, P: Point) -> Point:
    """Image of P under phi (kernel points map to the identity).

    X = num(x) / D(x)^2.  phi keeps the invariant differential, so
    2Y + a1 X + a3 = X'(x) (2y + a1 x + a3), which gives Y for odd p.
    """
    E, C = phi.domain, phi.codomain
    E.require(P)
    if P.is_infinity:
        return P
    D, dD = poly.value_and_derivative(phi.kernel_polynomial, P.x)
    if D.is_zero():
        return O
    num, dnum = poly.value_and_derivative(phi.x_numerator, P.x)
    inv = D.inverse()
    inv_sq = inv * inv
    X = num * inv_sq
    slope = (dnum * D - 2 * num * dD) * inv_sq * inv
    Y = (slope * (2 * P.y + E.a1 * P.x + E.a3) - C.a1 * X - C.a3) / 2
    image = Point(X, Y)
    if not C.contains(image):
        raise InvariantError("isogeny evaluation left the codomain")
    return image


# ---------------------------------------------------------------------------
# dual isogeny
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualIsogeny:
    """Backward map with dual o phi = [N], built over the base field."""

    forward: Isogeny
    quotient: Isogeny  # codomain -> codomain/phi(E[N])
    back_iso: CurveIso  # isomorphism from the quotient codomain onto E

    domain = property(lambda self: self.quotient.domain)
    codomain = property(lambda self: self.back_iso.codomain)

    @property
    def ext_ctx(self):
        """The field the dual works over, always the base field; kept for
        readers of the former extension route (the benchmark tracer)."""
        return self.forward.domain.ctx

    def __call__(self, P: Point) -> Point:
        return self.back_iso.apply(evaluate(self.quotient, P))


def composition_kernel_polynomial(phi: Isogeny, D_psi) -> list:
    """The kernel polynomial of psi o phi, for psi's D_psi = sum c_i x^i of
    degree d: D * sum c_i num^i D^(2(d-i)) where x o phi = num / D^2, monic
    and vanishing once at each x(X), X in ker(psi o phi) - {O}."""
    A = _coeffs(phi.domain.ctx)
    num, D, D_psi = (A.unwrap(f) for f in (phi.x_numerator, phi.kernel_polynomial, D_psi))
    D_sq = _mul(D, D, A)
    # homogeneous Horner: acc_j = sum_{i >= j} c_i num^(i-j) (D^2)^(d-i)
    acc, D_sq_pow = [D_psi[-1]], [A.one]
    for c in reversed(D_psi[:-1]):
        D_sq_pow = _mul(D_sq_pow, D_sq, A)
        acc = _zip(operator.add, _mul(acc, num, A), [c * e for e in D_sq_pow], A)
    return A.wrap(_trim(_mul(D, acc, A), A.zero))


def _verify_dual(cand: "DualIsogeny", psi_N: Optional[list] = None) -> bool:
    """Exact check that cand o phi = [N] as maps, for cand = iso o psi;
    psi_N is monic(psi_N(E)) where the caller has it.

    (a) Kernel identity.  The kernel polynomial of psi o phi
    (`composition_kernel_polynomial`) equals monic(psi_N(E)) iff
    ker(psi o phi) = E[N], and then psi o phi = lambda o [N] for an
    isomorphism lambda.
    (b) Scale.  Normalized isogenies keep the invariant differential, [N]
    multiplies it by N, and iso multiplies it by its scale u.  So iso o
    lambda has scale u / N, and for p >= 5 the automorphism with scale 1 is
    the identity: cand o phi = [N] iff u = N.
    Both are identities over the base field; no point is enumerated or
    sampled.
    """
    phi = cand.forward
    if cand.back_iso.u != phi.degree:
        return False
    if psi_N is None:
        psi_N = poly.monic(division_polynomial(phi.domain, phi.degree), phi.domain.ctx)
    return composition_kernel_polynomial(phi, cand.quotient.kernel_polynomial) == psi_N


def dual_isogeny(phi: Isogeny) -> DualIsogeny:
    """The dual of phi of odd prime degree N, characterized by
    dual o phi = [N], with its kernel polynomial D^ built in closed form.

    Let g = monic(psi_N(E)) / D, of degree N(N-1)/2: its roots are the x(P)
    for P in E[N] - ker(phi), one per pair +-P, and it is prime to D.  phi
    maps E[N] onto ker(dual) with fibres the cosets of ker(phi), so it maps
    E[N] - ker(phi) onto ker(dual) - {O}, N to 1, and +-P to +-phi(P).  The
    x-map h = num / D^2 thus sends the roots of g onto the roots of D^, each
    hit N times: the characteristic polynomial of h modulo g is D^^N.  The
    power sums of the roots of D^ are therefore Tr_g(h^j) / N for
    j = 1..(N-1)/2, and Newton's identities give D^ from them, dividing by
    N and by 1..(N-1)/2 only.  The dual is iso o psi, with psi the quotient
    by D^ and iso the isomorphism of scale N onto E; `_verify_dual` proves
    it, and a rejection is a defect (InvariantError).

    Raises ValueError when N is no odd prime; when the characteristic
    divides N, as that dual is inseparable and has no kernel polynomial; and
    when the characteristic does not exceed (N-1)/2, which Newton's
    identities divide by.
    """
    E, E2, N = phi.domain, phi.codomain, phi.degree
    ctx = E.ctx
    if N == 2 or not isprime(N):
        raise ValueError(f"duals are built for odd prime degrees, not {N}")
    if N % ctx.p == 0:
        raise ValueError(
            f"characteristic {ctx.p} divides deg phi = {N}: the dual is inseparable, "
            f"so no Velu quotient has the scale u = {N} = 0 it needs"
        )
    half = (N - 1) // 2
    if ctx.p <= half:
        raise ValueError(
            f"characteristic {ctx.p} does not exceed (deg phi - 1)/2 = {half}, "
            f"which Newton's identities for the dual's kernel polynomial divide by"
        )
    A = _coeffs(ctx)
    psi_N = _monic(A.unwrap(division_polynomial(E, N)), A)
    D = A.unwrap(phi.kernel_polynomial)
    g, rem = _divmod(psi_N, D, A)
    if rem != [A.zero]:
        raise InvariantError("the kernel polynomial does not divide psi_N")
    traces = _power_traces(A.unwrap(phi.x_numerator), _mul(D, D, A), g, half, A)
    inv_N = A.inverse(A.scalar(N))
    D_hat = _from_power_sums(A.reduced([t * inv_N for t in traces]), A)
    quotient = from_kernel_polynomial(E2, A.wrap(D_hat))
    iso = isomorphism_with_scale(quotient.codomain, E, ctx.el(N))
    dual = None if iso is None else DualIsogeny(phi, quotient, iso)
    if dual is None or not _verify_dual(dual, A.wrap(psi_N)):
        raise InvariantError("the dual built from the traces fails dual o phi = [N]")
    return dual


def cached_dual(phi: Isogeny) -> DualIsogeny:
    """`dual_isogeny(phi)`; only the benchmark tracer reads it (ROADMAP item 1)."""
    return dual_isogeny(phi)


# ---------------------------------------------------------------------------
# the rational points over a point
# ---------------------------------------------------------------------------

def _x_fibre(f, x0) -> list:
    """num - x0 den for the x-map num / den of an Isogeny or a DualIsogeny f:
    monic of degree deg f, with the x(X) where x(f(X)) = x0 as its roots.
    The dual iso o psi, iso: x -> (x - r) / u^2, has psi's fibre over
    r + u^2 x0."""
    if isinstance(f, DualIsogeny):
        iso = f.back_iso
        return _x_fibre(f.quotient, iso.r + iso.u * iso.u * x0)
    A = _coeffs(x0.ctx)
    (c,) = A.unwrap([x0])
    D = A.unwrap(f.kernel_polynomial)
    return A.wrap(_zip(operator.sub, A.unwrap(f.x_numerator),
                       [c * e for e in _mul(D, D, A)], A))


def preimages(f, Q: Point) -> list:
    """The rational X with f(X) = Q, sorted by (x, y), for an Isogeny or a
    DualIsogeny f and a finite Q != -Q.  Their x are the rational roots of
    `_x_fibre(f, x(Q))`; X and -X share x and f(-X) = -f(X), so one
    evaluation per root decides which of them lies over Q."""
    E, minus_Q = f.domain, f.codomain.neg(Q)
    if Q == minus_Q:  # O included
        raise ValueError("the point must be finite and differ from its negative")
    out = []
    for x in poly.roots(_x_fibre(f, Q.x), E.ctx):
        for X in _points_for_x(E, x)[:1]:  # none where y is irrational
            image = f(X)
            if image not in (Q, minus_Q):
                raise InvariantError("a root of the fibre polynomial is off the fibre")
            out.append(X if image == Q else E.neg(X))
    return sorted(out, key=lambda P: (P.x.coeffs, P.y.coeffs))


def is_distinguished(dual: DualIsogeny, P2: Point) -> bool:
    """True when the dual sends P2 back to the kernel generator of phi = dual.forward."""
    phi = dual.forward
    phi.codomain.require(P2)
    if P2.is_infinity or not has_order(phi.codomain, P2, phi.degree):
        raise ValueError("candidate must have exact order deg(phi) on the codomain")
    return dual(P2) == phi.kernel_generator


def distinguished_points(dual: DualIsogeny) -> list:
    """The rational P' with dual(P') = K, the kernel generator of phi =
    dual.forward; each has order N, as [N]P' = phi(dual(P')) = phi(K) = O."""
    return preimages(dual, dual.forward.kernel_generator)


def points_above(E: WeierstrassCurve, P: Point) -> list:
    """The rational R with [N]R = P for P of odd prime order N, sorted by
    (x, y): as [N] = dual o phi for phi = velu(E, P), phi's points over the
    dual's points over P.  At most one of +-R lies over P, so this is the
    order of `enumerate_points`."""
    phi = velu(E, P)
    above = [R for X in preimages(dual_isogeny(phi), P) for R in preimages(phi, X)]
    return sorted(above, key=lambda R: (R.x.coeffs, R.y.coeffs))
