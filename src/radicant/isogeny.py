"""Separable isogenies, given by their kernel polynomials.

An isogeny is its kernel polynomial D (monic, vanishing on the x-coordinates
of the kernel points other than O) with its rational maps: x o phi = num/D^2
by Kohel's formulas (Kohel, Endomorphism rings of elliptic curves over
finite fields, 1996, section 2.4), and y o phi from the invariant
differential, which phi keeps.  `velu` takes D from the multiples of a
kernel point, where these become Velu's sums (C. R. Acad. Sci. Paris 273,
1971).

The dual of phi of odd prime degree N is built over the base field: its
kernel phi(E[N]) is Galois-stable, so its kernel polynomial is a
degree-(N-1)/2 divisor of psi_N of the codomain.  A candidate iso o psi,
with psi the isogeny of such a divisor, is the dual exactly when
  (a) ker(psi o phi) = E[N], an identity of kernel polynomials over the base
      field against psi_N; and
  (b) iso scales the invariant differential by u = N, as [N] does.
(a) gives psi o phi = lambda o [N] for an isomorphism lambda, and (b) makes
iso o lambda the automorphism with scale 1, the identity for p >= 5.  The
check enumerates and samples no points, and no extension field is built;
nor does `distinguished_points`, which lists the rational points only.
"""

from __future__ import annotations

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
from .errors import RadicantError
from .miscutil import isprime


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
    ctx = E.ctx
    b2, b4, b6, _ = E.b_invariants()
    f = [b6, 2 * b4, b2, ctx.el(4)]
    T = [b4, b2, ctx.el(6)]
    d = len(D) - 1
    D2 = poly.gcd(D, f, ctx)  # the 2-torsion roots

    def over_roots(h, g):
        return poly.divmod_(poly.mul(h, poly.derivative(g, ctx), ctx), g, ctx)[1]

    dD = poly.derivative(D, ctx)
    R_f = over_roots(f, D)
    half_2torsion = poly.mul(poly.divmod_(D, D2, ctx)[0], over_roots(T, D2), ctx)
    inner = poly.sub(poly.sub(over_roots(T, D), [c / 2 for c in half_2torsion], ctx),
                     poly.derivative(R_f, ctx), ctx)
    # rest = D^2 (x o phi - x), of degree below 2d
    rest = poly.add(poly.mul(D, inner, ctx), poly.mul(R_f, dD, ctx), ctx)
    rest += [ctx.zero] * (2 * d - len(rest))
    t = rest[2 * d - 1]
    w = rest[2 * d - 2] - 2 * D[d - 1] * t
    num = poly.add(poly.mul([ctx.zero, ctx.one], poly.mul(D, D, ctx), ctx), rest, ctx)
    codomain = WeierstrassCurve(E.a1, E.a2, E.a3, E.a4 - 5 * t, E.a6 - b2 * t - 7 * w)
    degree = 2 * d + 2 - len(D2)  # two points per root, one per 2-torsion root, plus O
    return Isogeny(E, codomain, degree, tuple(D), tuple(num), kernel_generator)


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
        raise RadicantError("isogeny evaluation left the codomain")
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
    # the rational order-N points of forward.codomain, as dual_isogeny found
    # them; the distinguished points are read off them, not off psi_N again
    codomain_torsion: tuple = ()

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
    base = phi.domain.ctx
    num, D = phi.x_numerator, phi.kernel_polynomial
    D_sq = poly.mul(D, D, base)
    # homogeneous Horner: acc_j = sum_{i >= j} c_i num^(i-j) (D^2)^(d-i)
    acc, D_sq_pow = [D_psi[-1]], [base.one]
    for c in reversed(D_psi[:-1]):
        D_sq_pow = poly.mul(D_sq_pow, D_sq, base)
        acc = poly.add(poly.mul(acc, num, base), [c * e for e in D_sq_pow], base)
    return poly.trim(poly.mul(D, acc, base), base)


def _verify_dual(cand: "DualIsogeny") -> bool:
    """Exact check that cand o phi = [N] as maps, for cand = iso o psi.

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
    kernel_poly = composition_kernel_polynomial(phi, cand.quotient.kernel_polynomial)
    return kernel_poly == poly.monic(division_polynomial(phi.domain, phi.degree),
                                     phi.domain.ctx)


def _dual_kernels(E2: WeierstrassCurve, N: int, psi, roots: list):
    """Kernel polynomials of Galois-stable subgroups of order N of E2.

    The doubling map delta(x) = x([2]P) permutes the roots of psi_N.  For
    N = 5 a subgroup <P> has the x-coordinates x(P) and delta(x(P)): two
    rational roots, or the roots of an irreducible quadratic factor on which
    Frobenius acts as doubling, which then divides delta(x) - x^q.  In
    general: a delta-orbit of (N-1)/2 rational roots, or an irreducible
    factor of degree (N-1)/2 on which Frobenius is a power of delta; these
    are all the subgroups when (N-1)/2 is 1 or prime and 2 generates
    (Z/N)^x / {+-1}, as for N = 3, 5, 7, 11.  The others are sought only
    when no rational candidate is the dual.
    """
    ctx = E2.ctx
    b2, b4, b6, b8 = E2.b_invariants()
    dbl_num = [-b8, -2 * b6, -b4, ctx.zero, ctx.one]
    dbl_den = [b6, 2 * b4, b2, ctx.el(4)]
    half = (N - 1) // 2
    seen = set()
    for x0 in roots:
        orbit = [x0]
        while (r := poly.value_and_derivative(dbl_num, orbit[-1])[0]
               / poly.value_and_derivative(dbl_den, orbit[-1])[0]) != x0:
            orbit.append(r)
        key = frozenset(r.coeffs for r in orbit)
        if len(orbit) == half and key not in seen:
            seen.add(key)
            yield poly.from_roots(orbit, ctx)
    frob = [ctx.zero, ctx.one]
    for _ in range(half - 1):
        frob = poly.powmod(frob, ctx.q, psi, ctx)  # x^(q^j) mod psi_N
        # the roots r of psi_N with delta(r) = r^(q^j)
        stable = poly.gcd(psi, poly.sub(dbl_num, poly.mul(frob, dbl_den, ctx), ctx), ctx)
        if len(stable) > 1:
            yield from (g for g in poly.factors(stable, ctx, half) if len(g) - 1 == half)


def dual_isogeny(phi: Isogeny) -> DualIsogeny:
    """The dual of phi of odd prime degree N, characterized by
    dual o phi = [N].

    Raises ValueError when N is no odd prime, and when the characteristic
    divides N: that dual is inseparable, so it has no kernel polynomial.
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
    psi = division_polynomial(E2, N)
    roots = poly.roots(psi, ctx)
    torsion = tuple(P for x in roots for P in _points_for_x(E2, x))
    for D in _dual_kernels(E2, N, psi, roots):
        quotient = from_kernel_polynomial(E2, D)
        iso = isomorphism_with_scale(quotient.codomain, E, ctx.el(N))
        if iso is not None:
            cand = DualIsogeny(phi, quotient, iso, torsion)
            if _verify_dual(cand):
                return cand
    raise RadicantError("failed to construct the dual isogeny")


_DUAL_CACHE: dict = {}


def cached_dual(phi: Isogeny) -> DualIsogeny:
    key = (phi.domain, phi.kernel_polynomial)
    if key not in _DUAL_CACHE:
        if len(_DUAL_CACHE) > 64:
            _DUAL_CACHE.clear()
        _DUAL_CACHE[key] = dual_isogeny(phi)
    return _DUAL_CACHE[key]


# ---------------------------------------------------------------------------
# distinguished points
# ---------------------------------------------------------------------------

def is_distinguished(phi: Isogeny, P2: Point) -> bool:
    """True when the dual sends P2 back to the kernel generator itself."""
    phi.codomain.require(P2)
    N = phi.degree
    if P2.is_infinity or not has_order(phi.codomain, P2, N):
        raise ValueError("candidate must have exact order deg(phi) on the codomain")
    return cached_dual(phi)(P2) == phi.kernel_generator


def distinguished_points(phi: Isogeny) -> list:
    """The rational order-N points P' on the codomain with dual(P') = kernel
    generator; points over an extension are not searched.

    P' and -P' share x, and dual(-P') = -dual(P'); the generator K has odd
    order, so K != -K and one evaluation per pair decides both points.
    """
    dual = cached_dual(phi)
    K = phi.kernel_generator
    minus_K = phi.domain.neg(K)
    # the dual carries the rational order-N points of E2 it was built from
    pairs = {P2.x.coeffs: P2 for P2 in dual.codomain_torsion}
    out = []
    for P2 in pairs.values():
        image = dual(P2)
        if image == K:
            out.append(P2)
        elif image == minus_K:
            out.append(phi.codomain.neg(P2))
    return sorted(out, key=lambda P: (P.x.coeffs, P.y.coeffs))
