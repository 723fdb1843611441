"""Separable isogenies with cyclic kernel via Velu's formulas.

The dual is built constructively: its kernel is the image of the full
N-torsion under the forward map, realized either by the rational order-N
subgroups of the codomain (read off the roots of the division polynomial
psi_N) or, when none of those is that image, by sampling an N-torsion basis
over a small extension.  A candidate iso o psi, with psi a Velu quotient of
the codomain, is the dual exactly when
  (a) ker(psi o phi) = E[N], an identity of kernel polynomials over the base
      field against psi_N; and
  (b) iso scales the invariant differential by u = N, as [N] does.
(a) gives psi o phi = lambda o [N] for an isomorphism lambda, and (b) makes
iso o lambda the automorphism with scale 1, the identity for p >= 5.  The
check enumerates and samples no points.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import poly
from .curve import (
    CurveIso,
    Point,
    WeierstrassCurve,
    base_change,
    descend_curve,
    descend_point,
    division_polynomial,
    enumerate_points,
    enum_bound,
    full_torsion_degree,
    has_order,
    isomorphism_with_scale,
    lift_point,
    points_of_order,
)
from .errors import RadicantError, TorsionUnavailable


@dataclass(frozen=True)
class Isogeny:
    """Separable isogeny with cyclic kernel, in Velu form."""

    domain: WeierstrassCurve
    codomain: WeierstrassCurve
    kernel_generator: Point
    degree: int
    kernel_points: tuple  # all non-infinity kernel points

    def __call__(self, P: Point) -> Point:
        return evaluate(self, P)


def _velu_terms(E: WeierstrassCurve, kernel) -> list:
    """Velu's per-point data (x_Q, t_Q, u_Q), one entry per kernel point up
    to sign; `velu` sums it for the codomain and `_x_map` for x o phi."""
    a1, a2, a3, a4 = E.a1, E.a2, E.a3, E.a4
    terms = []
    seen = set()
    for Q in kernel:
        key = Q.x.coeffs
        if key in seen:
            continue
        gx = 3 * Q.x * Q.x + 2 * a2 * Q.x + a4 - a1 * Q.y
        gy = -2 * Q.y - a1 * Q.x - a3
        if Q == E.neg(Q):  # two-torsion point
            tQ = gx
        else:
            tQ = 2 * gx - a1 * gy
            seen.add(key)
        terms.append((Q.x, tQ, gy * gy))
    return terms


def velu(E: WeierstrassCurve, K: Point) -> Isogeny:
    """Quotient isogeny E -> E/<K> for a finite kernel generator K."""
    E.require(K)
    if K.is_infinity:
        raise ValueError("kernel generator must be a finite point")
    kernel = []
    Q = K
    while not Q.is_infinity:
        kernel.append(Q)
        Q = E.add(Q, K)
    n = len(kernel) + 1
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    b2 = a1 * a1 + 4 * a2
    t_acc = E.ctx.zero
    w_acc = E.ctx.zero
    for xQ, tQ, uQ in _velu_terms(E, kernel):
        t_acc = t_acc + tQ
        w_acc = w_acc + uQ + xQ * tQ
    codomain = WeierstrassCurve(a1, a2, a3, a4 - 5 * t_acc, a6 - b2 * t_acc - 7 * w_acc)
    return Isogeny(E, codomain, K, n, tuple(kernel))


def _x_map(phi: Isogeny):
    """(num, D) with x o phi = num / D^2, where D is the kernel polynomial.

    Velu: x o phi = x + sum over Q of t_Q / (x - x_Q) + u_Q / (x - x_Q)^2.
    """
    ctx = phi.domain.ctx
    terms = _velu_terms(phi.domain, phi.kernel_points)
    D = [ctx.one]
    for xQ, _, _ in terms:
        D = poly.mul(D, [-xQ, ctx.one], ctx)
    num = poly.mul([ctx.zero, ctx.one], poly.mul(D, D, ctx), ctx)
    for xQ, tQ, uQ in terms:
        rest = poly.divmod_(D, [-xQ, ctx.one], ctx)[0]
        term = poly.mul([uQ - tQ * xQ, tQ], poly.mul(rest, rest, ctx), ctx)
        num = poly.add(num, term, ctx)
    return num, D


def evaluate(phi: Isogeny, P: Point) -> Point:
    """Image of P under phi (kernel points map to the identity)."""
    E = phi.domain
    E.require(P)
    if P.is_infinity:
        return P
    for Q in phi.kernel_points:
        if P == Q:
            return Point.infinity()
    x_acc = P.x
    y_acc = P.y
    for Q in phi.kernel_points:
        R = E.add(P, Q)
        x_acc = x_acc + R.x - Q.x
        y_acc = y_acc + R.y - Q.y
    image = Point(x_acc, y_acc)
    if not phi.codomain.contains(image):
        raise RadicantError("isogeny evaluation left the codomain")
    return image


# ---------------------------------------------------------------------------
# dual isogeny
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualIsogeny:
    """Backward map with dual o phi = [N], possibly routed via an extension."""

    forward: Isogeny
    quotient: Isogeny  # codomain/<image of E[N]>, over the working field
    back_iso: CurveIso  # isomorphism from the quotient codomain onto E
    ext_ctx: object  # FieldCtx of the working field (may equal the base)
    # the rational order-N points of forward.codomain, as dual_isogeny found
    # them; distinguished_points reads them instead of solving psi_N again
    codomain_torsion: tuple = ()

    def __call__(self, P: Point) -> Point:
        E = self.forward.domain
        base = E.ctx
        if self.ext_ctx == base:
            return self.back_iso.apply(evaluate(self.quotient, P))
        lifted = lift_point(P, self.ext_ctx)
        img = evaluate(self.quotient, lifted)
        return self.back_iso.apply(descend_point(img, base))


def _verify_dual(cand: "DualIsogeny") -> bool:
    """Exact check that cand o phi = [N] as maps, for cand = iso o psi.

    (a) Kernel identity.  With x o phi = num / D^2 and psi's kernel
    polynomial D_psi = sum c_i x^i of degree d,
        D * sum c_i num^i D^(2(d-i))
    vanishes exactly on the x-coordinates of ker(psi o phi) - {O}, each once.
    It is monic, so it equals monic(psi_N(E)) iff ker(psi o phi) = E[N],
    and then psi o phi = lambda o [N] for an isomorphism lambda.
    (b) Scale.  Velu maps keep the invariant differential, [N] multiplies it
    by N, and iso multiplies it by its scale u.  So iso o lambda has scale
    u / N, and for p >= 5 the automorphism with scale 1 is the identity:
    cand o phi = [N] iff u = N.
    Both are identities over the base field; no point is enumerated or
    sampled.
    """
    phi = cand.forward
    E = phi.domain
    base = E.ctx
    if cand.back_iso.u != phi.degree:
        return False
    D_psi = _x_map(cand.quotient)[1]
    if cand.ext_ctx != base:
        # the dual kernel phi(E[N]) is Galois-stable, so its D_psi descends
        try:
            D_psi = [cand.ext_ctx.descend(c, base) for c in D_psi]
        except ValueError:
            return False
    num, D = _x_map(phi)
    D_sq = poly.mul(D, D, base)
    # homogeneous Horner: acc_j = sum_{i >= j} c_i num^(i-j) (D^2)^(d-i)
    acc, D_sq_pow = [D_psi[-1]], [base.one]
    for c in reversed(D_psi[:-1]):
        D_sq_pow = poly.mul(D_sq_pow, D_sq, base)
        acc = poly.add(poly.mul(acc, num, base), [c * e for e in D_sq_pow], base)
    kernel_poly = poly.trim(poly.mul(D, acc, base), base)
    return kernel_poly == poly.monic(division_polynomial(E, phi.degree), base)


def _candidate(phi: Isogeny, psi: Isogeny, ext_ctx, torsion: tuple):
    """iso o psi with iso of scale u = N onto the domain, or None.

    Only that scale can close psi o phi to [N] (see `_verify_dual`), and it
    forces the rest of iso, so no other isomorphism is tried.
    """
    E = phi.domain
    base = E.ctx
    quotient_codomain = psi.codomain
    if ext_ctx != base:
        try:
            quotient_codomain = descend_curve(psi.codomain, base)
        except ValueError:
            return None
    iso = isomorphism_with_scale(quotient_codomain, E, base.el(phi.degree))
    return None if iso is None else DualIsogeny(phi, psi, iso, ext_ctx, torsion)


def dual_isogeny(phi: Isogeny) -> DualIsogeny:
    """The dual of phi, characterized by dual o phi = [deg phi].

    Raises ValueError when the characteristic divides deg phi: that dual is
    inseparable, so it is no Velu quotient.
    """
    E, E2, N = phi.domain, phi.codomain, phi.degree
    p = E.ctx.p
    if N % p == 0:
        raise ValueError(
            f"characteristic {p} divides deg phi = {N}: the dual is inseparable, "
            f"so no Velu quotient has the scale u = {N} = 0 it needs"
        )
    # rational route: the dual kernel is often pointwise rational (it always
    # is when q = 1 mod N and the forward kernel is rational)
    torsion = tuple(points_of_order(E2, N))
    seen_subgroups = set()
    for K in torsion:
        sub = frozenset(
            (Q.x.coeffs, Q.y.coeffs) for Q in E2.subgroup(K) if not Q.is_infinity
        )
        if sub in seen_subgroups:
            continue
        seen_subgroups.add(sub)
        cand = _candidate(phi, velu(E2, K), E2.ctx, torsion)
        if cand is not None and _verify_dual(cand):
            return cand
    # extension route: push a full torsion basis through phi
    if E.ctx.k != 1:
        raise TorsionUnavailable("dual construction needs a prime base field")
    d, ext, (Q1, Q2) = full_torsion_degree(E, N)
    Ee = base_change(E, ext)
    phi_ext = velu(Ee, lift_point(phi.kernel_generator, ext))
    for Q in (Q1, Q2, Ee.add(Q1, Q2)):
        K = evaluate(phi_ext, Q)
        if K.is_infinity:
            continue
        cand = _candidate(phi, velu(base_change(E2, ext), K), ext, torsion)
        if cand is not None and _verify_dual(cand):
            return cand
    raise RadicantError("failed to construct the dual isogeny")


_DUAL_CACHE: dict = {}


def cached_dual(phi: Isogeny) -> DualIsogeny:
    key = (phi.domain, phi.kernel_generator)
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
    """All order-N points P' on the codomain with dual(P') = kernel generator.

    Searches the rational points first; if none qualify the search widens to
    the smallest extension containing the full N-torsion of the codomain.
    """
    N = phi.degree
    E2 = phi.codomain
    dual = cached_dual(phi)
    # the dual carries the rational order-N points of E2 it was built from
    out = [P2 for P2 in dual.codomain_torsion if dual(P2) == phi.kernel_generator]
    if out:
        return sorted(out, key=lambda P: (P.x.coeffs, P.y.coeffs))
    # no rational hits: realize the N-torsion of the codomain over an
    # extension and test every order-N combination there
    d, ext, (Q1, Q2) = full_torsion_degree(E2, N)
    E2e = base_change(E2, ext)
    target = lift_point(phi.kernel_generator, ext)
    quotient, back_iso = _dual_over(dual, ext)
    found = []
    for i in range(N):
        for j in range(N):
            if i == 0 and j == 0:
                continue
            P2 = E2e.add(E2e.mul(i, Q1), E2e.mul(j, Q2))
            if not has_order(E2e, P2, N):
                continue
            if back_iso.apply(evaluate(quotient, P2)) == target:
                found.append(P2)
    return sorted(found, key=lambda P: (P.x.coeffs, P.y.coeffs))


def _lift_iso(iso: CurveIso, ext) -> CurveIso:
    return CurveIso(
        ext.embed(iso.u),
        ext.embed(iso.r),
        ext.embed(iso.s),
        ext.embed(iso.t),
        base_change(iso.domain, ext),
        base_change(iso.codomain, ext),
    )


def _dual_over(dual: DualIsogeny, ext) -> tuple:
    """(quotient, back_iso) of the dual, both over the extension ext."""
    base = dual.forward.domain.ctx
    if dual.ext_ctx == base:
        quotient = velu(
            base_change(dual.quotient.domain, ext),
            lift_point(dual.quotient.kernel_generator, ext),
        )
    elif dual.ext_ctx == ext:
        quotient = dual.quotient
    else:
        raise TorsionUnavailable("dual working field mismatch")
    return quotient, _lift_iso(dual.back_iso, ext)


# ---------------------------------------------------------------------------
# composition kernels
# ---------------------------------------------------------------------------

def composition_kernel(phi: Isogeny, psi: Isogeny, max_degree: int = 3) -> list:
    """All points of ker(psi o phi), searched over growing extensions.

    The composition is separable of degree deg(phi) * deg(psi), so the search
    stops as soon as that many points (including O) are found.
    """
    from .field import make_field

    E = phi.domain
    expected = phi.degree * psi.degree
    for d in range(1, max_degree + 1):
        ext = E.ctx if d == 1 else make_field(E.ctx.p, d)
        if ext.q > enum_bound():
            break
        Ee = base_change(E, ext)
        phi_e = velu(Ee, lift_point(phi.kernel_generator, ext))
        psi_e = velu(
            base_change(psi.domain, ext), lift_point(psi.kernel_generator, ext)
        )
        kernel = [P for P in enumerate_points(Ee)
                  if evaluate(psi_e, evaluate(phi_e, P)).is_infinity]
        if len(kernel) == expected:
            return kernel
    raise TorsionUnavailable(
        "composition kernel not rational within the extension bound"
    )


def kernel_is_cyclic(kernel: list, E: WeierstrassCurve, order: int) -> bool:
    """True when some kernel point has the full composite order."""
    return any(
        not P.is_infinity and has_order(E, P, order)
        for P in kernel
    )
