"""Separable isogenies with cyclic kernel via Velu's formulas.

The dual is built constructively: its kernel is the image of the full
N-torsion under the forward map, realized either by scanning the rational
order-N subgroups of the codomain or, when those do not suffice, by
sampling an N-torsion basis over a small extension.  Candidate duals are
pinned down by the defining relation  dual o phi = [N],  which determines
the dual uniquely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .curve import (
    CurveIso,
    Point,
    WeierstrassCurve,
    base_change,
    descend_curve,
    descend_point,
    enumerate_points,
    enum_bound,
    full_torsion_degree,
    group_order,
    has_order,
    isomorphisms,
    lift_point,
    point_order,
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
        uQ = gy * gy
        t_acc = t_acc + tQ
        w_acc = w_acc + uQ + Q.x * tQ
    codomain = WeierstrassCurve(a1, a2, a3, a4 - 5 * t_acc, a6 - b2 * t_acc - 7 * w_acc)
    return Isogeny(E, codomain, K, n, tuple(kernel))


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

    def __call__(self, P: Point) -> Point:
        E = self.forward.domain
        base = E.ctx
        if self.ext_ctx == base:
            return self.back_iso.apply(evaluate(self.quotient, P))
        lifted = lift_point(P, self.ext_ctx)
        img = evaluate(self.quotient, lifted)
        return self.back_iso.apply(descend_point(img, base))


def _verify_dual(cand: "DualIsogeny") -> bool:
    """Exact check that cand o phi = [N] as maps.

    The difference of two isogenies E -> E of degree N^2 is a homomorphism
    whose kernel has at most 4 N^2 elements, so agreement on points whose
    orders have lcm above that bound proves equality of the maps.  A point
    with [lcm]X = O has order dividing the lcm and leaves it unchanged, so
    its order is computed only when [lcm]X != O.
    """
    import math as _math

    phi = cand.forward
    E = phi.domain
    N = phi.degree
    bound = 4 * N * N
    lcm_acc = 1
    # rational evidence first
    n1 = group_order(E)
    for X in enumerate_points(E):
        if X.is_infinity:
            continue
        if cand(evaluate(phi, X)) != E.mul(N, X):
            return False
        if not E.mul(lcm_acc, X).is_infinity:
            lcm_acc = _math.lcm(lcm_acc, point_order(E, X, n1))
            if lcm_acc > bound:
                return True
    # the rational group has small exponent: escalate to extension sampling
    from .curve import _rng_for, order_over_extension, random_point
    from .field import make_field

    base = E.ctx
    if base.k != 1:
        return False
    d = 2 if cand.ext_ctx == base else cand.ext_ctx.k
    while order_over_extension(E, d) <= bound:
        d += 1
    ext = make_field(base.p, d) if cand.ext_ctx == base else cand.ext_ctx
    n_ext = order_over_extension(E, ext.k)
    Ee = base_change(E, ext)
    phi_e = velu(Ee, lift_point(phi.kernel_generator, ext))
    rng = _rng_for(E, f"dualcheck:{N}")
    for _ in range(80):
        X = random_point(Ee, rng)
        if _dual_eval_ext(phi, evaluate(phi_e, X), ext, cand) != Ee.mul(N, X):
            return False
        if not Ee.mul(lcm_acc, X).is_infinity:
            lcm_acc = _math.lcm(lcm_acc, point_order(Ee, X, n_ext))
            if lcm_acc > bound:
                return True
    return False


def _candidates(phi: Isogeny, psi: Isogeny, ext_ctx):
    """Dual candidates closing psi o phi up to isomorphism onto the domain."""
    E = phi.domain
    base = E.ctx
    if ext_ctx == base:
        quotient_codomain = psi.codomain
    else:
        try:
            quotient_codomain = descend_curve(psi.codomain, base)
        except ValueError:
            return
    for iso in isomorphisms(quotient_codomain, E):
        yield DualIsogeny(phi, psi, iso, ext_ctx)


def dual_isogeny(phi: Isogeny) -> DualIsogeny:
    """The dual of phi, characterized by dual o phi = [deg phi]."""
    E, E2, N = phi.domain, phi.codomain, phi.degree
    # rational route: the dual kernel is often pointwise rational (it always
    # is when q = 1 mod N and the forward kernel is rational)
    if E2.ctx.q <= enum_bound():
        seen_subgroups = set()
        for K in points_of_order(E2, N):
            sub = frozenset(
                (Q.x.coeffs, Q.y.coeffs) for Q in E2.subgroup(K) if not Q.is_infinity
            )
            if sub in seen_subgroups:
                continue
            seen_subgroups.add(sub)
            for cand in _candidates(phi, velu(E2, K), E2.ctx):
                if _verify_dual(cand):
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
        for cand in _candidates(phi, velu(base_change(E2, ext), K), ext):
            if _verify_dual(cand):
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
    # points_of_order already checked order N; the dual is built on first use
    out = [P2 for P2 in points_of_order(E2, N)
           if cached_dual(phi)(P2) == phi.kernel_generator]
    if out:
        return sorted(out, key=lambda P: (P.x.coeffs, P.y.coeffs))
    # no rational hits: realize the N-torsion of the codomain over an
    # extension and test every order-N combination there
    d, ext, (Q1, Q2) = full_torsion_degree(E2, N)
    E2e = base_change(E2, ext)
    target = lift_point(phi.kernel_generator, ext)
    found = []
    for i in range(N):
        for j in range(N):
            if i == 0 and j == 0:
                continue
            P2 = E2e.add(E2e.mul(i, Q1), E2e.mul(j, Q2))
            if not has_order(E2e, P2, N):
                continue
            if _dual_eval_ext(phi, P2, ext) == target:
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


def _dual_eval_ext(phi: Isogeny, P2: Point, ext, dual: "DualIsogeny" = None) -> Point:
    """Evaluate a dual (the cached one by default) on an extension point."""
    if dual is None:
        dual = cached_dual(phi)
    base = phi.domain.ctx
    if dual.ext_ctx == base:
        quotient = velu(
            base_change(dual.quotient.domain, ext),
            lift_point(dual.quotient.kernel_generator, ext),
        )
    elif dual.ext_ctx == ext:
        quotient = dual.quotient
    else:
        raise TorsionUnavailable("dual working field mismatch")
    return _lift_iso(dual.back_iso, ext).apply(evaluate(quotient, P2))


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
