"""The semidirect product (Z/N)^2 x| (Z/N)^x, its axis subgroup, and the
operators on curves with marked torsion data.

The group multiplies as ((a1,b1),k1)((a2,b2),k2) = ((a1+k1*a2, b1+k1*b2),
k1*k2); the axis subgroup keeps the second torsion coordinate at zero.
Non-normality of that subgroup for N >= 5 is decided by exhaustive
conjugation, with an explicit witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .curve import (
    Point,
    WeierstrassCurve,
    degree5_curve,
    degree5_j_invariant,
    find_isomorphism,
    has_order,
    to_tate_normal,
    TateParams,
)
from .errors import ContextMismatch, DegenerateParams, InvariantError
from .field import FieldElement
from .isogeny import evaluate, velu


# ---------------------------------------------------------------------------
# semidirect product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemidirectElem:
    """Element ((a, b), k) of (Z/N)^2 x| (Z/N)^x."""

    a: int
    b: int
    k: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % self.N)
        object.__setattr__(self, "b", self.b % self.N)
        object.__setattr__(self, "k", self.k % self.N)
        if math.gcd(self.k, self.N) != 1:
            raise ValueError("unit part must be coprime to the level")


def sd_identity(N: int) -> SemidirectElem:
    return SemidirectElem(0, 0, 1, N)


def sd_mul(g: SemidirectElem, h: SemidirectElem) -> SemidirectElem:
    if g.N != h.N:
        raise ValueError("level mismatch")
    return SemidirectElem(g.a + g.k * h.a, g.b + g.k * h.b, g.k * h.k, g.N)


def sd_inv(g: SemidirectElem) -> SemidirectElem:
    k_inv = pow(g.k, -1, g.N)
    return SemidirectElem(-k_inv * g.a, -k_inv * g.b, k_inv, g.N)


def group_elements(N: int) -> Iterator[SemidirectElem]:
    for k in range(1, N):
        if math.gcd(k, N) != 1:
            continue
        for a in range(N):
            for b in range(N):
                yield SemidirectElem(a, b, k, N)


def in_axis_subgroup(g: SemidirectElem) -> bool:
    """Membership in H = (Z/N x {0}) x| (Z/N)^x."""
    return g.b == 0


@dataclass(frozen=True)
class SubgroupNormalityReport:
    N: int
    group_order: int
    subgroup_order: int
    normal: bool
    witness: Optional[tuple]  # (g, h, ghg^-1) with the conjugate outside H


def axis_subgroup_normality(N: int) -> SubgroupNormalityReport:
    """Exhaustive conjugation of the axis subgroup inside the full group."""
    if N < 3:
        raise ValueError("level must be at least 3")
    G = list(group_elements(N))
    H = [g for g in G if in_axis_subgroup(g)]
    phi_n = sum(1 for k in range(1, N) if math.gcd(k, N) == 1)
    if not (len(G) == N * N * phi_n and len(H) == N * phi_n):
        raise InvariantError(f"group or axis subgroup has the wrong order at N = {N}")
    for g in G:
        gi = sd_inv(g)
        for h in H:
            conj = sd_mul(sd_mul(g, h), gi)
            if not in_axis_subgroup(conj):
                return SubgroupNormalityReport(N, len(G), len(H), False, (g, h, conj))
    return SubgroupNormalityReport(N, len(G), len(H), True, None)


def conjugate_closed_form(g: SemidirectElem, h: SemidirectElem) -> SemidirectElem:
    """g h g^-1 for h in the axis subgroup, in closed form."""
    if h.b != 0:
        raise ValueError("closed form applies to axis-subgroup elements")
    return SemidirectElem(
        g.a + g.k * h.a - h.k * g.a, g.b - h.k * g.b, h.k, g.N
    )


# ---------------------------------------------------------------------------
# curves with marked torsion data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkedPoint:
    """Curve with a marked point of exact order `level`."""

    curve: WeierstrassCurve
    point: Point
    level: int

    def __post_init__(self):
        self.curve.require(self.point)
        if not has_order(self.curve, self.point, self.level):
            raise ValueError("marked point has the wrong order")


@dataclass(frozen=True)
class MarkedSubgroup:
    """Curve with a marked cyclic subgroup, stored as the full point list."""

    curve: WeierstrassCurve
    points: tuple
    level: int

    def __post_init__(self):
        pts = set()
        for pt in self.points:
            self.curve.require(pt)
            pts.add(pt)
        gens = [p for p in self.points if not p.is_infinity
                and has_order(self.curve, p, self.level)]
        if not gens or pts != set(self.curve.subgroup(gens[0])):
            raise ValueError("marked points do not form a cyclic subgroup")


def g_action(
    g: SemidirectElem,
    E: WeierstrassCurve,
    R: Point,
    basis: tuple,
) -> Point:
    """Action (a, b, k) . R = [k]R + [a]P1 + [b]P2 on order-N^2 preimages.

    The unit k acts through its multiplicative lift k^N mod N^2 (the unique
    lift making k1 -> k2 -> k1*k2 compose exactly on order-N^2 points; a
    bare integer representative would only compose up to a translation by
    the order-N subgroup).
    """
    P1, P2 = basis
    N = g.N
    k_lift = pow(g.k, N, N * N)
    return E.add(E.add(E.mul(k_lift, R), E.mul(g.a, P1)), E.mul(g.b, P2))


def rescale(ec: MarkedPoint, N: int) -> MarkedPoint:
    """(E, R) -> (E, [N+1]R) on level-N^2 structures; has exact order N."""
    if ec.level != N * N:
        raise ValueError("rescale acts on level N^2 structures")
    return MarkedPoint(ec.curve, ec.curve.mul(N + 1, ec.point), ec.level)


def proj_point(ec: MarkedPoint, N: int) -> MarkedPoint:
    """(E, R) -> (E, [N]R): forget down to a level-N structure."""
    if ec.level != N * N:
        raise ValueError("projection acts on level N^2 structures")
    return MarkedPoint(ec.curve, ec.curve.mul(N, ec.point), N)


def proj_quotient(ec: MarkedPoint, N: int) -> tuple:
    """(E, R) -> (E/<[N]R>, image of R), plus the quotient isogeny."""
    if ec.level != N * N:
        raise ValueError("projection acts on level N^2 structures")
    K = ec.curve.mul(N, ec.point)
    phi = velu(ec.curve, K)
    image = evaluate(phi, ec.point)
    return MarkedPoint(phi.codomain, image, N), phi


def params_of(ec: MarkedPoint) -> TateParams:
    tp, _ = to_tate_normal(ec.curve, ec.point, ec.level)
    return tp


# ---------------------------------------------------------------------------
# the degree-5 subgroup-class invariant
# ---------------------------------------------------------------------------

def gamma0_invariant(b: FieldElement) -> FieldElement:
    """(b^2 - 1) / b, constant on subgroup-marked equivalence classes."""
    if b.is_zero():
        raise DegenerateParams("b = 0 has no invariant")
    return (b * b - 1) / b


def gamma0_equiv(b1: FieldElement, b2: FieldElement) -> bool:
    """Are (E_b1, <(0,0)>) and (E_b2, <(0,0)>) isomorphic as marked pairs?

    Both j-invariants come from the closed-form j-map of X_1(5), and curves
    with different j are not isomorphic at all, so such a pair is answered
    False before any curve is built.  Otherwise the answer is the
    isomorphism search with the subgroup constraint.  An invalid b raises
    DegenerateParams from `degree5_j_invariant`.
    """
    if b1.ctx != b2.ctx:
        raise ContextMismatch("gamma0_equiv needs a common base field")
    if degree5_j_invariant(b1) != degree5_j_invariant(b2):
        return False
    E1, E2 = degree5_curve(b1), degree5_curve(b2)
    P = Point(b1.ctx.zero, b1.ctx.zero)
    return find_isomorphism(E1, E2, subgroup_map=(E1.subgroup(P), E2.subgroup(P))) is not None
