"""Degree-5 radical steps, chain drivers, and the Velu-based reference oracle.

A radical step turns the normal-form parameter b into its successor b'
through a fifth root of the radicand, with no torsion-point sampling.  The
reference oracle recomputes the legal successors from first principles
(quotient isogeny, dual, distinguished points): `successor_polynomial(b)`,
whose roots are the five successors (the fibre over b on X_1(5)), is tested
against the step's own `radical_successor_polynomial(b)`; no dual is memoised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import poly
from .curve import (
    Point,
    degree5_curve,
    degree5_degenerate,
    normal_form_b,
    to_tate_normal,
)
from .errors import DegenerateParams, DegenerateStep, NoRootError
from .field import FieldCtx, FieldElement, nth_roots, rational_map_k2
from .isogeny import _x_fibre, distinguished_points, dual_isogeny, velu
from .miscutil import isprime

# b' = alpha num(alpha) / den(alpha) for a fifth root alpha of b, constant first
_STEP_NUM = (1, 2, 4, 3, 1)
_STEP_DEN = (1, -3, 4, -2, 1)


@dataclass(frozen=True)
class RadicalStep:
    """One degree-5 step: input b, chosen fifth root, output b'."""

    b: FieldElement
    alpha: FieldElement
    b_next: FieldElement
    root_index: int


@dataclass(frozen=True)
class ChainResult:
    """A full chain of successive normal-form parameters."""

    b_values: tuple
    ctx: FieldCtx
    policy: str

    def as_json(self) -> str:
        payload = {
            "p": self.ctx.p,
            "k": self.ctx.k,
            "policy": self.policy,
            "chain": [list(b.coeffs) if self.ctx.k > 1 else b.to_int()
                      for b in self.b_values],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _check_params(b: FieldElement):
    if b.is_zero():
        raise DegenerateParams("b = 0 gives a singular curve")
    if degree5_degenerate(b):
        raise DegenerateParams("discriminant vanishes for this b")


def _check_steps(steps: int):
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")


def _parse_policy(policy: str):
    """The root index a policy asks for: None for 'unique', 0 for
    'canonical', i for 'index:i'.  A malformed policy raises ValueError
    before any root is taken."""
    if policy == "unique":
        return None
    if policy == "canonical":
        return 0
    if policy.startswith("index:"):
        try:
            i = int(policy[len("index:"):])
        except ValueError:
            i = -1
        if i < 0:
            raise ValueError(f"root policy {policy!r} needs an index i >= 0")
        return i
    raise ValueError(f"unknown root policy {policy!r}")


def _pick_root(roots: list, index) -> tuple:
    if not roots:
        raise NoRootError("the radicand has no fifth root in this field")
    if index is None:
        if len(roots) != 1:
            raise NoRootError(
                "policy 'unique' needs gcd(5, q-1) = 1; "
                f"found {len(roots)} roots"
            )
        return roots[0], 0
    if index >= len(roots):
        raise NoRootError(f"root index {index} out of range ({len(roots)} roots)")
    return roots[index], index


def step_from_root(b: FieldElement, alpha: FieldElement, root_index: int = 0) -> RadicalStep:
    """Evaluate the closed-form successor parameter at a chosen root."""
    b_next = _successor(alpha)
    if b_next is None:
        raise DegenerateStep("pole of the step expression", alpha=alpha)
    if degree5_degenerate(b_next):
        raise DegenerateStep("successor parameter is degenerate", alpha=alpha)
    return RadicalStep(b, alpha, b_next, root_index)


def _successor(alpha: FieldElement):
    """alpha num(alpha) / den(alpha), or None at a pole (den(alpha) = 0).
    Over F_{p^2} it runs on coefficient pairs and builds only b'; every
    other k takes the element expression of `_successor_elements`."""
    if alpha.ctx.k == 2:
        return rational_map_k2(alpha, _STEP_NUM, _STEP_DEN)
    return _successor_elements(alpha)


def _successor_elements(alpha: FieldElement):
    """`_successor` by element arithmetic, for every k: the oracle the
    k = 2 form is tested against."""
    c, d = _STEP_NUM, _STEP_DEN
    num = (((alpha + c[3]) * alpha + c[2]) * alpha + c[1]) * alpha + c[0]
    den = (((alpha + d[3]) * alpha + d[2]) * alpha + d[1]) * alpha + d[0]
    if den.is_zero():
        return None
    return alpha * num / den


def radical_step_5(b: FieldElement, policy: str = "canonical") -> RadicalStep:
    """One radical step of degree 5 under the given root-selection policy.

    For N = 5 the radicand t_5(P, -P) is b itself; the Miller check in
    `verify` ties the two together independently of this function.
    """
    index = _parse_policy(policy)
    _check_params(b)
    return _step_unchecked(b, index)


def _step_unchecked(b: FieldElement, index) -> RadicalStep:
    alpha, idx = _pick_root(nth_roots(b, 5), index)
    return step_from_root(b, alpha, idx)


def distinguished_point_5(b: FieldElement, alpha: FieldElement) -> Point:
    """Closed-form order-5 point on the quotient curve, for a fifth root of b."""
    _check_params(b)
    if not alpha**5 == b:
        raise ValueError("alpha is not a fifth root of b")
    x0 = (
        5 * alpha**4
        + (b - 3) * alpha**3
        + (b + 2) * alpha * alpha
        + (2 * b - 1) * alpha
        - 2 * b
    )
    y0 = (
        5 * alpha**4
        + (b - 3) * alpha**3
        + (b * b - 10 * b + 1) * alpha * alpha
        + (13 * b - b * b) * alpha
        - b * b
        - 11 * b
    )
    return Point(x0, y0)


def radical_chain(b0: FieldElement, steps: int, policy: str = "canonical") -> ChainResult:
    """Iterate the radical step; deterministic given (b0, policy).

    The policy is parsed and b0 validated once, here: `step_from_root`
    rejects a degenerate successor, so every later input is already known
    to be valid.
    """
    _check_steps(steps)
    index = _parse_policy(policy)
    _check_params(b0)
    values = [b0]
    b = b0
    for i in range(steps):
        try:
            step = _step_unchecked(b, index)
        except (DegenerateParams, DegenerateStep, NoRootError) as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        b = step.b_next
        values.append(b)
    return ChainResult(tuple(values), b0.ctx, policy)


def _velu_reference(b: FieldElement) -> tuple:
    """The dual of phi = velu(E_b, (0, 0)), and `normal_form_b` of phi's codomain."""
    _check_params(b)
    phi = velu(degree5_curve(b), Point(b.ctx.zero, b.ctx.zero))
    return dual_isogeny(phi), normal_form_b(phi.codomain)


def successor_polynomial(b: FieldElement) -> list:
    """S_b(Y) = prod (Y - b') over the five successors b' of b, with
    multiplicity, over the base field: the characteristic polynomial of
    b'(x) modulo g, as the distinguished points and their negatives give
    the same b'."""
    dual, (num, den) = _velu_reference(b)
    # the monic quintic g has the roots x(X) with dual(X) = +-(0, 0)
    g = _x_fibre(dual, dual.forward.kernel_generator.x)
    return poly.charpoly(num, den, g, b.ctx)


def radical_successor_polynomial(b: FieldElement) -> list:
    """S_b(Y) as the characteristic polynomial of the step alpha num / den in
    F_q[alpha]/(alpha^5 - b).  den is a unit there: its resultant with
    alpha^5 - b is (b^2 - 11b - 1)^2, nonzero for every valid b."""
    _check_params(b)
    ctx = b.ctx
    num = [ctx.el(c) for c in (0,) + _STEP_NUM]  # alpha num(alpha)
    den = [ctx.el(c) for c in _STEP_DEN]
    return poly.charpoly(num, den, [-b] + [ctx.zero] * 4 + [ctx.one], ctx)


def velu_reference_step(b: FieldElement) -> list:
    """The rational successors of b, sorted, without radical formulas: b'(x)
    at the rational distinguished points, whose x-coordinates are the
    rational roots of the g of `successor_polynomial`, so one quintic is
    factored and psi_5 is not.  Successors over an extension are left out
    ([] where b is no fifth power), as are conjugate ones over F_{q^2} that
    an automorphism merges into a rational double root of S_b where
    j(E_b/<(0, 0)>) is 0 or 1728 (p = 19, b = 4: S_b has the roots 4 and 18
    twice; this list is [4]).
    `successor_polynomial` has all five."""
    return _rational_successors(*_velu_reference(b))


def _rational_successors(dual, b_map: tuple) -> list:
    """b'(x) = num(x) / den(x), from `_velu_reference`, at the rational
    distinguished points of that dual, sorted."""
    num, den = b_map
    return sorted({poly.value_and_derivative(num, P.x)[0] / poly.value_and_derivative(den, P.x)[0]
                   for P in distinguished_points(dual)}, key=lambda e: e.coeffs)


def radical_poly_irreducible(rho: FieldElement, n: int, ctx: FieldCtx) -> bool:
    """Is x^n - rho irreducible?  For prime n this holds exactly when n
    divides q - 1 and rho is not an n-th power."""
    if not isprime(n):
        raise ValueError("only prime radical degrees are supported")
    rho = ctx.el(rho) if not isinstance(rho, FieldElement) else rho
    if rho.is_zero():
        raise ValueError("zero radicand")
    q = ctx.q
    if (q - 1) % n != 0:
        return False
    return rho ** ((q - 1) // n) != ctx.one


def radical_poly_irreducible_oracle(rho: FieldElement, n: int, ctx: FieldCtx) -> bool:
    """Independent route: run the generic irreducibility test on x^n - rho."""
    f = [-rho] + [ctx.zero] * (n - 1) + [ctx.one]
    return poly.is_irreducible(f, ctx)


# ---------------------------------------------------------------------------
# the sampling-based chain (benchmark comparand)
# ---------------------------------------------------------------------------

def velu_chain(b0: FieldElement, steps: int) -> ChainResult:
    """Chain driver that finds each successor through torsion sampling.

    Must produce the same parameter sequence as the radical chain under
    policy 'unique' (fields with gcd(5, q-1) = 1), at the cost of sampling
    torsion points on every step.
    """
    _check_steps(steps)
    _check_params(b0)
    if (b0.ctx.q - 1) % 5 == 0:
        raise ValueError("sampling chain comparand requires gcd(5, q-1) = 1")
    values = [b0]
    b = b0
    for _ in range(steps):
        E = degree5_curve(b)
        P = Point(b.ctx.zero, b.ctx.zero)
        phi = velu(E, P)
        candidates = _sampled_distinguished(phi)
        if len(candidates) != 1:
            raise DegenerateStep(
                f"expected a unique distinguished point, found {len(candidates)}"
            )
        tp, _ = to_tate_normal(phi.codomain, candidates[0], 5)
        b = tp.b
        values.append(b)
    return ChainResult(tuple(values), b0.ctx, "unique")


def _sampled_distinguished(phi) -> list:
    """Rational distinguished points, found by sampling rather than scanning."""
    from .curve import _rng_for, _sylow_reduce, group_order, random_point

    E2 = phi.codomain
    n = group_order(phi.domain)  # isogenous curves have equal counts
    rng = _rng_for(E2, "bench-sampling")
    dual = dual_isogeny(phi)
    seen = set()
    found = []
    for _ in range(200):
        S = _sylow_reduce(E2, random_point(E2, rng), n, 5)
        if S is None or S in seen:
            continue
        for cand in (E2.mul(i, S) for i in range(1, 5)):
            seen.add(cand)
            if dual(cand) == phi.kernel_generator:
                found.append(cand)
        if found:
            break
    return sorted(set(found), key=lambda P: (P.x.coeffs, P.y.coeffs))
