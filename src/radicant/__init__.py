"""Degree-5 radical isogeny chains over small finite fields, with exact
reference oracles and exhaustive finite-level verification of the underlying
group-theoretic facts."""

from .curve import (
    CurveIso,
    Point,
    TateParams,
    WeierstrassCurve,
    curve_from_params,
    degree5_curve,
    enumerate_points,
    find_isomorphism,
    has_order,
    normal_form_discriminant,
    point_order,
    scalar_mul,
    to_tate_normal,
    torsion_basis,
)
from .errors import (
    ContextMismatch,
    DegenerateParams,
    DegenerateStep,
    EnumerationBound,
    InvariantError,
    NoRootError,
    RadicantError,
    SupportCollision,
    TorsionUnavailable,
)
from .field import FieldCtx, FieldElement, make_field, nth_roots
from .isogeny import (
    Isogeny,
    distinguished_points,
    dual_isogeny,
    evaluate,
    is_distinguished,
    velu,
)
from .moduli import (
    MarkedPoint,
    MarkedSubgroup,
    SemidirectElem,
    axis_subgroup_normality,
    g_action,
    gamma0_equiv,
    gamma0_invariant,
    proj_point,
    proj_quotient,
    rescale,
    sd_inv,
    sd_mul,
)
from .pairing import miller, radicand, tate_reduced, weil
from .radical import (
    ChainResult,
    RadicalStep,
    distinguished_point_5,
    radical_chain,
    radical_poly_irreducible,
    radical_step_5,
    velu_reference_step,
)

__version__ = "0.1.0"
