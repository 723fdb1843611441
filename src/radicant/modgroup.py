"""Exact computation with congruence subgroups through their finite images.

Everything happens inside SL2(Z/M): the infinite groups are represented by
the congruence conditions defining them, and reduction mod M is surjective
onto the matrices satisfying those conditions, so orders, indices and
normality can be decided exhaustively.

Both enumerators solve the determinant congruence a*d = 1 + b*c (mod M) for
d once per a: one table gives the solutions for every right-hand side, so
the (b, c) loops only look them up.

The members of a subgroup are generated from its congruences: a, b and c
step through their residue classes and d is read from that table, so only
members are ever visited, in the lexicographic (a, b, c, d) order of
``sl2_elements``.  Filtering ``sl2_elements`` through ``member`` is the
independent oracle the tests compare that generator against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import EnumerationBound
from .miscutil import factorint

# the most work one call may do: the (a, b, c) triples visited plus the
# determinant table entries built for them, or `is_normal`'s conjugations
WORK_CEILING = 1_000_000

KINDS = ("full", "gamma", "gamma1", "gamma0", "gamma1_rescaled")


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Z/M with determinant 1."""

    a: int
    b: int
    c: int
    d: int
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("the modulus must be at least 1")
        object.__setattr__(self, "a", self.a % self.M)
        object.__setattr__(self, "b", self.b % self.M)
        object.__setattr__(self, "c", self.c % self.M)
        object.__setattr__(self, "d", self.d % self.M)
        if self.det() != 1 % self.M:
            raise ValueError("matrix does not have determinant 1")

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.M

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.M != other.M:
            raise ValueError("modulus mismatch")
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.M,
        )

    def inv(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a, self.M)

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


def identity(M: int) -> Mat2:
    return Mat2(1, 0, 0, 1, M)


def rescale_matrix(N: int, M: Optional[int] = None) -> Mat2:
    """The matrix [[1-N, -1], [N^2, 1+N]] realizing the point-rescaling
    operator on level-N^2 structures."""
    return Mat2(1 - N, -1, N * N, 1 + N, M if M is not None else N * N)


@dataclass(frozen=True)
class SubgroupSpec:
    """A congruence subgroup viewed inside SL2(Z/M)."""

    kind: str
    N: int
    M: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        if self.N < 1 or self.M < 1:
            raise ValueError("the level and the modulus must be at least 1")
        if self.kind == "gamma1_rescaled":
            if self.M != self.N * self.N:
                raise ValueError("the rescaled subgroup lives at modulus N^2")
        elif self.kind != "full" and self.M % self.N != 0:
            raise ValueError("level must divide the ambient modulus")


def member(m: Mat2, s: SubgroupSpec) -> bool:
    """Exact congruence-condition test."""
    if m.M != s.M:
        raise ValueError("matrix modulus does not match the subgroup spec")
    a, b, c, d = m.entries()
    N = s.N
    if s.kind == "full":
        return True
    one = 1 % N  # at N = 1 every residue is 0
    if s.kind == "gamma":
        return a % N == one and d % N == one and b % N == 0 and c % N == 0
    if s.kind == "gamma1":
        return a % N == one and d % N == one and c % N == 0
    if s.kind == "gamma0":
        return c % N == 0
    # gamma1_rescaled: c = 0 mod N^2, a = d = 1 mod N
    return c % (N * N) == 0 and a % N == one and d % N == one


def _d_solutions(a: int, M: int) -> list:
    """Entry rhs lists every d with a*d = rhs (mod M), ascending.

    With g = gcd(a, M), the congruence is solvable exactly when g | rhs, and
    its solutions are d0 + j*(M/g) for j < g, d0 = (rhs/g)(a/g)^-1 mod M/g.
    """
    g = math.gcd(a, M)
    Mg = M // g
    inv = pow(a // g, -1, Mg)
    return [range(rhs // g * inv % Mg, M, Mg) if rhs % g == 0 else ()
            for rhs in range(M)]


def _require_work(work: int, what: str):
    if work > WORK_CEILING:
        raise EnumerationBound(
            f"{what} takes {work} steps, above the enumeration bound {WORK_CEILING}")


def sl2_elements(M: int) -> Iterator[tuple]:
    """All (a, b, c, d) in SL2(Z/M), streamed; refused at the call above
    the work ceiling."""
    _require_work(M * (M + M * M), f"enumeration mod {M}")
    return ((a, b, c, d)
            for a in range(M)
            for d_of in [_d_solutions(a, M)]
            for b in range(M)
            for c in range(M)
            for d in d_of[(1 + b * c) % M])


def sl2_count(M: int) -> int:
    """|SL2(Z/M)| by exhaustive enumeration."""
    return sum(1 for _ in sl2_elements(M))


def sl2_count_formula(M: int) -> int:
    """The classical closed form M^3 prod_{p | M} (1 - p^-2)."""
    n = M**3
    for p in factorint(M):
        n = n // (p * p) * (p * p - 1)
    return n


# Congruence steps (e_a, e_b, e_c, e_d) per kind: a member satisfies
# a = 1 (mod N^e_a), b = 0 (mod N^e_b), c = 0 (mod N^e_c), d = 1 (mod N^e_d).
_CONGRUENCE_STEPS = {
    "full": (0, 0, 0, 0),
    "gamma": (1, 1, 1, 1),
    "gamma1": (1, 0, 1, 1),
    "gamma0": (0, 0, 1, 0),
    "gamma1_rescaled": (1, 0, 2, 1),
}


def _steps(s: SubgroupSpec) -> tuple:
    return tuple(s.N**e for e in _CONGRUENCE_STEPS[s.kind])


def _members(s: SubgroupSpec) -> Iterator[tuple]:
    """The (a, b, c, d) members of s, in the order of sl2_elements, streamed;
    refused at the call when its (M/n_a)(M/n_b)(M/n_c) triples and their
    determinant tables exceed the work ceiling, not for the modulus alone.

    Every step divides M (the spec checks N | M, or M = N^2 for the rescaled
    kind), so range(r, M, n) is exactly the residues mod M that are r mod n.
    In every row the d congruence already follows from a, c and det = 1;
    filtering on it keeps the generator exact for the table as written.
    """
    M = s.M
    n_a, n_b, n_c, n_d = _steps(s)
    _require_work((M // n_a) * (M + (M // n_b) * (M // n_c)), f"enumeration mod {M}")
    one_d = 1 % n_d
    return ((a, b, c, d)
            for a in range(1 % n_a, M, n_a)
            for d_of in [_d_solutions(a, M)]
            for b in range(0, M, n_b)
            for c in range(0, M, n_c)
            for d in d_of[(1 + b * c) % M]
            if d % n_d == one_d)


def subgroup_order(s: SubgroupSpec) -> int:
    return sum(1 for _ in _members(s))


def _require_contained(sub_members: Iterable[tuple], sup: SubgroupSpec):
    """Streams sub's members through sup's congruences, read off its steps
    rather than `member`'s if-chain, which stays the oracle for `_members`."""
    n_a, n_b, n_c, n_d = _steps(sup)
    for a, b, c, d in sub_members:
        if not (a % n_a == 1 % n_a and b % n_b == 0 and c % n_c == 0 and d % n_d == 1 % n_d):
            raise ValueError("first argument is not contained in the second")


def index(sub: SubgroupSpec, sup: SubgroupSpec) -> int:
    """Index of sub in sup over the common finite image, listing no member."""
    if sub.M != sup.M:
        raise ValueError("index needs a common ambient modulus")
    _require_contained(_members(sub), sup)
    return subgroup_order(sup) // subgroup_order(sub)


@dataclass(frozen=True)
class NormalityReport:
    normal: bool
    witness: Optional[tuple]  # (g, h, ghg^-1) on failure


def is_normal(sub: SubgroupSpec, sup: SubgroupSpec) -> NormalityReport:
    """Exhaustive conjugation test of sub inside sup, with witness.

    The witness is the first failing (g, h) with g and h in member order.
    The |sub| |sup| conjugations are refused above the work ceiling.
    """
    if sub.M != sup.M:
        raise ValueError("normality needs a common ambient modulus")
    sub_elems = list(_members(sub))
    _require_contained(sub_elems, sup)
    _require_work(len(sub_elems) * subgroup_order(sup), "the conjugation test")
    sub_set = set(sub_elems)
    M = sup.M
    for g in _members(sup):
        ga, gb, gc, gd = g
        for h in sub_elems:
            ha, hb, hc, hd = h
            # (g h) g^-1 with g^-1 = (d, -b, -c, a)
            pa, pb = ga * ha + gb * hc, ga * hb + gb * hd
            pc, pd = gc * ha + gd * hc, gc * hb + gd * hd
            conj = ((pa * gd - pb * gc) % M, (pb * ga - pa * gb) % M,
                    (pc * gd - pd * gc) % M, (pd * ga - pc * gb) % M)
            if conj not in sub_set:
                return NormalityReport(False, (Mat2(*g, M), Mat2(*h, M), Mat2(*conj, M)))
    return NormalityReport(True, None)


def conjugation_closed_form(N: int, b: int) -> Mat2:
    """Image of the unipotent [[1, b], [0, 1]] under conjugation by the
    rescaling matrix, reduced mod N^2: equals [[1, b(2N+1)], [0, 1]]."""
    M = N * N
    return Mat2(1, (b * (2 * N + 1)) % M, 0, 1, M)
