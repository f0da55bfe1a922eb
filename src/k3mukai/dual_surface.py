"""Numerical data of the Mukai-dual K3 surface.

Given g >= 2 and n >= 2, a K3 surface S with Pic(S) = Z.C and
C^2 = 2(g-1)n^2 has a two-dimensional moduli space of stable sheaves with
the primitive isotropic vector w = (n, C, (g-1)n).  That moduli space is
again a K3 surface; its degree-two lattice is the quotient w-perp / w, and
it carries a genus-g curve class D with D^2 = 2g - 2.  This module builds
those numbers, the order of the gerbe obstructing a universal sheaf, and
the integer constraint family satisfied by the cohomological transform
that exchanges the two surfaces.

The transform maps

    w = (n, C, (g-1)n)  ->  (0, 0, 1)
    (1, 0, 1-g)         ->  (0, D, k)
    (0, 0, 1)           ->  (n, -E, l)

for some integers k and l that the lattice data does not pin down.  In the
symbolic rank-two (D, E) lattice the unknowns x = D.E and y = E^2 are then
forced: preserving the pairing of the last two classes gives x + n*k = 1,
and preserving the square of the last one gives y = 2*n*l.  Solutions are
exposed as an explicit family, never as invented single values.  Every
pairing the transform preserves is affine in (k, l) along the family, so
`family_holds` settles all integer members at once by checking three.
"""

from __future__ import annotations

from math import gcd

from .bb import _basis_form, perp_basis
from .quadforms import _complete, isotropic_lines
from .mukai import (
    MukaiVector,
    NSGram,
    fineness_gcd,
    is_primitive,
    pairing,
    square,
)
from .value import Value

__all__ = [
    "DualSurfaceReport",
    "QuotientClass",
    "ConstraintSolution",
    "TransformConstraintFamily",
    "FibrationHit",
    "CriterionReport",
    "build_dual",
    "quotient_lattice",
    "solve_transform_constraints",
    "family_c2",
    "family_holds",
    "verify_solution",
    "member_gram",
    "general_fibration_criterion",
]


class DualSurfaceReport(Value):
    """Dual-surface numerics for one (g, n), with c2 = C^2 = 2(g-1)n^2.

    The constant `d_ample_assumed` records a geometric input, not a
    computation: the genus-g curve class is ample because the dual surface
    has Picard number one.  No lattice-level test exists for it here.
    """

    d_ample_assumed = True

    def __init__(self, c2: int, w: MukaiVector, d_square: int, gerbe_order: int,
                 fine: bool, base_dim: int):
        Value.__init__(self, c2=c2, w=w, d_square=d_square, gerbe_order=gerbe_order,
                       fine=fine, base_dim=base_dim)


class QuotientClass(Value):
    """Generator of the rank-one quotient w-perp / Z.w and its square."""

    def __init__(self, generator_image: MukaiVector, square: int):
        Value.__init__(self, generator_image=generator_image, square=square)


def quotient_lattice(w: MukaiVector, gram: NSGram) -> QuotientClass:
    """Generator and induced square of the rank-one lattice w-perp / Z.w.

    w must be primitive and isotropic, so that w lies inside its own
    orthogonal complement and the quotient carries a well-defined square
    (shifting a lift by multiples of w does not change it).  In the
    triangular `perp_basis`, w = alpha*b1 + beta*b2 gives alpha from the c
    entry, which b2 lacks, and then beta from the pivot of b2.
    """
    if not is_primitive(w):
        raise ValueError("w must be primitive")
    if square(w, gram) != 0:
        raise ValueError("w must be isotropic")
    b1, b2 = perp_basis(w, gram)
    alpha = w.c[0] // b1.c[0]
    beta = (w.r - alpha * b1.r) // b2.r if b2.r else (w.s - alpha * b1.s) // b2.s
    # gcd(alpha, beta) = 1, or w / gcd would be an integral vector of the
    # saturated w-perp and w not primitive; so (alpha, beta) completes to a
    # determinant-1 matrix whose second column lifts a generator of the quotient
    (_, x), (_, y) = _complete(alpha, beta)
    generator = x * b1 + y * b2
    return QuotientClass(generator, square(generator, gram))


def build_dual(g: int, n: int) -> DualSurfaceReport:
    """Dual-surface report for C^2 = `family_c2(g, n)`, so g >= 2, n >= 2.

    w and the source Gram, with its c2, come from the transform table at the
    family member (k, l) = (0, 0).  `quotient_lattice` rejects a w that is
    not primitive and isotropic.

    The n = 1 and n = 0 situations are classical (compactified Jacobian,
    elliptic K3) and are handled by `general_fibration_criterion` instead.
    """
    gram, _, ((w, _), *_) = _transform_data(g, n, _member(n, 0, 0))
    gerbe = fineness_gcd(w, gram)
    quotient = quotient_lattice(w, gram)
    return DualSurfaceReport(
        c2=gram.entries[0][0],
        w=w,
        d_square=quotient.square,
        gerbe_order=gerbe,
        fine=gerbe == 1,
        base_dim=quotient.square // 2 + 1,
    )


class ConstraintSolution(Value):
    """One member of the transform constraint family.

    de is the intersection D.E and e2 the square E^2 in the symbolic
    rank-two lattice of the dual surface.
    """

    def __init__(self, k: int, l: int, de: int, e2: int):
        Value.__init__(self, k=k, l=l, de=de, e2=e2)

    def __str__(self) -> str:
        return f"(k={self.k}, l={self.l}, de={self.de}, e2={self.e2})"


class TransformConstraintFamily(Value):
    """Dual polarization, constraints and members; the caller holds (g, n)."""

    def __init__(self, polarization_dual: int, constraints: tuple[str, ...],
                 solutions: tuple[ConstraintSolution, ...]):
        Value.__init__(self, polarization_dual=polarization_dual,
                       constraints=constraints, solutions=solutions)


def family_c2(g: int, n: int) -> int:
    """C^2 = 2(g-1)n^2 of the source surface; ValueError unless g, n >= 2."""
    if g < 2 or n < 2:
        raise ValueError("the family requires g >= 2 and n >= 2")
    return 2 * (g - 1) * n * n


def _transform_data(g: int, n: int, sol: ConstraintSolution):
    """Source classes, their images, and the two Gram matrices."""
    src = NSGram.rank_one(family_c2(g, n))
    dst = member_gram(g, n, sol)
    table = (
        (MukaiVector(n, (1,), (g - 1) * n), MukaiVector(0, (0, 0), 1)),
        (MukaiVector(1, (0,), 1 - g), MukaiVector(0, (1, 0), sol.k)),
        (MukaiVector(0, (0,), 1), MukaiVector(n, (0, -1), sol.l)),
    )
    return src, dst, table


def verify_solution(g: int, n: int, sol: ConstraintSolution) -> bool:
    """Check one family member against every pairing the isometry preserves."""
    src, dst, table = _transform_data(g, n, sol)
    for i, (a, img_a) in enumerate(table):
        for b, img_b in table[i:]:
            if pairing(a, b, src) != pairing(img_a, img_b, dst):
                return False
    return True


def _member(n: int, k: int, l: int) -> ConstraintSolution:
    """The family member at (k, l): de = 1 - n*k, e2 = 2*n*l."""
    return ConstraintSolution(k, l, 1 - n * k, 2 * n * l)


def member_gram(g: int, n: int, sol: ConstraintSolution | None = None) -> NSGram:
    """(D, E) Gram [[D^2, de], [de, e2]] of `sol`, by default of the family
    member `_member(n, 0, 0)`, looked up when called.  D^2 = 2g - 2 is
    C^2 / n^2, read from `family_c2`, so g, n < 2 raise ValueError."""
    sol = _member(n, 0, 0) if sol is None else sol
    return NSGram.rank_two(family_c2(g, n) // (n * n), sol.de, sol.e2)


def family_holds(g: int, n: int) -> bool:
    """True when every integer member (k, l) of the family satisfies the
    transform, decided by `verify_solution` at (0, 0), (1, 0) and (0, 1).

    Along the family the image classes (0, 0, 1), (0, D, k) and (n, -E, l)
    keep their rank and NS coordinates; only their s-components k, l and
    the target Gram entries de = 1 - n*k, e2 = 2*n*l move, each affinely in
    (k, l).  A Mukai pairing is bilinear, and no term multiplies two moving
    quantities, so each preserved pairing minus its fixed source value is an
    affine function a + b*k + c*l.  It vanishes at (0, 0), (1, 0) and
    (0, 1) exactly when a = b = c = 0, that is, at every integer (k, l).
    One of them, <(0, D, k), (n, -E, l)> = -de - n*k held at
    <(1, 0, 1-g), (0, 0, 1)> = -1, is the unit pairing de + n*k = 1.
    """
    return all(
        verify_solution(g, n, _member(n, k, l)) for k, l in ((0, 0), (1, 0), (0, 1))
    )


def solve_transform_constraints(
    g: int, n: int, k_range: tuple[int, int]
) -> TransformConstraintFamily:
    """Constraint family of the transform: de = 1 - n*k, e2 = 2*n*l.

    Emits one solution per k in k_range and l with |l| up to its width.
    The family is verified once, for every integer (k, l), by
    `family_holds`; AssertionError means the parametrization violates the
    isometry.  k and l stay free parameters by design.  The dual
    polarization is the image of C + (C^2/n)(0,0,1) = w - n*v, negated, for
    v = (1, 0, 1-g): -((0,0,1) - n*(0,D,k)) has middle component n*D
    whatever k is, so the member (0, 0) gives its D coefficient.
    """
    k_min, k_max = k_range
    if k_min > k_max:
        raise ValueError("empty k range")
    if not family_holds(g, n):
        raise AssertionError(f"transform constraint family fails for g={g}, n={n}")
    _, _, ((_, w_image), (_, v_image), _) = _transform_data(g, n, _member(n, 0, 0))
    width = k_max - k_min
    solutions = tuple([
        _member(n, k, l) for k in range(k_min, k_max + 1) for l in range(-width, width + 1)
    ])
    constraints = (f"de + {n}*k == 1", f"e2 == {2 * n}*l")
    polarization = -(w_image - n * v_image).c[0]
    return TransformConstraintFamily(polarization, constraints, solutions)


class FibrationHit(Value):
    """One primitive isotropic class orthogonal to v.

    Rank zero means the underlying K3 is elliptic and classical results
    apply; positive rank is the dual-surface construction, for which the
    genus-g curve square and the gerbe order are reported.
    """

    def __init__(self, w: MukaiVector, branch: str, d_square: int | None = None,
                 gerbe_order: int | None = None):
        Value.__init__(self, w=w, branch=branch, d_square=d_square,
                       gerbe_order=gerbe_order)

    def __str__(self) -> str:
        extra = "" if self.d_square is None else (
            f", d_square={self.d_square}, gerbe={self.gerbe_order}"
        )
        return f"{self.w} [{self.branch}{extra}]"


class CriterionReport(Value):
    """The genus of v and its hits; the caller holds v."""

    def __init__(self, genus: int, hits: tuple[FibrationHit, ...]):
        Value.__init__(self, genus=genus, hits=hits)


def general_fibration_criterion(
    v: MukaiVector, gram: NSGram, bound: int
) -> CriterionReport:
    """Primitive isotropic w orthogonal to v with |entries| <= bound.

    Requires C^2 > 0 and <v, v> = 2g - 2 > 0, so v-perp is indefinite of
    rank two: its isotropic lines come in closed form from `isotropic_lines`
    on the Gram matrix of v-perp in the one `perp_basis` of v over its
    content, and the bound only filters them.  Each w takes the sign making
    (r, c, s) lexicographically positive; hits are sorted by (r, c, s).
    """
    if gram.rank != 1:
        raise ValueError("criterion requires a rank-one NS lattice")
    if gram.entries[0][0] <= 0:
        raise ValueError("criterion requires C^2 > 0")
    sq = square(v, gram)
    if sq <= 0:
        raise ValueError("need square(v) = 2g - 2 > 0")
    content = gcd(*v.components())
    r, c, s = (x // content for x in v.components())
    primitive = MukaiVector(r, (c,), s)
    b1, b2 = perp_basis(primitive, gram)
    hits = []
    for x, y in isotropic_lines(_basis_form(b1, b2, gram)):
        w = x * b1 + y * b2
        w = -w if w.components() < (0, 0, 0) else w
        if max(map(abs, w.components())) > bound:
            continue
        if w.r == 0:
            hits.append(FibrationHit(w, "elliptic"))
        else:
            gerbe = fineness_gcd(w, gram)
            hits.append(FibrationHit(w, "dual-surface", d_square=sq, gerbe_order=gerbe))
    hits.sort(key=lambda hit: hit.w.components())
    return CriterionReport(genus=sq // 2 + 1, hits=tuple(hits))
