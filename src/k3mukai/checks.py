"""Recomputable numeric checks behind the stability and section-counting
arguments.

Most checks return (computed, claimed): a raw Mukai-pairing computation on
explicitly constructed vectors, and the paper's closed form for it.  Three
return closed-form data alone: `kernel_square_bound` an int,
`torsion_degree` (degree, allowed) and `brill_noether_data` (rank, degree).
Five ledger kinds compare two closed forms, `picard_determinants` on its
Hilb side only: `brill_noether_unit`, `fujiki_constant_degree`,
`picard_determinants`, `tensor_degree` and `torsion_degree`.
A (g, n) outside the family raises ValueError in `family_c2`; every check
takes (g, n) first, as the family routines of `dual_surface` do.

The ledger's rows live beside these formulas: `_point_checks` yields each
row at one (g, n) with its raw route and its claims.  Nothing here decides
pass or fail; `cli.ledger_checks` does.
"""

from __future__ import annotations

from .dual_surface import family_c2, member_gram
from .mukai import MukaiVector, NSGram, euler_characteristic, is_primitive, square

__all__ = [
    "double_dual_square",
    "extension_square",
    "kernel_square",
    "kernel_square_bound",
    "torsion_degree",
    "tensor_degree_check",
    "brill_noether_data",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def double_dual_square(g: int, n: int, length: int) -> tuple[int, int]:
    """Square of the double dual (n, C, (g-1)n + length), claimed -2n*length.

    A positive length violates the Bogomolov bound (square < -2), which is
    how local freeness of the dual-surface sheaves is forced.
    """
    _require(length >= 0, "need length >= 0")
    gram = NSGram.rank_one(family_c2(g, n))
    vec = MukaiVector(n, (1,), (g - 1) * n + length)
    return square(vec, gram), -2 * n * length


def extension_square(g: int, n: int) -> tuple[int, int]:
    """Square of the extension class (n+1, -C, (g-1)n + 1), claimed -2(ng+1).

    Always below -2, so the extension sheaf can never be stable; that
    contradiction kills the higher cohomology of the dual-surface bundles.
    """
    gram = NSGram.rank_one(family_c2(g, n))
    vec = MukaiVector(n + 1, (-1,), (g - 1) * n + 1)
    return square(vec, gram), -2 * (n * g + 1)


def kernel_square(g: int, n: int, N: int, length: int) -> tuple[int, int]:
    """Square of the evaluation kernel N(n,E,l) - (0,D,-k) + (0,0,length).

    Claimed value -2N - 2Nn*length + 2(g-1); the raw route evaluates the
    vector at the family member (k, l) = (0, 0), in its `member_gram`.  One
    member settles every member: the square expands into N^2 times the
    square of (n, +-E, l), 2N times the pairing of (0, D, k) with
    (n, -E, l), the square of (0, D, k), and pairings with (0, 0, 1) that
    do not move with (k, l).  The first three are pairings the transform
    preserves, so `family_holds` (the ledger's `transform_constraints`
    record) fixes them at 0, -1 and 2g - 2, their source values, for every
    integer (k, l).
    """
    _require(N >= 1 and length >= 0, "need N >= 1 and length >= 0")
    vec = MukaiVector(N * n, (-1, N), length)  # the kernel class at k = l = 0
    return square(vec, member_gram(g, n)), -2 * N - 2 * N * n * length + 2 * (g - 1)


def kernel_square_bound(g: int, n: int, length: int) -> int:
    """The largest N whose `kernel_square` meets the Bogomolov bound
    (square >= -2), namely g // (1 + n*length)."""
    family_c2(g, n)  # the family's domain
    _require(length >= 0, "need length >= 0")
    return g // (1 + n * length)


def torsion_degree(g: int, n: int, m: int) -> tuple[int, bool]:
    """Degree 2(g-1)n^2 / m of a twisted sheaf supported on D/m.

    Only m = 1 is allowed: the transform preserves the smallest positive
    degree, which on the source surface is C^2 = 2(g-1)n^2 itself.  Any
    m > 1 would produce a smaller positive degree, proving the genus-g
    curve class primitive.
    """
    _require(m >= 1, "need m >= 1")
    total = family_c2(g, n)
    degree, remainder = divmod(total, m)
    if remainder:
        raise ValueError(f"{m} does not divide {total}")
    return degree, m == 1


def tensor_degree_check(g: int, n: int) -> tuple[int, int]:
    """Degree n^2 D^2 of the twisted tensor product, against C^2.

    The raw route measures the class n*D against the polarization n*D in
    the `member_gram` of the family member (k, l) = (0, 0) (the answer does
    not involve its D.E or E^2 entries); the closed form is
    C^2 = 2(g-1)n^2 on the source side.
    """
    return member_gram(g, n).dot((n, 0), (n, 0)), 2 * (g - 1) * n * n


def brill_noether_data(g: int, n: int) -> tuple[int, int]:
    """(rank, degree) = (n, (g-1)n + 1) of the restricted bundles on a
    genus-g curve; degree - (g-1)*rank = 1 always."""
    family_c2(g, n)  # the family's domain
    return n, (g - 1) * n + 1


def _equal(computed, claimed, **extra) -> tuple[dict, tuple]:
    """The outputs and the one claim of a record that checks computed == claimed."""
    return {"computed": computed, "claimed": claimed, **extra}, ((computed, claimed),)


def _point_checks(g: int, n: int):
    """Every ledger check at one (g, n) grid point, as (check, inputs,
    outputs, claims); `claims` holds (computed, claimed) pairs."""
    # looked up in their home modules at each call, so a replacement there is run
    from .bb import BBLattice, fujiki_degree
    from .dual_surface import build_dual, family_holds
    from .quadforms import equivalent, gen_picard_determinant, picard_scheme_form

    c2 = 2 * (g - 1) * n * n
    gram = NSGram.rank_one(c2)
    report = build_dual(g, n)
    w = report.w

    yield "dual_surface", {}, {**vars(report)}, ((report.fine, False),)
    yield "w_isotropic", {}, *_equal(square(w, gram), 0)
    yield "w_primitive", {}, *_equal(is_primitive(w), True)
    yield "gerbe_order", {}, *_equal(report.gerbe_order, n)
    yield "dual_curve_square", {}, *_equal(report.d_square, 2 * g - 2)
    yield "euler_characteristic", {}, *_equal(euler_characteristic(w, gram), g * n)
    yield "base_dimension", {}, *_equal(report.base_dim, g)

    # Fujiki degree trichotomy on Pic(Hilb^g S) = diag(c2, -2(g-1)), which the
    # Picard-form records compare too; q_mixed polarizes ample (1, 0), isotropic (1, n)
    hilb = BBLattice(c2, g).form
    q_ample = hilb.value(1, 0)
    q_iso = hilb.value(1, n)
    q_mixed = (hilb.value(2, n) - q_ample - q_iso) // 2
    yield "fujiki_isotropic_degree", {}, *_equal(
        fujiki_degree(q_ample, q_mixed, q_iso, g), g, q_isotropic=q_iso
    )
    yield "fujiki_ample_degree", {}, *_equal(
        fujiki_degree(q_ample, q_mixed, q_ample, g), 2 * g
    )
    yield "fujiki_constant_degree", {}, *_equal(fujiki_degree(q_ample, 0, 0, g), 0)

    for length in range(0, 4):
        computed, claimed = double_dual_square(g, n, length)
        violation = computed < -2
        outputs, claims = _equal(computed, claimed, bogomolov_violation=violation)
        yield "double_dual_square", {"length": length}, outputs, (
            *claims, (violation, length > 0)
        )

    yield "extension_square", {}, *_equal(*extension_square(g, n))

    for length in range(0, 3):
        expected_bound = 0  # raw route: the largest N whose square is >= -2
        for big_n in range(1, 2 * g + 1):
            computed, claimed = kernel_square(g, n, big_n, length)
            if computed >= -2:
                expected_bound = big_n
            yield "kernel_square", {"N": big_n, "length": length}, *_equal(
                computed, claimed
            )
        yield "kernel_square_bound", {"length": length}, *_equal(
            expected_bound, kernel_square_bound(g, n, length)
        )

    for m in range(1, 13):
        if c2 % m:
            continue
        degree, allowed = torsion_degree(g, n, m)
        yield "torsion_degree", {"m": m}, {"degree": degree, "allowed": allowed}, (
            (degree * m, c2), (allowed, m == 1)
        )

    yield "tensor_degree", {}, *_equal(*tensor_degree_check(g, n))

    rank, degree = brill_noether_data(g, n)
    yield "brill_noether_unit", {}, *_equal(
        degree - (g - 1) * rank, 1, rank=rank, degree=degree
    )

    hilb_det = gen_picard_determinant(c2)
    dual_det = gen_picard_determinant(report.d_square)
    distinct = hilb_det != dual_det
    outputs = {"hilb_det": hilb_det, "dual_det": dual_det, "distinct": distinct}
    yield "picard_determinants", {}, outputs, (
        (hilb_det, -c2), (dual_det, -(2 * g - 2)), (distinct, True)
    )

    for d in range(0, 4 * g + 1):
        scheme = picard_scheme_form(g, d)
        verdict = equivalent(hilb, scheme.form)
        outputs = {"verdict": verdict.verdict, "certificate": verdict.certificate,
                   "determinants": verdict.values}
        yield "picard_form_inequivalence", {"d": d}, outputs, (
            (verdict.verdict, "not_equivalent"), (verdict.certificate, "determinant")
        )

    yield "transform_constraints", {}, *_equal(family_holds(g, n), True)
