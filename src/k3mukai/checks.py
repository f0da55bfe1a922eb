"""Recomputable numeric checks behind the stability and section-counting
arguments.

Each check builds an explicit Mukai vector and returns its square, an int
computed by the Mukai pairing.  A (g, n) outside the family raises
ValueError in `family_c2`; every check takes (g, n) first, as the family
routines of `dual_surface` do.

The ledger's rows live beside these checks: `_point_checks` yields each row
at one (g, n) with its raw route and its claims, and it is the one place a
claimed value is written.  Nothing here decides pass or fail;
`cli.ledger_checks` does.
"""

from __future__ import annotations

from .dual_surface import family_c2, member_gram
from .mukai import MukaiVector, NSGram, euler_characteristic, is_primitive, square

__all__ = ["double_dual_square", "extension_square", "kernel_square"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def double_dual_square(g: int, n: int, length: int) -> int:
    """Square of the double dual (n, C, (g-1)n + length).

    A positive length violates the Bogomolov bound (square < -2), which is
    how local freeness of the dual-surface sheaves is forced.
    """
    _require(length >= 0, "need length >= 0")
    gram = NSGram.rank_one(family_c2(g, n))
    vec = MukaiVector(n, (1,), (g - 1) * n + length)
    return square(vec, gram)


def extension_square(g: int, n: int) -> int:
    """Square of the extension class (n+1, -C, (g-1)n + 1).

    Always below -2, so the extension sheaf can never be stable; that
    contradiction kills the higher cohomology of the dual-surface bundles.
    """
    gram = NSGram.rank_one(family_c2(g, n))
    vec = MukaiVector(n + 1, (-1,), (g - 1) * n + 1)
    return square(vec, gram)


def kernel_square(g: int, n: int, N: int, length: int) -> int:
    """Square of the evaluation kernel N(n,E,l) - (0,D,-k) + (0,0,length).

    It is evaluated at the family member (k, l) = (0, 0), in its
    `member_gram`.  One member settles every member: the square expands into
    N^2 times the square of (n, +-E, l), 2N times the pairing of (0, D, k)
    with (n, -E, l), the square of (0, D, k), and pairings with (0, 0, 1)
    that do not move with (k, l).  The first three are pairings the transform
    preserves, so `family_holds` (the ledger's `transform_constraints`
    record) fixes them at 0, -1 and 2g - 2, their source values, for every
    integer (k, l).
    """
    _require(N >= 1 and length >= 0, "need N >= 1 and length >= 0")
    vec = MukaiVector(N * n, (-1, N), length)  # the kernel class at k = l = 0
    return square(vec, member_gram(g, n))


def _equal(computed, claimed, **extra) -> tuple[dict, tuple]:
    """The outputs and the one claim of a record that checks computed == claimed."""
    return {"computed": computed, "claimed": claimed, **extra}, ((computed, claimed),)


def _point_checks(g: int, n: int):
    """Every ledger check at one (g, n) grid point, as (check, inputs,
    outputs, claims); `claims` holds (computed, claimed) pairs, each claimed
    side the paper's value as written here."""
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
        computed = double_dual_square(g, n, length)
        violation = computed < -2
        outputs, claims = _equal(
            computed, -2 * n * length, bogomolov_violation=violation
        )
        yield "double_dual_square", {"length": length}, outputs, (
            *claims, (violation, length > 0)
        )

    yield "extension_square", {}, *_equal(extension_square(g, n), -2 * (n * g + 1))

    for length in range(0, 3):
        expected_bound = 0  # raw route: the largest N whose square is >= -2
        for big_n in range(1, 2 * g + 1):
            computed = kernel_square(g, n, big_n, length)
            if computed >= -2:
                expected_bound = big_n
            yield "kernel_square", {"N": big_n, "length": length}, *_equal(
                computed, -2 * big_n - 2 * big_n * n * length + 2 * (g - 1)
            )
        # sharp: the claimed square 2(g-1) - 2N(1 + n*length) is >= -2 iff N <= this
        yield "kernel_square_bound", {"length": length}, *_equal(
            expected_bound, g // (1 + n * length)
        )

    for m in range(1, 13):
        if c2 % m:
            continue
        # m > 1 would undercut C^2, the least positive degree the transform preserves
        degree, allowed = c2 // m, m == 1
        yield "torsion_degree", {"m": m}, {"degree": degree, "allowed": allowed}, (
            (degree * m, c2), (allowed, m == 1)
        )

    yield "tensor_degree", {}, *_equal(n * n * report.d_square, c2)

    rank, degree = n, (g - 1) * n + 1  # the restricted bundles on a genus-g curve
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
