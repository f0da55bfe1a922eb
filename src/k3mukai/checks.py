"""Recomputable numeric checks behind the stability and section-counting
arguments.

Most checks return (computed, claimed): a raw Mukai-pairing computation on
explicitly constructed vectors, and the paper's closed form for it.  Three
return closed-form data alone: `kernel_square_bound` an int,
`torsion_degree` (degree, allowed) and `brill_noether_data` (rank, degree).
Five ledger kinds compare two closed forms, `picard_determinants` on its
Hilb side only: `brill_noether_unit`, `fujiki_constant_degree`,
`picard_determinants`, `tensor_degree` and `torsion_degree`.
A (g, n) outside the family raises ValueError in `family_c2`.
Nothing here decides pass or fail; `cli.ledger_checks` does.
"""

from __future__ import annotations

from .dual_surface import family_c2, member_gram
from .mukai import MukaiVector, NSGram, square

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


def double_dual_square(n: int, g: int, length: int) -> tuple[int, int]:
    """Square of the double dual (n, C, (g-1)n + length), claimed -2n*length.

    A positive length violates the Bogomolov bound (square < -2), which is
    how local freeness of the dual-surface sheaves is forced.
    """
    _require(length >= 0, "need length >= 0")
    gram = NSGram.rank_one(family_c2(g, n))
    vec = MukaiVector(n, (1,), (g - 1) * n + length)
    return square(vec, gram), -2 * n * length


def extension_square(n: int, g: int) -> tuple[int, int]:
    """Square of the extension class (n+1, -C, (g-1)n + 1), claimed -2(ng+1).

    Always below -2, so the extension sheaf can never be stable; that
    contradiction kills the higher cohomology of the dual-surface bundles.
    """
    gram = NSGram.rank_one(family_c2(g, n))
    vec = MukaiVector(n + 1, (-1,), (g - 1) * n + 1)
    return square(vec, gram), -2 * (n * g + 1)


def kernel_square(N: int, n: int, g: int, length: int) -> tuple[int, int]:
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


def kernel_square_bound(n: int, g: int, length: int) -> int:
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
