"""Recomputable numeric checks behind the stability and section-counting
arguments.

Every check evaluates its quantity two ways: a closed-form expression and a
raw Mukai-pairing computation on explicitly constructed vectors.  A check
passes only when both routes agree, so nothing here merely restates a
formula.
"""

from __future__ import annotations

from .dual_surface import member_gram
from .mukai import MukaiVector, NSGram, square
from .value import Value

__all__ = [
    "CheckResult",
    "double_dual_square",
    "extension_square",
    "kernel_square",
    "torsion_degree",
    "tensor_degree_check",
    "brill_noether_data",
]


class CheckResult(Value):
    def __init__(self, name: str, computed: int, claimed: int, passed: bool,
                 context: dict | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "claimed", claimed)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "context", {} if context is None else context)


def _result(name: str, computed: int, claimed: int, **context) -> CheckResult:
    return CheckResult(name, computed, claimed, computed == claimed, context)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def double_dual_square(n: int, g: int, length: int) -> CheckResult:
    """Square of the double dual (n, C, (g-1)n + length), claimed -2n*length.

    A positive length violates the Bogomolov bound (square < -2), which is
    how local freeness of the dual-surface sheaves is forced.
    """
    _require(n >= 2 and g >= 2 and length >= 0, "need n >= 2, g >= 2, length >= 0")
    gram = NSGram.rank_one(2 * (g - 1) * n * n)
    vec = MukaiVector(n, (1,), (g - 1) * n + length)
    computed = square(vec, gram)
    return _result(
        "double_dual_square",
        computed,
        -2 * n * length,
        g=g,
        n=n,
        length=length,
        bogomolov_violation=computed < -2,
    )


def extension_square(n: int, g: int) -> CheckResult:
    """Square of the extension class (n+1, -C, (g-1)n + 1), claimed -2(ng+1).

    Always below -2, so the extension sheaf can never be stable; that
    contradiction kills the higher cohomology of the dual-surface bundles.
    """
    _require(n >= 2 and g >= 2, "need n >= 2 and g >= 2")
    gram = NSGram.rank_one(2 * (g - 1) * n * n)
    vec = MukaiVector(n + 1, (-1,), (g - 1) * n + 1)
    computed = square(vec, gram)
    return _result("extension_square", computed, -2 * (n * g + 1), g=g, n=n)


def kernel_square(N: int, n: int, g: int, length: int) -> tuple[CheckResult, int]:
    """Square of the evaluation kernel N(n,E,l) - (0,D,-k) + (0,0,length).

    Claimed value -2N - 2Nn*length + 2(g-1); the raw route evaluates the
    vector at the family member (k, l) = (0, 0), in its `member_gram`.  One
    member settles every member: the square expands into N^2 times the
    square of (n, +-E, l), -2N times `unit_pairing`, the square of
    (0, D, k), and pairings with (0, 0, 1) that do not move with (k, l).
    The first three are pairings the transform preserves, so `family_holds`
    (the ledger's `transform_constraints` record) fixes them at 0, 1 and
    2g - 2 for every integer (k, l).  Also returns the largest N compatible
    with the Bogomolov bound (square >= -2), namely g // (1 + n*length).
    """
    _require(N >= 1 and n >= 2 and g >= 2 and length >= 0, "bad kernel arguments")
    vec = MukaiVector(N * n, (-1, N), length)  # the kernel class at k = l = 0
    computed = square(vec, member_gram(g, n))
    claimed = -2 * N - 2 * N * n * length + 2 * (g - 1)
    n_max = g // (1 + n * length)
    result = _result(
        "kernel_square", computed, claimed, g=g, n=n, N=N, length=length
    )
    return result, n_max


def torsion_degree(g: int, n: int, m: int) -> tuple[int, bool]:
    """Degree 2(g-1)n^2 / m of a twisted sheaf supported on D/m.

    Only m = 1 is allowed: the transform preserves the smallest positive
    degree, which on the source surface is C^2 = 2(g-1)n^2 itself.  Any
    m > 1 would produce a smaller positive degree, proving the genus-g
    curve class primitive.
    """
    _require(g >= 2 and n >= 2 and m >= 1, "need g >= 2, n >= 2, m >= 1")
    total = 2 * (g - 1) * n * n
    degree, remainder = divmod(total, m)
    if remainder:
        raise ValueError(f"{m} does not divide {total}")
    return degree, m == 1


def tensor_degree_check(g: int, n: int) -> CheckResult:
    """Degree n^2 D^2 of the twisted tensor product, against C^2.

    The raw route measures the class n*D against the polarization n*D in
    the `member_gram` of the family member (k, l) = (0, 0) (the answer does
    not involve its D.E or E^2 entries); the closed form is
    C^2 = 2(g-1)n^2 on the source side.
    """
    _require(g >= 2 and n >= 2, "need g >= 2 and n >= 2")
    computed = member_gram(g, n).dot((n, 0), (n, 0))
    return _result("tensor_degree", computed, 2 * (g - 1) * n * n, g=g, n=n)


def brill_noether_data(g: int, n: int) -> tuple[int, int]:
    """(rank, degree) = (n, (g-1)n + 1) of the restricted bundles on a
    genus-g curve; degree - (g-1)*rank = 1 always."""
    _require(g >= 2 and n >= 2, "need g >= 2 and n >= 2")
    return n, (g - 1) * n + 1
