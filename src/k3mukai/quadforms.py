"""Integral binary quadratic forms and sound GL2(Z)-equivalence testing.

Forms are symmetric integer Gram matrices [[m11, m12], [m12, m22]] acting as
f(x, y) = m11 x^2 + 2 m12 x y + m22 y^2.  Equivalence testing is sound but
deliberately incomplete: invariants (determinant first) certify
non-equivalence, a bounded unimodular search certifies equivalence, and
everything else is reported as undecided rather than guessed.  For the
Picard-lattice comparison this package exists for, the determinant always
settles the question.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

__all__ = [
    "QuadForm2",
    "PicardSchemeForm",
    "EquivalenceResult",
    "hilb_picard_form",
    "picard_scheme_form",
    "equivalent",
    "gen_picard_determinant",
    "isotropic_lines",
]


@dataclass(frozen=True)
class QuadForm2:
    """Symmetric 2x2 integer Gram matrix."""

    m11: int
    m12: int
    m22: int

    def determinant(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m12

    def content(self) -> int:
        """gcd of the Gram entries (zero only for the zero form)."""
        return gcd(self.m11, self.m12, self.m22)

    def value(self, x: int, y: int) -> int:
        return self.m11 * x * x + 2 * self.m12 * x * y + self.m22 * y * y

    def gram(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m12, self.m22))

    def transform(self, u: tuple[tuple[int, int], tuple[int, int]]) -> "QuadForm2":
        """Change of basis U^T M U for an integer 2x2 matrix U."""
        (a, b), (c, d) = u
        return QuadForm2(
            self.value(a, c),
            self.m11 * a * b + self.m12 * (a * d + b * c) + self.m22 * c * d,
            self.value(b, d),
        )

    def __str__(self) -> str:
        return f"[[{self.m11}, {self.m12}], [{self.m12}, {self.m22}]]"


def isotropic_lines(form: QuadForm2) -> tuple[tuple[int, int], ...]:
    """The primitive (x, y) with f(x, y) = 0, one per isotropic line, either sign.

    m11 f = (m11 x + m12 y)^2 + det y^2, so for det < 0 the two lines exist
    when -det = t^2 is a square, x : y = (-m12 +- t) : m11; when m11 = 0,
    f = y (2 m12 x + m22 y) gives (1, 0) and (m22, -2 m12).  det > 0 gives
    no line, and a degenerate form (det = 0) raises ValueError.
    """
    det = form.determinant()
    if det == 0:
        raise ValueError("isotropic lines of a degenerate form")
    if det > 0:
        return ()
    t = isqrt(-det)
    if t * t != -det:
        return ()
    if form.m11 == 0:
        directions = ((1, 0), (form.m22, -2 * form.m12))
    else:
        directions = ((-form.m12 + t, form.m11), (-form.m12 - t, form.m11))
    return tuple((x // gcd(x, y), y // gcd(x, y)) for x, y in directions)


def hilb_picard_form(g: int, n: int) -> QuadForm2:
    """Picard Gram matrix diag(2(g-1)n^2, -2(g-1)) of the Hilbert scheme."""
    if g < 2 or n < 2:
        raise ValueError("hilb_picard_form requires g >= 2 and n >= 2")
    return QuadForm2(2 * (g - 1) * n * n, 0, -2 * (g - 1))


class PicardSchemeForm(NamedTuple):
    """Picard Gram matrix of a degree-d relative compactified Picard scheme,
    with the generators (0, 0, 1) and (a0, b0 D, 0) that produce it."""

    form: QuadForm2
    a0: int
    b0: int
    ell: int


def picard_scheme_form(g: int, d: int) -> PicardSchemeForm:
    """Gram matrix [[0, -a0], [-a0, 2(g-1) b0^2]] of the degree-d scheme.

    a0 = 2(g-1)/ell and b0 = (d+1-g)/ell with ell their gcd; when d+1-g = 0
    the convention gcd(x, 0) = |x| gives ell = 2(g-1), a0 = 1, b0 = 0.
    """
    if g < 2:
        raise ValueError("picard_scheme_form requires g >= 2")
    t = d + 1 - g
    ell = gcd(2 * (g - 1), t)
    a0 = 2 * (g - 1) // ell
    b0 = t // ell
    return PicardSchemeForm(QuadForm2(0, -a0, 2 * (g - 1) * b0 * b0), a0, b0, ell)


def _definiteness(f: QuadForm2) -> str:
    d = f.determinant()
    if d > 0:
        return "positive" if f.m11 > 0 else "negative"
    if d < 0:
        return "indefinite"
    if f.m11 > 0 or f.m22 > 0:
        return "semi-positive"
    if f.m11 < 0 or f.m22 < 0:
        return "semi-negative"
    return "zero"


def _residues(f: QuadForm2, modulus: int) -> frozenset[int]:
    # f(x, y) mod m only depends on x, y mod m, and a unimodular substitution
    # permutes (Z/m)^2, so the represented residue set is an invariant
    return frozenset(
        f.value(x, y) % modulus for x in range(modulus) for y in range(modulus)
    )


_INVARIANTS = (
    ("determinant", QuadForm2.determinant),
    ("content", QuadForm2.content),
    ("definiteness", _definiteness),
    ("residues mod 4", lambda f: _residues(f, 4)),
    ("residues mod 8", lambda f: _residues(f, 8)),
)


def _iter_unimodular(bound: int, proper: bool):
    """2x2 integer matrices with |entries| <= bound and det +-1 (det 1 when
    proper), in lexicographic order of (a, b, c, d)."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    det = a * d - b * c
                    if det == 1 or (not proper and det == -1):
                        yield ((a, b), (c, d))


@lru_cache(maxsize=32)
def _small_unimodular(bound: int, proper: bool):
    return tuple(_iter_unimodular(bound, proper))


def _unimodular_matrices(bound: int, proper: bool):
    # materializing large boxes would cost (2*bound+1)^4 memory
    if bound <= 6:
        return _small_unimodular(bound, proper)
    return _iter_unimodular(bound, proper)


@dataclass(frozen=True)
class EquivalenceResult:
    """Sound three-valued answer to a GL2(Z)-equivalence question.

    `equivalent` carries a witness basis change, `not_equivalent` carries
    the name and values of the separating invariant, and `undecided` means
    the invariants agree but no witness was found within the search bound.
    """

    verdict: str
    certificate: str | None = None
    values: tuple | None = None
    witness: tuple[tuple[int, int], tuple[int, int]] | None = None


def equivalent(
    f1: QuadForm2, f2: QuadForm2, search_bound: int, proper: bool = False
) -> EquivalenceResult:
    """Decide GL2(Z)-equivalence (SL2(Z) when proper=True), soundly.

    Invariants are checked first, determinant foremost; if all agree, a
    lexicographic search over unimodular matrices with entries bounded by
    search_bound looks for a witness U with U^T f1 U = f2.
    """
    if search_bound < 1:
        raise ValueError("search bound must be at least 1")
    for name, invariant in _INVARIANTS:
        left, right = invariant(f1), invariant(f2)
        if left != right:
            return EquivalenceResult(
                "not_equivalent", certificate=name, values=(left, right)
            )
    for u in _unimodular_matrices(search_bound, proper):
        if f1.transform(u) == f2:
            return EquivalenceResult("equivalent", witness=u)
    return EquivalenceResult("undecided")


def gen_picard_determinant(c2: int) -> int:
    """Determinant of the rank-three generalized Picard lattice U + <c2>.

    A block sum multiplies determinants, so this is the determinant of the
    hyperbolic plane U = [[0, 1], [1, 0]] times c2, that is -c2; comparing
    these determinants for C^2 = 2(g-1)n^2 against D^2 = 2(g-1) is what
    rules out an untwisted equivalence of the two surfaces.
    """
    if c2 <= 0 or c2 % 2:
        raise ValueError("c2 must be a positive even integer")
    return QuadForm2(0, 1, 0).determinant() * c2
