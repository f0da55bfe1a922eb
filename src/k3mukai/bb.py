"""Divisor-class arithmetic on the Hilbert scheme of points of a K3.

For X = Hilb^g(S) with Pic(S) generated by a curve class C, the algebraic
part of H^2(X, Z) under the Beauville-Bogomolov quadratic form is spanned
by C and the exceptional half-diagonal class E, with Gram matrix
diag(C^2, -2(g-1)).  A nonzero divisor class of square zero is the
numerical signal of a Lagrangian fibration; finding one amounts to the
Pell-type equation a^2 C^2 = 2(g-1) b^2, which has a nonzero solution
precisely when 2(g-1) C^2 is a perfect square.
"""

from __future__ import annotations

from operator import index

from .hermite import kernel_of_functional
from .mukai import MukaiVector, NSGram, is_primitive, pairing
from .quadforms import QuadForm2, isotropic_lines
from .value import Value

__all__ = [
    "BBClass",
    "BBLattice",
    "IsotropicSearch",
    "isotropic_exists",
    "find_isotropic",
    "fujiki_degree",
    "perp_basis",
]


class BBClass(Value):
    """Divisor class a*C + b*E in (C, E) coordinates."""

    def __init__(self, a: int, b: int):
        Value.__init__(self, a=a, b=b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


class BBLattice(Value):
    """Rank-two Beauville-Bogomolov lattice diag(c2, -2(g-1))."""

    def __init__(self, c2: int, g: int):
        c2, g = index(c2), index(g)
        if c2 <= 0 or c2 % 2:
            raise ValueError("c2 must be a positive even integer")
        if g < 2:
            raise ValueError("g must be at least 2")
        Value.__init__(self, c2=c2, g=g)

    @property
    def form(self) -> QuadForm2:
        return QuadForm2(self.c2, 0, -2 * (self.g - 1))


class IsotropicSearch(Value):
    """Primitive isotropic classes with 0 < a <= bound, plus the closed-form
    existence verdict for the unbounded problem."""

    def __init__(self, classes: tuple[BBClass, ...], exists_nontrivial: bool):
        Value.__init__(self, classes=classes, exists_nontrivial=exists_nontrivial)


def isotropic_exists(lat: BBLattice) -> bool:
    """Closed form: a nonzero isotropic class exists iff 2(g-1)c2 is square."""
    return bool(isotropic_lines(lat.form))


def find_isotropic(lat: BBLattice, bound: int) -> IsotropicSearch:
    """Primitive isotropic classes (a, b) with 0 < a <= bound.

    They are the isotropic lines of diag(c2, -2(g-1)), taken with a > 0 and
    listed as (a, |b|) then (a, -|b|); the bound only filters them.
    `exists_nontrivial` refers to the unbounded problem, so true with an
    empty list only means the bound was too small (a^2 divides 2(g-1)).
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    lines = isotropic_lines(lat.form)
    classes = [BBClass(abs(a), b if a > 0 else -b) for a, b in lines]
    classes.sort(key=lambda cls: (cls.a, -cls.b))
    return IsotropicSearch(tuple(c for c in classes if c.a <= bound), bool(lines))


def fujiki_degree(qH: int, qHL: int, qL: int, g: int) -> int:
    """Degree in t of (qH + 2 qHL t + qL t^2)^g.

    The three possible answers 0, g, 2g are the numerical shadow of the
    base-dimension trichotomy for fibrations of a 2g-dimensional
    holomorphic symplectic manifold.
    """
    if g < 1:
        raise ValueError("g must be at least 1")
    if qH == 0 and qHL == 0 and qL == 0:
        raise ValueError("the zero polynomial has no degree")
    if qL != 0:
        return 2 * g
    if qHL != 0:
        return g
    return 0


def perp_basis(v: MukaiVector, gram: NSGram) -> tuple[MukaiVector, MukaiVector]:
    """Canonical basis of the rank-two sublattice orthogonal to v.

    v-perp is the kernel of <v, .> on the rank-three algebraic Mukai
    lattice over a rank-one NS.  In (c, r, s) coordinates, so that divisor
    directions lead, `kernel_of_functional` gives its Hermite basis: the
    second vector has c = 0, the first c > 0 unless v.r = v.s = 0.
    """
    if gram.rank != 1:
        raise ValueError("perpendicular basis requires a rank-one NS lattice")
    if not is_primitive(v):
        raise ValueError("v must be primitive")
    c2 = gram.entries[0][0]
    # <v, .> as a functional in (c, r, s) coordinates
    rows = kernel_of_functional((v.c[0] * c2, -v.s, -v.r))
    return tuple(MukaiVector(r, (c,), s) for c, r, s in rows)


def _basis_form(b1: MukaiVector, b2: MukaiVector, gram: NSGram) -> QuadForm2:
    """Gram matrix of the Mukai pairing in the basis (b1, b2)."""
    return QuadForm2(pairing(b1, b1, gram), pairing(b1, b2, gram), pairing(b2, b2, gram))
