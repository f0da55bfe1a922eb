"""Exact arithmetic in the algebraic Mukai lattice of a K3 surface.

A coherent sheaf on a K3 surface determines a Mukai vector (r, c, s): the
rank, the first Chern class, and the degree-four component.  With the
Neron-Severi group presented by an integer Gram matrix G, the algebraic
Mukai lattice is Z + NS + Z and the Mukai pairing is

    <(r, c, s), (r', c', s')> = c.G.c' - r*s' - r'*s.

Everything here is exact: each constructor passes its components through
`operator.index` and hands them to `Value.__init__`, so they are Python
integers of any size (a float raises TypeError rather than being
truncated), and no floating point appears anywhere.  All values are
immutable, so every function in this module is safe to call from
concurrent threads.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import index

from .value import Value

__all__ = [
    "NSGram",
    "MukaiVector",
    "pairing",
    "square",
    "dual",
    "euler_characteristic",
    "is_primitive",
    "fineness_gcd",
]


# Entries kept per NSGram constructor cache.  A full 2 <= g, n <= 10 ledger
# sweep asks for 69 distinct rank-one and 171 distinct rank-two Gram
# matrices, so a sweep repeated in one process never evicts; the bound only
# stops a long-lived process from growing with every distinct input.  The
# caches are typed, so that 8.0 misses the entry of 8 and is rejected.
GRAM_CACHE_SIZE = 512


class NSGram(Value):
    """Intersection Gram matrix of the Neron-Severi generators.

    Rank one covers a K3 whose Picard group is generated by a single curve
    class C, with entries ((C^2,),).  Rank two covers the symbolic (D, E)
    lattice of the dual surface.  The diagonal must be even because the
    Neron-Severi lattice of a K3 is an even lattice.
    """

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        entries = tuple(tuple(map(index, row)) for row in entries)
        k = len(entries)
        if k not in (1, 2):
            raise ValueError(f"NS rank must be 1 or 2, got {k}")
        if any(len(row) != k for row in entries):
            raise ValueError("Gram matrix must be square")
        if any(entries[i][j] != entries[j][i] for i in range(k) for j in range(k)):
            raise ValueError("Gram matrix must be symmetric")
        if any(entries[i][i] % 2 for i in range(k)):
            raise ValueError("Gram diagonal must be even (K3 Neron-Severi lattice)")
        Value.__init__(self, entries=entries)

    @classmethod
    @lru_cache(maxsize=GRAM_CACHE_SIZE, typed=True)
    def rank_one(cls, c_squared: int) -> "NSGram":
        return cls(((c_squared,),))

    @classmethod
    @lru_cache(maxsize=GRAM_CACHE_SIZE, typed=True)
    def rank_two(cls, q11: int, q12: int, q22: int) -> "NSGram":
        return cls(((q11, q12), (q12, q22)))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def dot(self, c1: tuple[int, ...], c2: tuple[int, ...]) -> int:
        """Intersection product c1.G.c2 of two NS coordinate vectors."""
        entries = self.entries
        k = len(entries)
        if len(c1) != k or len(c2) != k:
            raise ValueError("NS coordinate length does not match Gram rank")
        if k == 1:
            return c1[0] * entries[0][0] * c2[0]
        return (
            c1[0] * (entries[0][0] * c2[0] + entries[0][1] * c2[1])
            + c1[1] * (entries[1][0] * c2[0] + entries[1][1] * c2[1])
        )


class MukaiVector(Value):
    """Element (r, c, s) of the algebraic Mukai lattice.

    `c` holds the NS coordinates (length 1 or 2).  Vectors form a Z-module;
    the operators below keep composite classes like N*a - b + c readable.
    """

    def __init__(self, r: int, c: tuple[int, ...], s: int):
        c = tuple(map(index, c))
        if len(c) not in (1, 2):
            raise ValueError(f"NS coordinate length must be 1 or 2, got {len(c)}")
        Value.__init__(self, r=index(r), c=c, s=index(s))
        self.__post_init__()

    def __post_init__(self):
        """Runs once per construction and stores nothing; a tracer wraps it
        to count the vectors built."""

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        self._check_rank(other)
        return MukaiVector(
            self.r + other.r,
            tuple(a + b for a, b in zip(self.c, other.c)),
            self.s + other.s,
        )

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return self + -other

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, tuple(-x for x in self.c), -self.s)

    def __mul__(self, scalar: int) -> "MukaiVector":
        return MukaiVector(
            self.r * scalar, tuple(x * scalar for x in self.c), self.s * scalar
        )

    __rmul__ = __mul__

    def _check_rank(self, other: "MukaiVector") -> None:
        if len(self.c) != len(other.c):
            raise ValueError("NS coordinate lengths differ")

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0 and not any(self.c)

    def components(self) -> tuple[int, ...]:
        return (self.r, *self.c, self.s)

    def __str__(self) -> str:
        if len(self.c) == 1:
            middle = str(self.c[0])
        else:
            middle = "[" + ", ".join(str(x) for x in self.c) + "]"
        return f"({self.r}, {middle}, {self.s})"


def pairing(v: MukaiVector, u: MukaiVector, gram: NSGram) -> int:
    """Mukai pairing <v, u> = c.G.c' - r*s' - r'*s."""
    return gram.dot(v.c, u.c) - v.r * u.s - u.r * v.s


def square(v: MukaiVector, gram: NSGram) -> int:
    """Self-pairing <v, v>; always even when the Gram diagonal is even."""
    return pairing(v, v, gram)


def dual(v: MukaiVector) -> MukaiVector:
    """Mukai vector of the dual sheaf: flips the sign of the NS part."""
    return MukaiVector(v.r, tuple(-x for x in v.c), v.s)


def euler_characteristic(v: MukaiVector, gram: NSGram) -> int:
    """Euler characteristic -<v, (1, 0, 1)>, which works out to r + s."""
    one = MukaiVector(1, (0,) * gram.rank, 1)
    return -pairing(v, one, gram)


def is_primitive(v: MukaiVector) -> bool:
    """True when the components of v have no common factor."""
    if v.is_zero():
        raise ValueError("primitivity is undefined for the zero vector")
    return gcd(*v.components()) == 1


def fineness_gcd(v: MukaiVector, gram: NSGram) -> int:
    """gcd(rank, degree, chi-component); 1 means a fine moduli space.

    The degree c.C is measured against the generator C of a rank-one
    `gram`.  When the gcd exceeds one it is the order of the gerbe
    obstructing a universal sheaf.
    """
    if v.is_zero():
        raise ValueError("fineness gcd is undefined for the zero vector")
    return gcd(v.r, gram.dot(v.c, (1,)), v.s)
