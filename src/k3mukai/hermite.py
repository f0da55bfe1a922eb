"""The integer kernel of one functional on Z^3, in closed form.

v-perp for v = (1, 0, 1-g) and w-perp for the isotropic w = (n, C, (g-1)n)
are such kernels.  Bases come as rows in row Hermite normal form (pivots
positive, the entry above the second pivot in [0, pivot)), which depends
only on the lattice, so every basis is reproducible.  The Bezout pair comes
from `quadforms._complete`, the library's one completion routine.
"""

from __future__ import annotations

from math import gcd

from .quadforms import _complete


def kernel_of_functional(coeffs) -> list[tuple[int, int, int]]:
    """Row Hermite basis of {x in Z^3 : coeffs . x = 0}.

    Divide (a, b, c) by its gcd and write h = gcd(b, c) = b*p - c*q, where
    (q, p) is the second column of the determinant-1 `_complete(b/h, c/h)`.
    Then a is prime to h, so every kernel vector has x0 in h*Z, and
    (h, -a*p, a*q) attains x0 = h; the kernel vectors with x0 = 0 are the
    multiples of (0, c, -b)/h.  These two rows, the second with its pivot
    made positive and the first reduced against it, are the normal form.
    When h = 0 the kernel is {x0 = 0}, with rows (0, 1, 0) and (0, 0, 1).
    """
    if len(coeffs) != 3:
        raise ValueError("functional must have three coefficients")
    d = gcd(*coeffs)
    if d == 0:
        raise ValueError("functional is zero; kernel is the whole lattice")
    a, b, c = (e // d for e in coeffs)
    h = gcd(b, c)
    if h == 0:
        return [(0, 1, 0), (0, 0, 1)]
    (_, q), (_, p) = _complete(b // h, c // h)
    # the pivot of (0, c, -b) is c, or -b when c = 0; make it positive
    low = (0, c // h, -b // h) if (c or -b) > 0 else (0, -c // h, b // h)
    pivot = 1 if c else 2
    top = (h, -a * p, a * q)
    k = top[pivot] // low[pivot]
    return [(h, top[1] - k * low[1], top[2] - k * low[2]), low]
