"""Integral binary quadratic forms and a GL2(Z)-equivalence decision.

Forms are symmetric integer Gram matrices [[m11, m12], [m12, m22]] acting as
f(x, y) = m11 x^2 + 2 m12 x y + m22 y^2.  Equivalence is decided, not
searched: different determinants certify non-equivalence, and otherwise both
forms are reduced to the canonical form of their class (Gauss reduction, the
cycle of reduced indefinite forms, or an isotropic line moved to (1, 0));
equal canonical forms give a witness, different ones certify
non-equivalence.  For the Picard-lattice comparison this package exists
for, the determinant always settles the question.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import index

from .value import Value

__all__ = [
    "QuadForm2",
    "PicardSchemeForm",
    "EquivalenceResult",
    "picard_scheme_form",
    "canonical",
    "equivalent",
    "gen_picard_determinant",
    "isotropic_lines",
]


class QuadForm2(Value):
    """Symmetric 2x2 integer Gram matrix."""

    def __init__(self, m11: int, m12: int, m22: int):
        Value.__init__(self, m11=index(m11), m12=index(m12), m22=index(m22))

    def determinant(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m12

    def value(self, x: int, y: int) -> int:
        return self.m11 * x * x + 2 * self.m12 * x * y + self.m22 * y * y

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


class PicardSchemeForm(Value):
    """Picard Gram matrix of a degree-d relative compactified Picard scheme,
    with the generators (0, 0, 1) and (a0, b0 D, 0) that produce it."""

    def __init__(self, form: QuadForm2, a0: int, b0: int, ell: int):
        Value.__init__(self, form=form, a0=a0, b0=b0, ell=ell)


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


Matrix = tuple[tuple[int, int], tuple[int, int]]


def _mul(u: Matrix, v: Matrix) -> Matrix:
    (a, b), (c, d) = u
    (e, f), (g, h) = v
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _complete(x: int, y: int) -> Matrix:
    """A determinant-1 matrix with first column (x, y); x and y must be coprime."""
    if y == 0:
        return ((x, 0), (0, x))
    s = pow(x, -1, abs(y))
    return ((x, (x * s - 1) // y), (y, s))


def _rho(f: tuple[int, int, int], w: int) -> tuple[tuple[int, int, int], int]:
    """One reduction step (a, b, c) -> (c, r, .) of an indefinite form with
    b^2 - ac = D not a square and w = isqrt(D), through ((0, -1), (1, s)):
    r = -b mod |c|, in (-|c|/2, |c|/2] when |c| > 2 sqrt(D), else in
    (sqrt(D) - |c|, sqrt(D))."""
    a, b, c = f
    m = abs(c)
    top = w if m * m < 4 * (b * b - a * c) else m // 2
    r = top - (top + b) % m
    return (c, r, (r * r - b * b + a * c) // c), (r + b) // c


def _proper_canonical(f: QuadForm2) -> tuple[tuple[int, int, int], Matrix]:
    """The least reduced form of f's SL2(Z) class and a det-1 U onto it."""
    a, b, c = f.m11, f.m12, f.m22
    det = a * c - b * b
    u = ((1, 0), (0, 1))
    if det > 0:
        # Gauss reduction of the positive definite sign(a) f:
        # |2b| <= a <= c, with b >= 0 when 2|b| = a or a = c
        sign = 1 if a > 0 else -1
        a, b, c = sign * a, sign * b, sign * c
        while True:
            k = (a - 2 * b) // (2 * a)
            b, c = b + k * a, c + k * (2 * b + k * a)
            u = _mul(u, ((1, k), (0, 1)))
            if a < c or (a == c and b >= 0):
                return (sign * a, sign * b, sign * c), u
            a, b, c = c, -b, a
            u = _mul(u, ((0, -1), (1, 0)))
    if det == 0:
        # f = k (linear form)^2: send the kernel line to (1, 0), giving (0, 0, k)
        x, y = (-b, a) if a else (1, 0)
        u = _complete(x // gcd(x, y), y // gcd(x, y))
        return (0, 0, f.transform(u).m22), u
    w = isqrt(-det)
    if w * w == -det:
        # send each isotropic line to (1, 0): (0, +-w, c) with c mod 2w free
        found = []
        for x, y in isotropic_lines(f):
            u = _complete(x, y)
            moved = f.transform(u)
            m22 = moved.m22 % (2 * w)
            k = (m22 - moved.m22) // (2 * moved.m12)
            found.append(((0, moved.m12, m22), _mul(u, ((1, k), (0, 1)))))
        return min(found)
    # non-square: reduce to |sqrt(D) - |a|| < b < sqrt(D), walk the cycle of
    # reduced forms on the forms alone, then replay it up to the least form
    f = (a, b, c)
    while not (0 < f[1] <= w and abs(f[0]) - f[1] <= w < abs(f[0]) + f[1]):
        f, s = _rho(f, w)
        u = _mul(u, ((0, -1), (1, s)))
    cycle, walked = [f], _rho(f, w)[0]
    while walked != f:
        cycle.append(walked)
        walked = _rho(walked, w)[0]
    for _ in range(cycle.index(min(cycle))):
        f, s = _rho(f, w)
        u = _mul(u, ((0, -1), (1, s)))
    return f, u


def canonical(f: QuadForm2, proper: bool = False) -> tuple[QuadForm2, Matrix]:
    """A canonical form of f's GL2(Z) class (SL2(Z) when proper) and a
    unimodular U with f.transform(U) equal to it.

    Within an SL2(Z) class: the Gauss-reduced form when definite, the least
    of the two forms (0, +-t, c mod 2t) that put an isotropic line at (1, 0)
    when -det = t^2, the least form on the cycle of reduced forms when -det
    is positive and not a square, and (0, 0, k) when det = 0.  A GL2(Z)
    class is two SL2(Z) classes, f's and its mirror's; take the lesser.
    """
    found = [_proper_canonical(f)]
    if not proper:
        form, ((a, b), (c, d)) = _proper_canonical(QuadForm2(f.m11, -f.m12, f.m22))
        found.append((form, ((a, b), (-c, -d))))
    form, u = min(found)
    return QuadForm2(*form), u


class EquivalenceResult(Value):
    """Decided answer to a GL2(Z)- or SL2(Z)-equivalence question.

    `equivalent` carries a witness basis change; `not_equivalent` carries
    `determinant` and the two determinants, or `reduced_form` and the two
    differing canonical forms.
    """

    def __init__(self, verdict: str, certificate: str | None = None,
                 values: tuple | None = None, witness: Matrix | None = None):
        Value.__init__(self, verdict=verdict, certificate=certificate, values=values,
                       witness=witness)


def equivalent(f1: QuadForm2, f2: QuadForm2, proper: bool = False) -> EquivalenceResult:
    """Decide GL2(Z)-equivalence (SL2(Z) when proper=True).

    Different determinants decide at once; otherwise the canonical forms
    decide, and equal ones give the witness U1 U2^-1 with U^T f1 U = f2,
    re-checked by `transform`.
    """
    det1, det2 = f1.determinant(), f2.determinant()
    if det1 != det2:
        return EquivalenceResult(
            "not_equivalent", certificate="determinant", values=(det1, det2)
        )
    (form1, u1), (form2, u2) = canonical(f1, proper), canonical(f2, proper)
    if form1 != form2:
        return EquivalenceResult(
            "not_equivalent", certificate="reduced_form", values=(form1, form2)
        )
    (a, b), (c, d) = u2
    e = a * d - b * c  # +-1, so U2^-1 is e times the adjugate
    witness = _mul(u1, ((e * d, -e * b), (-e * c, e * a)))
    if f1.transform(witness) != f2:
        raise AssertionError(f"witness {witness} does not map {f1} to {f2}")
    return EquivalenceResult("equivalent", witness=witness)


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
