"""The closed-form kernel of a functional on Z^3 against the general row
Hermite reducer it replaced, and the two lattice routines built on it
against the routes they replaced.  The oracles take their Bezout pairs from
the extended Euclid loop below, not from the completion `src/` uses."""

from itertools import product
from math import gcd

import pytest

from k3mukai.bb import perp_basis
from k3mukai.dual_surface import quotient_lattice
from k3mukai.hermite import kernel_of_functional
from k3mukai.mukai import MukaiVector, NSGram
from k3mukai.quadforms import _complete


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def row_hermite(rows):
    """The general reducer, kept as an oracle: canonical row Hermite normal
    form of an integer matrix, pivots positive, entries above a pivot in
    [0, pivot), zero rows dropped."""
    mat = [list(row) for row in rows]
    if not mat:
        return []
    top = 0
    for col in range(len(mat[0])):
        found = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if found is None:
            continue
        mat[top], mat[found] = mat[found], mat[top]
        for i in range(top + 1, len(mat)):
            a, b = mat[top][col], mat[i][col]
            if b == 0:
                continue
            g, x, y = xgcd(a, b)
            # the 2x2 row operation [[x, y], [-b/g, a/g]] has determinant one
            rt, ri = mat[top], mat[i]
            mat[top] = [x * p + y * q for p, q in zip(rt, ri)]
            mat[i] = [(a // g) * q - (b // g) * p for p, q in zip(rt, ri)]
        if mat[top][col] < 0:
            mat[top] = [-e for e in mat[top]]
        pivot = mat[top][col]
        for i in range(top):
            q = mat[i][col] // pivot
            if q:
                mat[i] = [p - q * t for p, t in zip(mat[i], mat[top])]
        top += 1
        if top == len(mat):
            break
    return [tuple(row) for row in mat[:top]]


def reduced_kernel(coeffs):
    """The general kernel, kept as an oracle: column operations reduce the
    functional to (g, 0, ..., 0), and the images of the other coordinate
    directions, put in row Hermite normal form, span the integer kernel."""
    n = len(coeffs)
    a = list(coeffs)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for j in range(1, n):
        if a[j] == 0:
            continue
        g, x, y = xgcd(a[0], a[j])
        q0, qj = a[0] // g, a[j] // g
        c0, cj = cols[0], cols[j]
        cols[0] = [x * p + y * q for p, q in zip(c0, cj)]
        cols[j] = [q0 * q - qj * p for p, q in zip(c0, cj)]
        a[0], a[j] = g, 0
    return row_hermite(cols[1:])


def express_in_basis(target, basis):
    """The 2x2-minor solver `quotient_lattice` used, kept as an oracle:
    integer coordinates of `target` in a rank-two basis."""
    rows = [b.components() for b in basis]
    t = target.components()
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            det = rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
            if det == 0:
                continue
            alpha_num = t[i] * rows[1][j] - t[j] * rows[1][i]
            beta_num = rows[0][i] * t[j] - rows[0][j] * t[i]
            assert alpha_num % det == 0 and beta_num % det == 0
            alpha, beta = alpha_num // det, beta_num // det
            assert alpha * basis[0] + beta * basis[1] == target
            return alpha, beta
    raise AssertionError("basis is degenerate")


class TestKernelOfFunctional:
    def test_matches_general_reducer(self):
        count = 0
        for coeffs in product(range(-12, 13), repeat=3):
            if coeffs == (0, 0, 0):
                continue
            assert kernel_of_functional(coeffs) == reduced_kernel(coeffs), coeffs
            count += 1
        assert count == 15_624

    def test_rejects_zero_functional(self):
        with pytest.raises(ValueError, match="zero"):
            kernel_of_functional((0, 0, 0))

    @pytest.mark.parametrize("coeffs", [(), (1,), (1, 2), (1, 2, 3, 4)])
    def test_rejects_other_lengths(self, coeffs):
        with pytest.raises(ValueError, match="three coefficients"):
            kernel_of_functional(coeffs)


def test_perp_basis_matches_general_reducer():
    """Every primitive v with |entries| <= 6 on every even 2 <= C^2 <= 40."""
    count = 0
    for c2 in range(2, 41, 2):
        gram = NSGram.rank_one(c2)
        for r, c, s in product(range(-6, 7), repeat=3):
            if gcd(r, c, s) != 1:
                continue
            expected = [(kr, kc, ks) for kc, kr, ks in reduced_kernel((c * c2, -s, -r))]
            basis = perp_basis(MukaiVector(r, (c,), s), gram)
            assert [b.components() for b in basis] == expected, (r, c, s, c2)
            count += 1
    assert count == 34_600


@pytest.mark.parametrize("g", range(2, 11))
@pytest.mark.parametrize("n", range(2, 11))
def test_quotient_generator_matches_minor_solver(g, n):
    gram = NSGram.rank_one(2 * (g - 1) * n * n)
    w = MukaiVector(n, (1,), (g - 1) * n)
    basis = perp_basis(w, gram)
    alpha, beta = express_in_basis(w, basis)
    assert gcd(alpha, beta) == 1
    (_, x), (_, y) = _complete(alpha, beta)
    generator = quotient_lattice(w, gram).generator_image
    assert generator == x * basis[0] + y * basis[1]
    # w and the generator span w-perp: their coordinates have determinant +-1
    gx, gy = express_in_basis(generator, basis)
    assert alpha * gy - beta * gx in (1, -1)
