"""The recomputable check ledger: frozen examples and full grid sweeps."""

import pytest

from k3mukai.checks import double_dual_square, extension_square, kernel_square
from k3mukai.mukai import MukaiVector, NSGram, square


class TestDoubleDualSquare:
    def test_violating_example(self):
        computed = double_dual_square(2, 2, 1)
        assert computed == -4 == -2 * 2 * 1
        # below -2: the Bogomolov bound is violated
        assert computed < -2

    def test_locally_free_boundary(self):
        assert double_dual_square(2, 2, 0) == 0

    def test_direct_recomputation(self):
        computed = double_dual_square(4, 3, 2)
        assert computed == -12 == -2 * 3 * 2
        # third route: raw pairing on the explicit vector
        gram = NSGram.rank_one(2 * 3 * 9)
        assert square(MukaiVector(3, (1,), 3 * 3 + 2), gram) == -12

    def test_grid(self):
        for g in range(2, 21):
            for n in range(2, 21):
                for length in range(0, 6):
                    computed = double_dual_square(g, n, length)
                    assert computed == -2 * n * length
                    assert (computed < -2) == (length > 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            double_dual_square(2, 1, 0)
        with pytest.raises(ValueError):
            double_dual_square(2, 2, -1)


class TestExtensionSquare:
    def test_motivating_example(self):
        assert extension_square(2, 2) == -10

    def test_genus_three(self):
        assert extension_square(3, 2) == -14

    def test_grid(self):
        for g in range(2, 21):
            for n in range(2, 21):
                assert extension_square(g, n) == -2 * (n * g + 1) < -2


def kernel_square_scan(N, n, g, length, members):
    """Squares of the kernel class N(n,E,l) - (0,D,-k) + (0,0,length), built
    by hand at each member (k, l) of the family de = 1 - nk, e2 = 2nl."""
    values = set()
    for k, l in members:
        gram = NSGram.rank_two(2 * g - 2, 1 - n * k, 2 * n * l)
        vec = (
            N * MukaiVector(n, (0, 1), l)
            - MukaiVector(0, (1, 0), -k)
            + MukaiVector(0, (0, 0), length)
        )
        values.add(square(vec, gram))
    return values


class TestKernelSquare:
    def test_bogomolov_boundary_at_g(self):
        for n in (2, 3):
            for g in (2, 5):
                assert kernel_square(g, n, g, 0) == -2
                assert kernel_square(g, n, g + 1, 0) == -4

    def test_exclusion_above_g(self):
        assert kernel_square(2, 2, 3, 0) == -4 < -2

    def test_positive_square_example(self):
        assert kernel_square(5, 2, 1, 1) == 2 == -2 - 4 + 8

    def test_matches_explicit_vector_square(self):
        # rebuild the kernel class by hand for one family member
        N, n, g, length = 3, 2, 6, 1
        k, l = 2, -3
        de, e2 = 1 - n * k, 2 * n * l
        gram = NSGram.rank_two(2 * g - 2, de, e2)
        vec = (
            N * MukaiVector(n, (0, 1), l)
            - MukaiVector(0, (1, 0), -k)
            + MukaiVector(0, (0, 0), length)
        )
        assert square(vec, gram) == kernel_square(g, n, N, length)

    def test_one_member_matches_scan_of_family(self):
        # the old raw route rebuilt the class by hand at each member; over a
        # box of members it must give the one value the check reads at (0, 0)
        members = [(k, l) for k in range(-3, 4) for l in range(-3, 4)]
        for g in range(2, 7):
            for n in range(2, 7):
                for length in range(0, 3):
                    for N in range(1, 2 * g + 1):
                        computed = kernel_square(g, n, N, length)
                        scanned = kernel_square_scan(N, n, g, length, members)
                        assert scanned == {computed}

    def test_grid(self):
        for g in range(2, 21):
            for n in range(2, 21):
                for length in range(0, 6):
                    n_max = g // (1 + n * length)
                    for N in range(1, 2 * g + 1):
                        computed = kernel_square(g, n, N, length)
                        assert computed == -2 * N - 2 * N * n * length + 2 * (g - 1)
                        # the bound is sharp: N <= n_max iff square >= -2
                        assert (computed >= -2) == (N <= n_max)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_square(2, 2, 0, 0)
        with pytest.raises(ValueError):
            kernel_square(2, 2, 1, -1)
