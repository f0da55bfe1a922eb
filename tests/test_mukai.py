"""Mukai lattice arithmetic: worked examples and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3mukai.cli import ledger_checks
from k3mukai.mukai import (
    GRAM_CACHE_SIZE,
    MukaiVector,
    NSGram,
    dual,
    euler_characteristic,
    fineness_gcd,
    is_primitive,
    pairing,
    square,
)

G8 = NSGram.rank_one(8)


def vec(r, c, s):
    return MukaiVector(r, (c,), s)


class TestNSGram:
    def test_rank_one(self):
        assert G8.rank == 1
        assert G8.dot((3,), (2,)) == 48

    def test_rank_two(self):
        gram = NSGram.rank_two(2, 1, 0)
        assert gram.rank == 2
        assert gram.dot((1, 0), (0, 1)) == 1
        assert gram.dot((1, 1), (1, 1)) == 4

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            NSGram.rank_one(7)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            NSGram(((2, 1), (0, 2)))

    def test_rejects_rank_three(self):
        with pytest.raises(ValueError):
            NSGram(((2, 0, 0), (0, 2, 0), (0, 0, 2)))

    def test_dot_dimension_mismatch(self):
        with pytest.raises(ValueError):
            G8.dot((1, 2), (1, 2))
        # one matching length is not enough
        with pytest.raises(ValueError):
            NSGram.rank_one(2).dot((1,), (1, 2))


class TestMukaiVector:
    def test_difference_with_nonzero_ranks(self):
        assert vec(2, 1, 3) - vec(1, 1, 1) == vec(1, 0, 2)

    def test_str_of_rank_two_ns(self):
        assert str(MukaiVector(0, (1, 0), 5)) == "(0, [1, 0], 5)"

    @pytest.mark.parametrize("c", [(), (1, 0, 0)])
    def test_rejects_ns_length_other_than_one_or_two(self, c):
        with pytest.raises(ValueError, match="NS coordinate length must be 1 or 2"):
            MukaiVector(1, c, 1)


class TestPairing:
    def test_w_is_isotropic(self):
        w = vec(2, 1, 2)
        assert pairing(w, w, G8) == 0

    def test_hilbert_vector_square_is_2g_minus_2(self):
        g = 3
        v = vec(1, 0, 1 - g)
        assert pairing(v, v, G8) == 2 * g - 2 == 4

    def test_zero_vector_pairs_to_zero(self):
        assert pairing(vec(0, 0, 0), vec(5, -3, 7), G8) == 0

    def test_dimension_mismatch(self):
        gram2 = NSGram.rank_two(2, 0, 2)
        with pytest.raises(ValueError):
            pairing(vec(1, 0, 1), vec(1, 0, 1), gram2)


class TestSquare:
    @pytest.mark.parametrize("g,n", [(2, 2), (3, 2), (5, 4)])
    def test_w_family_isotropic(self, g, n):
        gram = NSGram.rank_one(2 * (g - 1) * n * n)
        assert square(vec(n, 1, (g - 1) * n), gram) == 0

    def test_hilbert_vector(self):
        assert square(vec(1, 0, -1), G8) == 2

    def test_point_class(self):
        assert square(vec(0, 0, 1), G8) == 0


class TestDual:
    def test_flips_ns_sign(self):
        assert dual(vec(2, 1, 2)) == vec(2, -1, 2)

    def test_fixed_point(self):
        assert dual(vec(1, 0, -1)) == vec(1, 0, -1)

    def test_involution(self):
        v = vec(3, -2, 5)
        assert dual(dual(v)) == v


class TestEulerCharacteristic:
    def test_dual_surface_bundles(self):
        # rank n, g points: chi = g*n sections
        assert euler_characteristic(vec(2, 1, 2), G8) == 4

    def test_point_sheaf(self):
        assert euler_characteristic(vec(0, 0, 1), G8) == 1

    def test_ideal_sheaf_riemann_roch(self):
        # Riemann-Roch on a K3: chi = r + s
        g = 5
        assert euler_characteristic(vec(1, 0, 1 - g), G8) == 2 - g == -3

    def test_independent_of_gram(self):
        v = vec(3, 7, -5)
        assert euler_characteristic(v, G8) == euler_characteristic(
            v, NSGram.rank_one(30)
        )


class TestIsPrimitive:
    @pytest.mark.parametrize("g,n", [(2, 2), (3, 2), (7, 5)])
    def test_w_family(self, g, n):
        assert is_primitive(vec(n, 1, (g - 1) * n))

    def test_common_factor(self):
        assert not is_primitive(vec(2, 0, 2))

    def test_leading_one(self):
        assert is_primitive(vec(1, 0, -6))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            is_primitive(vec(0, 0, 0))


class TestFinenessGcd:
    def test_motivating_example_not_fine(self):
        assert fineness_gcd(vec(2, 1, 2), G8) == 2

    @pytest.mark.parametrize("g", range(2, 8))
    @pytest.mark.parametrize("n", range(2, 8))
    def test_gerbe_order_is_n(self, g, n):
        gram = NSGram.rank_one(2 * (g - 1) * n * n)
        assert fineness_gcd(vec(n, 1, (g - 1) * n), gram) == n

    def test_hilbert_scheme_fine(self):
        assert fineness_gcd(vec(1, 0, -3), G8) == 1

    def test_degree_is_measured_against_the_generator(self):
        # c.C = C^2 = 2, so gcd(4, 2, 4); measuring against 2C would give 4
        assert fineness_gcd(vec(4, 1, 4), NSGram.rank_one(2)) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            fineness_gcd(vec(0, 0, 0), G8)


class Integer:
    """An integer type other than int: it defines __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestIntegerEntries:
    """Constructors take any integer and reject a float instead of truncating it."""

    @pytest.mark.parametrize(
        "r, c, s",
        [(1.0, (0,), 0), (1, (2.7,), 0), (1, (0, Fraction(1, 2)), 0), (1, (0,), -1.5)],
        ids=["r", "c", "c-rank-two", "s"],
    )
    def test_mukai_vector_rejects_non_integers(self, r, c, s):
        with pytest.raises(TypeError):
            MukaiVector(r, c, s)

    def test_nsgram_rejects_non_integers(self):
        with pytest.raises(TypeError):
            NSGram(((8.9,),))
        with pytest.raises(TypeError):
            NSGram(((2, 0.5), (0.5, 2)))
        # the cache must not hand back the Gram built for the equal int 8
        NSGram.rank_one(8)
        with pytest.raises(TypeError):
            NSGram.rank_one(8.0)

    def test_integer_types_become_int(self):
        v = MukaiVector(Integer(7), (True, Integer(-3)), Integer(2))
        assert v.components() == (7, 1, -3, 2)
        assert all(type(x) is int for x in v.components())
        assert NSGram(((Integer(8),),)) == G8


# ---------------------------------------------------------------------------
# algebraic properties

even = st.integers(min_value=-40, max_value=40).map(lambda x: 2 * x)
small = st.integers(min_value=-99, max_value=99)


@st.composite
def gram_and_vectors(draw, count=2):
    rank = draw(st.integers(min_value=1, max_value=2))
    if rank == 1:
        gram = NSGram.rank_one(draw(even))
    else:
        gram = NSGram.rank_two(draw(even), draw(small), draw(even))
    vectors = tuple(
        MukaiVector(
            draw(small), tuple(draw(small) for _ in range(rank)), draw(small)
        )
        for _ in range(count)
    )
    return gram, vectors


@given(gram_and_vectors())
def test_pairing_symmetric(data):
    gram, (v, u) = data
    assert pairing(v, u, gram) == pairing(u, v, gram)


@given(gram_and_vectors(count=3), small, small)
def test_pairing_bilinear(data, a, b):
    gram, (v, v2, u) = data
    assert pairing(a * v + b * v2, u, gram) == a * pairing(v, u, gram) + b * pairing(
        v2, u, gram
    )


@given(gram_and_vectors(count=1))
def test_square_even(data):
    gram, (v,) = data
    assert square(v, gram) % 2 == 0


@given(gram_and_vectors())
def test_dual_is_isometry(data):
    gram, (v, u) = data
    assert pairing(dual(v), dual(u), gram) == pairing(v, u, gram)


@given(gram_and_vectors(count=1))
def test_euler_characteristic_is_r_plus_s(data):
    gram, (v,) = data
    assert euler_characteristic(v, gram) == v.r + v.s


class TestGramCache:
    def test_caches_are_bounded(self):
        for q12 in range(3 * GRAM_CACHE_SIZE):
            NSGram.rank_two(2, q12, 0)
        for cached in (NSGram.rank_one, NSGram.rank_two):
            info = cached.cache_info()
            assert info.maxsize == GRAM_CACHE_SIZE
            assert info.currsize <= info.maxsize

    def test_full_ledger_sweep_fits(self):
        # a repeated sweep in one long-lived process must not evict
        NSGram.rank_one.cache_clear()
        NSGram.rank_two.cache_clear()
        caches = (NSGram.rank_one, NSGram.rank_two)
        ledger_checks(range(2, 11), range(2, 11))
        misses = [cached.cache_info().misses for cached in caches]
        assert max(misses) <= GRAM_CACHE_SIZE
        ledger_checks(range(2, 11), range(2, 11))
        assert [cached.cache_info().misses for cached in caches] == misses
