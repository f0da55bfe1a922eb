"""Beauville-Bogomolov lattice: isotropic search against brute force, the
Fujiki degree trichotomy, and orthogonal-complement Gram matrices."""

import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3mukai.bb import (
    BBClass,
    BBLattice,
    _basis_form,
    find_isotropic,
    fujiki_degree,
    isotropic_exists,
    perp_basis,
)
from k3mukai.dual_surface import general_fibration_criterion
from k3mukai.mukai import MukaiVector, NSGram, pairing
from k3mukai.quadforms import QuadForm2


def brute_force_isotropic(c2, g, a_box, b_box):
    """Independent oracle: direct double loop over the box, no number theory."""
    return [
        (a, b)
        for a in range(1, a_box + 1)
        for b in range(-b_box, b_box + 1)
        if a * a * c2 == 2 * (g - 1) * b * b
    ]


def a_loop(lat, bound):
    """The original monotone search, kept as an oracle: for each a <= bound,
    solve a^2 c2 = 2(g-1) b^2 for b and keep primitive (a, b), then (a, -b)."""
    e = 2 * (lat.g - 1)
    classes = []
    for a in range(1, bound + 1):
        b2, rem = divmod(a * a * lat.c2, e)
        if rem:
            continue
        b = isqrt(b2)
        if b * b != b2 or gcd(a, b) != 1:
            continue
        classes.append(BBClass(a, b))
        if b:
            classes.append(BBClass(a, -b))
    return tuple(classes)


class TestBBSquare:
    @pytest.mark.parametrize("g,n", [(2, 2), (3, 2), (4, 3)])
    def test_isotropic_diagonal_class(self, g, n):
        lat = BBLattice(2 * (g - 1) * n * n, g)
        assert lat.form.value(1, n) == 0

    def test_pure_curve_class(self):
        assert BBLattice(8, 2).form.value(1, 0) == 8

    def test_exceptional_class(self):
        assert BBLattice(8, 5).form.value(0, 1) == -8


class TestBBLattice:
    def test_determinant(self):
        assert BBLattice(8, 2).form.determinant() == -16

    def test_gram(self):
        assert BBLattice(6, 4).form == QuadForm2(6, 0, -6)

    def test_rejects_odd_c2(self):
        with pytest.raises(ValueError):
            BBLattice(7, 2)

    def test_rejects_nonpositive_c2(self):
        with pytest.raises(ValueError):
            BBLattice(0, 2)

    def test_rejects_small_g(self):
        with pytest.raises(ValueError):
            BBLattice(8, 1)

    @pytest.mark.parametrize(
        "c2, g", [(8.0, 2), (8, 2.0), (Fraction(8), 2)], ids=["c2", "g", "fraction"]
    )
    def test_rejects_non_integers(self, c2, g):
        with pytest.raises(TypeError):
            BBLattice(c2, g)

    def test_integer_types_become_int(self):
        # True is the integer 1, which fails the range checks for both fields
        class Integer:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        lat = BBLattice(Integer(8), Integer(2))
        assert (lat.c2, lat.g) == (8, 2)
        assert all(type(x) is int for x in vars(lat).values())
        assert type(lat.form.m11) is int


class TestFindIsotropic:
    def test_motivating_example(self):
        result = find_isotropic(BBLattice(8, 2), 10)
        assert result.classes == (BBClass(1, 2), BBClass(1, -2))
        assert result.exists_nontrivial

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_unit_multiple_case(self, g):
        result = find_isotropic(BBLattice(2 * g - 2, g), 5)
        assert BBClass(1, 1) in result.classes

    def test_no_solution(self):
        result = find_isotropic(BBLattice(4, 2), 50)
        assert result.classes == ()
        assert not result.exists_nontrivial

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            find_isotropic(BBLattice(8, 2), 0)

    def test_classes_are_primitive_isotropic(self):
        for c2 in range(2, 40, 2):
            for g in range(2, 8):
                lat = BBLattice(c2, g)
                for cls in find_isotropic(lat, 2 * (g - 1)).classes:
                    assert cls.a > 0
                    assert gcd(cls.a, cls.b) == 1
                    assert lat.form.value(cls.a, cls.b) == 0

    def test_list_matches_box_oracle(self):
        # frozen from the oracle with |a|, |b| <= 10
        lat = BBLattice(8, 2)
        box = {
            (a, b)
            for (a, b) in brute_force_isotropic(8, 2, 10, 10)
            if gcd(a, b) == 1
        }
        assert box == {(1, 2), (1, -2)}  # oracle output, frozen
        assert {(c.a, c.b) for c in find_isotropic(lat, 10).classes} == box

    def test_closed_form_matches_brute_force_small_grid(self):
        # a primitive solution has a^2 | 2(g-1) (from gcd(a, b) = 1), so the
        # box a <= isqrt(2(g-1)), |b| <= a*isqrt(c2)+1 is exhaustive
        for c2 in range(2, 62, 2):
            for g in range(2, 9):
                a_box = isqrt(2 * (g - 1))
                b_box = a_box * isqrt(c2) + 1
                hits = brute_force_isotropic(c2, g, a_box, b_box)
                assert isotropic_exists(BBLattice(c2, g)) == bool(hits)


    def test_matches_a_loop(self):
        # even c2 <= 200, g <= 20, at bounds 1, 2(g-1) and 50
        for c2 in range(2, 201, 2):
            for g in range(2, 21):
                lat = BBLattice(c2, g)
                scanned = a_loop(lat, 50)
                exists = isotropic_exists(lat)
                for bound in (1, 2 * (g - 1), 50):
                    result = find_isotropic(lat, bound)
                    assert result.classes == tuple(c for c in scanned if c.a <= bound)
                    assert result.exists_nontrivial == exists

    def test_cost_does_not_depend_on_bound(self):
        # a loop over a <= 10^7 takes seconds; the closed form takes microseconds
        start = time.perf_counter()
        result = find_isotropic(BBLattice(8, 2), 10**7)
        assert time.perf_counter() - start < 0.5
        assert result.classes == (BBClass(1, 2), BBClass(1, -2))


class TestFujikiDegree:
    def test_generic(self):
        assert fujiki_degree(4, 3, 2, 2) == 4

    def test_isotropic_middle_case(self):
        assert fujiki_degree(4, 3, 0, 2) == 2

    def test_constant(self):
        assert fujiki_degree(4, 0, 0, 7) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            fujiki_degree(0, 0, 0, 3)

    def test_trichotomy_small_grid(self):
        for qH in range(-4, 5):
            for qHL in range(-4, 5):
                for qL in range(-4, 5):
                    if qH == qHL == qL == 0:
                        continue
                    for g in range(1, 6):
                        assert fujiki_degree(qH, qHL, qL, g) in (0, g, 2 * g)


def solve_in_basis(u, basis):
    """Exact-rational solver used as an independent membership check."""
    rows = [(b.r, b.c[0], b.s) for b in basis]
    target = (u.r, u.c[0], u.s)
    for i in range(3):
        for j in range(i + 1, 3):
            det = rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
            if det == 0:
                continue
            alpha = Fraction(target[i] * rows[1][j] - target[j] * rows[1][i], det)
            beta = Fraction(rows[0][i] * target[j] - rows[0][j] * target[i], det)
            if all(
                alpha * rows[0][k] + beta * rows[1][k] == target[k] for k in range(3)
            ):
                return alpha, beta
    return None


class TestVperpGram:
    def test_hilbert_vector_gives_bb_gram(self):
        # the complement of (1, 0, 1-g) is the divisor lattice of Hilb^g
        v, gram = MukaiVector(1, (0,), -1), NSGram.rank_one(8)
        assert _basis_form(*perp_basis(v, gram), gram) == QuadForm2(8, 0, -2)

    @pytest.mark.parametrize("g", range(2, 8))
    @pytest.mark.parametrize("n", range(2, 8))
    def test_family_matches_bb_lattice(self, g, n):
        c2 = 2 * (g - 1) * n * n
        v, gram = MukaiVector(1, (0,), 1 - g), NSGram.rank_one(c2)
        result = _basis_form(*perp_basis(v, gram), gram)
        assert result == QuadForm2(c2, 0, -2 * (g - 1))
        det = result.m11 * result.m22 - result.m12 * result.m12
        assert det == BBLattice(c2, g).form.determinant()

    def test_point_class(self):
        # frozen from the direct kernel computation: {r = 0} with basis (C, point)
        v, gram = MukaiVector(0, (0,), 1), NSGram.rank_one(8)
        assert _basis_form(*perp_basis(v, gram), gram) == QuadForm2(8, 0, 0)

    def test_point_class_gram_up_to_basis_swap(self):
        v, gram = MukaiVector(0, (0,), 1), NSGram.rank_one(8)
        form = _basis_form(*perp_basis(v, gram), gram)
        # swapping the basis gives the other diagonal presentation
        assert QuadForm2(form.m22, form.m12, form.m11) == QuadForm2(0, 0, 8)

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            perp_basis(MukaiVector(2, (0,), 2), NSGram.rank_one(8))

    def test_basis_is_orthogonal_to_v_and_spans(self):
        gram = NSGram.rank_one(12)
        for v in [
            MukaiVector(1, (0,), -1),
            MukaiVector(2, (1,), 3),
            MukaiVector(0, (1,), -5),
            MukaiVector(3, (-2,), 1),
        ]:
            basis = perp_basis(v, gram)
            for b in basis:
                assert pairing(v, b, gram) == 0
            # every orthogonal vector in a small box is an integer combination
            for r in range(-4, 5):
                for c in range(-4, 5):
                    for s in range(-4, 5):
                        u = MukaiVector(r, (c,), s)
                        if pairing(v, u, gram) != 0:
                            continue
                        coords = solve_in_basis(u, basis)
                        assert coords is not None
                        alpha, beta = coords
                        assert alpha.denominator == 1 and beta.denominator == 1

    def test_isotropy_of_bb_lattice_is_criterion_of_hilbert_vector(self):
        # v = (1, 0, 1-g) has complement basis (0, 1, 0), (1, 0, g-1) with Gram
        # BBLattice(c2, g).form, so (a, b) -> (b, a, (g-1)b) carries the
        # isotropic classes of `isotropic` onto the hits of `criterion`
        huge, with_lines = 10**12, 0
        for g in range(2, 31):
            v = MukaiVector(1, (0,), 1 - g)
            for c2 in range(2, 801, 2):
                gram, lat = NSGram.rank_one(c2), BBLattice(c2, g)
                basis = perp_basis(v, gram)
                assert basis == (MukaiVector(0, (1,), 0), MukaiVector(1, (0,), g - 1))
                assert _basis_form(*basis, gram) == lat.form
                search = find_isotropic(lat, huge)
                mapped = []
                for cls in search.classes:
                    w = (cls.b, cls.a, (g - 1) * cls.b)
                    mapped.append(w if w > (0, 0, 0) else tuple(-x for x in w))
                hits = general_fibration_criterion(v, gram, huge).hits
                assert sorted(mapped) == [hit.w.components() for hit in hits]
                assert search.exists_nontrivial == bool(hits)
                with_lines += bool(hits)
        assert with_lines == 274

    def test_gl2_class_stable_under_basis_change(self):
        v, gram = MukaiVector(1, (0,), -1), NSGram.rank_one(8)
        form = _basis_form(*perp_basis(v, gram), gram)
        a, b, d = form.m11, form.m12, form.m22
        # add the second basis vector to the first: congruent, same determinant
        changed = QuadForm2(a + 2 * b + d, b + d, d)
        det = lambda f: f.m11 * f.m22 - f.m12 * f.m12
        assert det(changed) == det(form)


@given(
    st.integers(min_value=1, max_value=30).map(lambda x: 2 * x),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
)
def test_bb_square_matches_mukai_divisor_square(c2, g, a, b):
    # (a, b) in the BB lattice corresponds to the divisor a*C + b*E; its BB
    # square must agree with the rank-two Mukai NS dot product
    lat = BBLattice(c2, g)
    gram = NSGram.rank_two(c2, 0, -2 * (g - 1))
    assert lat.form.value(a, b) == gram.dot((a, b), (a, b))
