"""Quadratic form construction and the sound equivalence decision."""

import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3mukai.mukai import MukaiVector, NSGram, pairing
from k3mukai.quadforms import (
    QuadForm2,
    equivalent,
    gen_picard_determinant,
    hilb_picard_form,
    isotropic_lines,
    picard_scheme_form,
)


class TestQuadForm2:
    def test_determinant(self):
        assert QuadForm2(8, 0, -2).determinant() == -16

    def test_content(self):
        assert QuadForm2(8, 0, -2).content() == 2
        assert QuadForm2(0, -2, 2).content() == 2
        assert QuadForm2(3, 1, 5).content() == 1

    def test_value(self):
        f = QuadForm2(1, 2, 3)
        assert f.value(1, 1) == 1 + 4 + 3

    def test_transform_by_identity(self):
        f = QuadForm2(5, -1, 2)
        assert f.transform(((1, 0), (0, 1))) == f

    def test_transform_composes(self):
        f = QuadForm2(2, 1, -4)
        u = ((1, 1), (0, 1))
        v = ((1, 0), (2, 1))
        uv = ((1 * 1 + 1 * 2, 1 * 0 + 1 * 1), (0 * 1 + 1 * 2, 0 * 0 + 1 * 1))
        assert f.transform(u).transform(v) == f.transform(uv)


def up_to_sign(lines):
    return {max((x, y), (-x, -y)) for x, y in lines}


class TestIsotropicLines:
    def test_definite_form_has_none(self):
        assert isotropic_lines(QuadForm2(2, 1, 3)) == ()
        assert isotropic_lines(QuadForm2(-2, 1, -3)) == ()

    def test_non_square_discriminant_has_none(self):
        # -det = 12 is not a square, although the form is indefinite
        assert isotropic_lines(QuadForm2(2, 0, -6)) == ()

    def test_square_discriminant(self):
        # 8x^2 - 2y^2 = 2(2x - y)(2x + y)
        assert up_to_sign(isotropic_lines(QuadForm2(8, 0, -2))) == {(1, 2), (1, -2)}

    def test_lines_are_divided_by_their_gcd(self):
        # 4x^2 + 2*4xy = 4x(x + 2y): directions (-4 +- 4, 4) before division
        assert up_to_sign(isotropic_lines(QuadForm2(4, 4, 0))) == {(0, 1), (2, -1)}

    def test_leading_zero(self):
        # y(2*3x + 5y): the roles of x and y swap when m11 = 0
        assert up_to_sign(isotropic_lines(QuadForm2(0, 3, 5))) == {(1, 0), (5, -6)}
        assert up_to_sign(isotropic_lines(QuadForm2(0, -1, 0))) == {(1, 0), (0, 1)}

    @pytest.mark.parametrize("form", [QuadForm2(0, 0, 0), QuadForm2(1, 1, 1),
                                      QuadForm2(0, 0, 4), QuadForm2(4, -2, 1)])
    def test_degenerate_form_rejected(self, form):
        with pytest.raises(ValueError):
            isotropic_lines(form)

    def test_matches_box_search(self):
        # every primitive zero in the box, up to sign, is one of the lines;
        # the box is wide enough to contain both for |entries| <= 3
        box = range(-10, 11)
        for m11 in range(-3, 4):
            for m12 in range(-3, 4):
                for m22 in range(-3, 4):
                    form = QuadForm2(m11, m12, m22)
                    if form.determinant() == 0:
                        continue
                    zeros = [
                        (x, y) for x in box for y in box
                        if gcd(x, y) == 1 and form.value(x, y) == 0
                    ]
                    lines = isotropic_lines(form)
                    assert all(form.value(x, y) == 0 and gcd(x, y) == 1 for x, y in lines)
                    assert up_to_sign(lines) == up_to_sign(zeros), form
                    assert len(lines) in (0, 2)


class TestHilbPicardForm:
    def test_motivating_example(self):
        assert hilb_picard_form(2, 2) == QuadForm2(8, 0, -2)

    def test_genus_three(self):
        assert hilb_picard_form(3, 2) == QuadForm2(16, 0, -4)

    def test_determinant_formula(self):
        for g in range(2, 11):
            for n in range(2, 11):
                form = hilb_picard_form(g, n)
                assert form.determinant() == -4 * (g - 1) ** 2 * n * n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hilb_picard_form(1, 2)
        with pytest.raises(ValueError):
            hilb_picard_form(2, 1)


class TestPicardSchemeForm:
    def test_degree_two(self):
        result = picard_scheme_form(2, 2)
        assert (result.a0, result.b0, result.ell) == (2, 1, 1)
        assert result.form == QuadForm2(0, -2, 2)

    def test_degenerate_degree(self):
        # d + 1 - g = 0: the gcd(x, 0) = |x| convention applies
        result = picard_scheme_form(2, 1)
        assert (result.a0, result.b0, result.ell) == (1, 0, 2)
        assert result.form == QuadForm2(0, -1, 0)

    def test_determinant_is_minus_a0_squared(self):
        for g in range(2, 11):
            for d in range(0, 4 * g + 1):
                result = picard_scheme_form(g, d)
                assert result.form.determinant() == -result.a0 * result.a0

    def test_generators_satisfy_membership_condition(self):
        for g in range(2, 9):
            for d in range(0, 3 * g):
                result = picard_scheme_form(g, d)
                t = d + 1 - g
                assert -t * result.a0 + 2 * (g - 1) * result.b0 == 0
                assert result.a0 * result.ell == 2 * (g - 1)
                assert result.b0 * result.ell == t

    def test_form_matches_mukai_pairing_of_generators(self):
        # independent route: pair (0, 0, 1) and (a0, b0*D, 0) in the NS
        # lattice of the dual surface, where D^2 = 2g - 2
        for g in range(2, 9):
            for d in range(0, 3 * g):
                result = picard_scheme_form(g, d)
                gram = NSGram.rank_one(2 * g - 2)
                point = MukaiVector(0, (0,), 1)
                generator = MukaiVector(result.a0, (result.b0,), 0)
                assert result.form == QuadForm2(
                    pairing(point, point, gram),
                    pairing(point, generator, gram),
                    pairing(generator, generator, gram),
                )


def random_unimodular(rng, bound):
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c in (1, -1):
            return ((a, b), (c, d))


class TestEquivalent:
    def test_self_equivalence(self):
        f = hilb_picard_form(2, 2)
        result = equivalent(f, f, 1)
        assert result.verdict == "equivalent"
        assert result.witness is not None

    def test_picard_families_not_equivalent(self):
        result = equivalent(hilb_picard_form(2, 2), picard_scheme_form(2, 2).form, 10)
        assert result.verdict == "not_equivalent"
        assert result.certificate == "determinant"
        assert result.values == (-16, -4)

    def test_witness_rediscovery(self):
        rng = random.Random(20240517)
        f = QuadForm2(4, 1, -6)
        for _ in range(60):
            u = random_unimodular(rng, 3)
            result = equivalent(f, f.transform(u), 3)
            assert result.verdict == "equivalent"
            # the witness actually conjugates f1 into f2
            assert f.transform(result.witness) == f.transform(u)

    def test_content_certificate(self):
        result = equivalent(QuadForm2(1, 0, 8), QuadForm2(2, 0, 4), 3)
        assert result.verdict == "not_equivalent"
        assert result.certificate == "content"

    def test_definiteness_certificate(self):
        result = equivalent(QuadForm2(2, 1, 2), QuadForm2(-2, 1, -2), 3)
        assert result.verdict == "not_equivalent"
        assert result.certificate == "definiteness"

    def test_residue_certificate(self):
        # same determinant, content, and definiteness; the represented
        # residues differ (one form is even-valued, the other is not)
        result = equivalent(QuadForm2(2, 1, 2), QuadForm2(1, 0, 3), 4)
        assert result.verdict == "not_equivalent"
        assert result.certificate == "residues mod 4"

    def test_undecided_same_genus_pair(self):
        # classically inequivalent but in the same genus, so every
        # congruence invariant agrees and a bounded search cannot decide
        result = equivalent(QuadForm2(1, 0, 14), QuadForm2(2, 0, 7), 5)
        assert result.verdict == "undecided"

    def test_proper_flag_restricts_witnesses(self):
        # (3, 1, 5) is strictly reduced, so its mirror image is equivalent
        # only through an orientation-reversing basis change
        f = QuadForm2(3, 1, 5)
        mirrored = f.transform(((1, 0), (0, -1)))
        improper = equivalent(f, mirrored, 3)
        assert improper.verdict == "equivalent"
        (a, b), (c, d) = improper.witness
        assert a * d - b * c == -1
        proper = equivalent(f, mirrored, 3, proper=True)
        assert proper.verdict == "undecided"

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            equivalent(QuadForm2(2, 0, 2), QuadForm2(2, 0, 2), 0)

    def test_picard_sweep_certified_by_determinant(self):
        for g in range(2, 11):
            hilb = hilb_picard_form(g, 3)
            for d in range(0, 4 * g + 1):
                scheme = picard_scheme_form(g, d)
                result = equivalent(hilb, scheme.form, 2)
                assert result.verdict == "not_equivalent"
                assert result.certificate == "determinant"


entries = st.integers(min_value=-30, max_value=30)


@given(entries, entries, entries, entries, entries, entries, entries)
def test_transform_scales_determinant(m11, m12, m22, a, b, c, d):
    f = QuadForm2(m11, m12, m22)
    u = ((a, b), (c, d))
    det_u = a * d - b * c
    assert f.transform(u).determinant() == det_u * det_u * f.determinant()


class TestGenPicardDeterminant:
    @pytest.mark.parametrize(
        "c2,expected", [(8, -8), (2, -2), (2 * 9 * 16, -288)]
    )
    def test_values(self, c2, expected):
        assert gen_picard_determinant(c2) == expected

    def test_remark_inequality(self):
        for g in range(2, 11):
            for n in range(2, 11):
                assert gen_picard_determinant(
                    2 * (g - 1) * n * n
                ) != gen_picard_determinant(2 * (g - 1))

    @pytest.mark.parametrize("bad", [0, -2, 5])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            gen_picard_determinant(bad)
