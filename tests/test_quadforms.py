"""Quadratic form construction and the equivalence decision by reduction."""

import random
import time
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import k3mukai.quadforms
from k3mukai.bb import BBLattice
from k3mukai.mukai import MukaiVector, NSGram, pairing
from k3mukai.quadforms import (
    QuadForm2,
    _complete,
    canonical,
    equivalent,
    gen_picard_determinant,
    isotropic_lines,
    picard_scheme_form,
)


def hilb_picard_form(g, n):
    """Pic(Hilb^g S) for C^2 = 2(g-1)n^2, as the ledger builds it."""
    return BBLattice(2 * (g - 1) * n * n, g).form


class TestQuadForm2:
    def test_determinant(self):
        assert QuadForm2(8, 0, -2).determinant() == -16

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

    @pytest.mark.parametrize(
        "entries", [(2.0, 1, 3), (2, 1.0, 3), (2, 1, 3.5)], ids=["m11", "m12", "m22"]
    )
    def test_rejects_non_integers(self, entries):
        with pytest.raises(TypeError):
            QuadForm2(*entries)

    def test_integer_types_become_int(self):
        class Integer:
            def __index__(self):
                return -3

        f = QuadForm2(True, Integer(), 2)
        assert (f.m11, f.m12, f.m22) == (1, -3, 2)
        assert all(type(x) is int for x in vars(f).values())


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
    """The BB lattice's form is the Picard form diag(2(g-1)n^2, -2(g-1))."""

    def test_motivating_example(self):
        assert hilb_picard_form(2, 2) == QuadForm2(8, 0, -2)

    def test_genus_three(self):
        assert hilb_picard_form(3, 2) == QuadForm2(16, 0, -4)

    def test_determinant_formula(self):
        for g in range(2, 11):
            for n in range(2, 11):
                form = BBLattice(2 * (g - 1) * n * n, g).form
                assert form == QuadForm2(2 * (g - 1) * n * n, 0, -2 * (g - 1))
                assert form.determinant() == -4 * (g - 1) ** 2 * n * n


class TestPicardSchemeForm:
    def test_degree_two(self):
        result = picard_scheme_form(2, 2)
        assert (result.a0, result.b0, result.ell) == (2, 1, 1)
        assert result.form == QuadForm2(0, -2, 2)

    def test_rejects_genus_one(self):
        with pytest.raises(ValueError, match="picard_scheme_form requires g >= 2"):
            picard_scheme_form(1, 0)

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


def det2(u):
    (a, b), (c, d) = u
    return a * d - b * c


def iter_unimodular(bound, proper):
    """2x2 integer matrices with |entries| <= bound and det +-1 (det 1 when
    proper), in lexicographic order of (a, b, c, d): the bounded witness
    search that `equivalent` used before reduction, kept as an oracle."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    det = a * d - b * c
                    if det == 1 or (not proper and det == -1):
                        yield ((a, b), (c, d))


def definiteness(f):
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


def residues(f, modulus):
    # f(x, y) mod m only depends on x, y mod m, and a unimodular substitution
    # permutes (Z/m)^2, so the represented residue set is an invariant
    return frozenset(
        f.value(x, y) % modulus for x in range(modulus) for y in range(modulus)
    )


# Class invariants besides the determinant: content, definiteness and the
# residues represented mod 4 and mod 8.  Forms with equal canonical forms
# agree on all of them, so they are an oracle for `canonical`.
CONGRUENCE_INVARIANTS = (
    lambda f: gcd(f.m11, f.m12, f.m22),
    definiteness,
    lambda f: residues(f, 4),
    lambda f: residues(f, 8),
)


# Same-genus pairs of positive definite forms, as in perfbench/workloads.py:
# every invariant agrees, yet both members are Gauss-reduced and distinct.
SAME_GENUS_PAIRS = (
    ((1, 0, 14), (2, 0, 7)),
    ((1, 0, 9), (2, 1, 5)),
    ((1, 0, 11), (3, 1, 4)),
    ((2, 1, 8), (4, 1, 4)),
    ((1, 0, 21), (5, 2, 5)),
    ((3, 1, 14), (6, 1, 7)),
)


class TestEquivalent:
    def test_self_equivalence(self):
        f = hilb_picard_form(2, 2)
        result = equivalent(f, f)
        assert result.verdict == "equivalent"
        assert result.witness is not None

    def test_picard_families_not_equivalent(self):
        result = equivalent(hilb_picard_form(2, 2), picard_scheme_form(2, 2).form)
        assert result.verdict == "not_equivalent"
        assert result.certificate == "determinant"
        assert result.values == (-16, -4)

    def test_witness_rediscovery(self):
        rng = random.Random(20240517)
        f = QuadForm2(4, 1, -6)
        for _ in range(60):
            u = random_unimodular(rng, 3)
            result = equivalent(f, f.transform(u))
            assert result.verdict == "equivalent"
            # the witness actually conjugates f1 into f2
            assert f.transform(result.witness) == f.transform(u)

    def test_content_certificate(self):
        # same determinant, contents 1 and 2: the canonical forms decide
        result = equivalent(QuadForm2(1, 0, 8), QuadForm2(2, 0, 4))
        assert result.verdict == "not_equivalent"
        assert result.certificate == "reduced_form"
        assert result.values == (QuadForm2(1, 0, 8), QuadForm2(2, 0, 4))

    def test_definiteness_certificate(self):
        # same determinant, one positive and one negative definite
        result = equivalent(QuadForm2(2, 1, 2), QuadForm2(-2, 1, -2))
        assert result.verdict == "not_equivalent"
        assert result.certificate == "reduced_form"
        assert result.values == (QuadForm2(2, 1, 2), QuadForm2(-2, -1, -2))

    def test_residue_certificate(self):
        # same determinant, content, and definiteness; the represented
        # residues differ (one form is even-valued, the other is not)
        result = equivalent(QuadForm2(2, 1, 2), QuadForm2(1, 0, 3))
        assert result.verdict == "not_equivalent"
        assert result.certificate == "reduced_form"
        assert result.values == (QuadForm2(2, 1, 2), QuadForm2(1, 0, 3))

    def test_congruence_invariants_never_decide_alone(self):
        # wherever a form pair sharing a determinant differs in a class
        # invariant, the canonical forms differ too and certify it
        box = range(-4, 5)
        by_det = {}
        for f in (QuadForm2(a, b, c) for a in box for b in box for c in box):
            by_det.setdefault(f.determinant(), []).append(f)
        separated = 0
        for proper in (False, True):
            for forms in by_det.values():
                invariants = {f: [inv(f) for inv in CONGRUENCE_INVARIANTS] for f in forms}
                reduced = {f: canonical(f, proper)[0] for f in forms}
                for f1 in forms:
                    for f2 in forms:
                        if invariants[f1] == invariants[f2]:
                            continue
                        result = equivalent(f1, f2, proper=proper)
                        assert (result.verdict, result.certificate) == (
                            "not_equivalent", "reduced_form"), (f1, f2, proper)
                        assert result.values == (reduced[f1], reduced[f2])
                        separated += 1
        assert separated > 0

    def test_same_genus_pair_separated_by_reduction(self):
        # classically inequivalent but in the same genus, so every
        # congruence invariant agrees; the reduced forms differ
        result = equivalent(QuadForm2(1, 0, 14), QuadForm2(2, 0, 7))
        assert result.verdict == "not_equivalent"
        assert result.certificate == "reduced_form"
        assert result.values == (QuadForm2(1, 0, 14), QuadForm2(2, 0, 7))

    def test_proper_flag_restricts_witnesses(self):
        # (3, 1, 5) is strictly reduced, so its mirror image is equivalent
        # only through an orientation-reversing basis change
        f = QuadForm2(3, 1, 5)
        mirrored = f.transform(((1, 0), (0, -1)))
        improper = equivalent(f, mirrored)
        assert improper.verdict == "equivalent"
        assert det2(improper.witness) == -1
        proper = equivalent(f, mirrored, proper=True)
        assert proper.verdict == "not_equivalent"
        assert proper.certificate == "reduced_form"
        assert proper.values == (f, mirrored)

    def test_picard_sweep_certified_by_determinant(self):
        for g in range(2, 11):
            hilb = hilb_picard_form(g, 3)
            for d in range(0, 4 * g + 1):
                scheme = picard_scheme_form(g, d)
                result = equivalent(hilb, scheme.form)
                assert result.verdict == "not_equivalent"
                assert result.certificate == "determinant"

    @pytest.mark.parametrize("pair", SAME_GENUS_PAIRS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_same_genus_pairs_not_equivalent(self, pair, sign):
        rng = random.Random(sum(pair[0]) * sign)
        f1, f2 = (QuadForm2(*(sign * x for x in f)).transform(random_unimodular(rng, 2))
                  for f in pair)
        for proper in (False, True):
            result = equivalent(f1, f2, proper=proper)
            assert result.verdict == "not_equivalent"
            assert result.certificate == "reduced_form"

    def test_indefinite_pair_beyond_old_search_bound(self):
        # the old search answered undecided at every bound up to 5
        f1, f2 = QuadForm2(1, 0, -14), QuadForm2(2, 0, -7)
        assert all(f1.transform(u) != f2 for u in iter_unimodular(5, False))
        result = equivalent(f1, f2)
        assert result.verdict == "equivalent"
        assert f1.transform(result.witness) == f2
        assert max(abs(x) for row in result.witness for x in row) > 5

    def test_large_definite_pair_is_fast(self):
        f = QuadForm2(10**9 + 7, 123456789, 10**9 + 9)
        g = f.transform(((3, 5), (4, 7)))
        start = time.perf_counter()
        same = equivalent(f, g)
        apart = equivalent(f, QuadForm2(f.m11, f.m12 + 1, f.m22 + 1).transform(((1, 0), (1, 1))))
        elapsed = time.perf_counter() - start
        assert same.verdict == "equivalent" and f.transform(same.witness) == g
        assert apart.verdict == "not_equivalent"
        assert elapsed < 0.05, f"took {elapsed:.3f}s"

    def test_matches_box_search(self):
        # wherever the bound-4 search maps f1 to f2, reduction says
        # equivalent; every witness is unimodular and passes transform
        box = range(-4, 5)
        forms = [QuadForm2(a, b, c) for a in box for b in box for c in box]
        by_det = {}
        for f in forms:
            by_det.setdefault(f.determinant(), []).append(f)
        for proper in (False, True):
            matrices = list(iter_unimodular(4, proper))
            misses = []
            for f1 in forms:
                reached = {f1.transform(u) for u in matrices}
                for f2 in by_det[f1.determinant()]:
                    result = equivalent(f1, f2, proper=proper)
                    if result.verdict == "equivalent":
                        assert det2(result.witness) in ((1,) if proper else (1, -1))
                        assert f1.transform(result.witness) == f2
                    elif f2 in reached:
                        misses.append((f1, f2))
            assert misses == [], (proper, misses[:5])


class TestComplete:
    """Canonical forms, the v-perp kernel and the w-perp/w generator all read
    the first column and rely on the determinant being one."""

    @staticmethod
    def check(x, y):
        u = _complete(x, y)
        assert (u[0][0], u[1][0]) == (x, y) and det2(u) == 1, (x, y)

    def test_small_coprime_pairs(self):
        pairs = [(x, y) for x, y in product(range(-12, 13), repeat=2) if gcd(x, y) == 1]
        for x, y in pairs:
            self.check(x, y)
        # zeros included: (+-1, 0) and (0, +-1)
        assert len(pairs) == 368

    def test_300_digit_pairs(self):
        # consecutive Fibonacci numbers, Euclid's slowest case, and random pairs
        x, y = 0, 1
        for _ in range(1436):
            x, y = y, x + y
        pairs = [(x, y)]
        rng = random.Random(300)
        while len(pairs) < 4:
            x, y = (rng.randrange(10**299, 10**300) for _ in range(2))
            if gcd(x, y) == 1:
                pairs.append((x, y))
        for x, y in pairs:
            assert len(str(x)) == len(str(y)) == 300
            for sx, sy in product((1, -1), repeat=2):
                self.check(sx * x, sy * y)


class TestCanonical:
    @pytest.mark.parametrize("proper", [False, True])
    @pytest.mark.parametrize("f", [(3, 1, 5), (-3, 1, -5), (7, 10, 20), (2, -1, 2),
                                   (1, 0, -14), (2, 0, -7), (-3, 5, 4), (8, 0, -2),
                                   (0, -2, 2), (0, 3, 5), (0, 0, 0), (2, 2, 2),
                                   (0, 0, -3), (4, -6, 9)])
    def test_form_is_reached_by_unimodular_u(self, f, proper):
        f = QuadForm2(*f)
        form, u = canonical(f, proper)
        assert f.transform(u) == form
        assert det2(u) in ((1,) if proper else (1, -1))

    def test_definite_form_is_gauss_reduced(self):
        for f in [QuadForm2(7, 10, 20), QuadForm2(5, 4, 4), QuadForm2(9, -3, 2)]:
            for proper in (False, True):
                for sign in (1, -1):
                    form, _ = canonical(QuadForm2(sign * f.m11, sign * f.m12, sign * f.m22), proper)
                    a, b, c = sign * form.m11, sign * form.m12, sign * form.m22
                    assert abs(2 * b) <= a <= c
                    if 2 * abs(b) == a or a == c:
                        assert b >= 0

    def test_square_determinant_puts_a_line_at_one_zero(self):
        for f in [QuadForm2(8, 0, -2), QuadForm2(4, 1, -6), QuadForm2(0, 3, 5)]:
            t = isqrt(-f.determinant())
            form, _ = canonical(f)
            assert form.m11 == 0 and abs(form.m12) == t and 0 <= form.m22 < 2 * t

    def test_degenerate_form(self):
        assert canonical(QuadForm2(2, 2, 2))[0] == QuadForm2(0, 0, 2)
        assert canonical(QuadForm2(-3, 6, -12))[0] == QuadForm2(0, 0, -3)
        assert canonical(QuadForm2(0, 0, 0))[0] == QuadForm2(0, 0, 0)

    def test_reduction_steps_do_not_grow_with_the_entries(self, monkeypatch):
        # while |c| > 2 sqrt(D), _rho takes r in (-|c|/2, |c|/2], which shrinks
        # the entries geometrically; r in (sqrt(D) - |c|, sqrt(D)) throughout
        # reaches the same reduced forms, but in 19,302 steps on this form
        steps = []
        original = k3mukai.quadforms._rho

        def counted(f, w):
            steps.append(f)
            return original(f, w)

        monkeypatch.setattr(k3mukai.quadforms, "_rho", counted)
        f = QuadForm2(-4997768334588, 3331874330749, -2221268736903)
        form, u = canonical(f)
        assert f.transform(u) == form == QuadForm2(-7, 3, 4)
        assert len(steps) <= 100  # 30 with the two-sided rule

    def test_gl2_is_the_lesser_of_a_form_and_its_mirror(self):
        f = QuadForm2(3, 1, 5)
        assert canonical(f, proper=True)[0] == f
        assert canonical(f)[0] == QuadForm2(3, -1, 5)


form_entries = st.integers(min_value=-50, max_value=50)


@given(form_entries, form_entries, form_entries,
       st.sampled_from(list(iter_unimodular(5, False))))
def test_canonical_is_a_class_invariant(m11, m12, m22, u):
    f = QuadForm2(m11, m12, m22)
    assume(f.determinant() != 0)
    g = f.transform(u)
    assert canonical(f)[0] == canonical(g)[0]
    result = equivalent(f, g)
    assert result.verdict == "equivalent"
    assert f.transform(result.witness) == g
    if det2(u) == 1:
        assert canonical(f, proper=True)[0] == canonical(g, proper=True)[0]
        proper = equivalent(f, g, proper=True)
        assert proper.verdict == "equivalent"
        assert det2(proper.witness) == 1
        assert f.transform(proper.witness) == g


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
