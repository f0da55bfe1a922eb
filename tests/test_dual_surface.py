"""Dual-surface construction: the quotient lattice against an enumeration
oracle, the transform constraint family against an exhaustive box search,
and the general fibration criterion against an independent search and
against the cube scan it replaced."""

import inspect
import json
import time
from itertools import product
from math import gcd, isqrt

import pytest

import k3mukai.bb
import k3mukai.checks
import k3mukai.dual_surface
from k3mukai.checks import (
    brill_noether_data,
    double_dual_square,
    extension_square,
    kernel_square,
    kernel_square_bound,
    torsion_degree,
)
from k3mukai.cli import main
from k3mukai.dual_surface import (
    ConstraintSolution,
    FibrationHit,
    build_dual,
    family_c2,
    family_holds,
    general_fibration_criterion,
    member_gram,
    quotient_lattice,
    solve_transform_constraints,
    verify_solution,
)
from k3mukai.mukai import (
    MukaiVector,
    NSGram,
    fineness_gcd,
    is_primitive,
    pairing,
    square,
)


def orthogonal_vectors(w, c2, box):
    """Vectors orthogonal to w with |r|, |c| <= box, found by inverting the
    pairing formula directly (independent of the kernel machinery)."""
    for r in range(-box, box + 1):
        for c in range(-box, box + 1):
            numerator = c * c2 - r * w.s
            if numerator % w.r:
                continue
            yield MukaiVector(r, (c,), numerator // w.r)


class TestBuildDual:
    def test_motivating_example(self):
        report = build_dual(2, 2)
        assert report.w == MukaiVector(2, (1,), 2)
        assert report.d_square == 2
        assert report.gerbe_order == 2
        assert report.base_dim == 2
        assert not report.fine
        assert solve_transform_constraints(2, 2, (0, 0)).polarization_dual == 2

    def test_genus_three(self):
        report = build_dual(3, 2)
        assert report.w == MukaiVector(2, (1,), 4)
        assert report.d_square == 4
        assert report.gerbe_order == 2

    @pytest.mark.parametrize("bad", [(2, 1), (1, 2), (2, 0), (0, 5)])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            build_dual(*bad)

    def test_family_invariants(self):
        for g in range(2, 21):
            for n in range(2, 21):
                report = build_dual(g, n)
                gram = NSGram.rank_one(2 * (g - 1) * n * n)
                assert is_primitive(report.w)
                assert square(report.w, gram) == 0
                assert report.gerbe_order == n
                assert report.d_square == 2 * g - 2
                assert report.base_dim == g
                assert not report.fine
                family = solve_transform_constraints(g, n, (0, 0))
                assert family.polarization_dual == n


class TestFamilyC2:
    def test_closed_form_and_build_dual(self):
        for g in range(2, 21):
            for n in range(2, 21):
                assert family_c2(g, n) == 2 * (g - 1) * n * n
                assert build_dual(g, n).c2 == family_c2(g, n)

    # every routine of the family, each of the six checks and the ledger's
    # rows take their domain from family_c2
    @pytest.mark.parametrize(
        "call",
        [
            family_c2,
            lambda g, n: verify_solution(g, n, ConstraintSolution(0, 0, 1, 0)),
            family_holds,
            member_gram,
            lambda g, n: double_dual_square(g, n, 0),
            extension_square,
            lambda g, n: torsion_degree(g, n, 1),
            lambda g, n: kernel_square(g, n, 1, 0),
            lambda g, n: kernel_square_bound(g, n, 0),
            brill_noether_data,
            lambda g, n: list(k3mukai.checks._point_checks(g, n)),
        ],
        ids=[
            "family_c2",
            "verify_solution",
            "family_holds",
            "member_gram",
            "double_dual_square",
            "extension_square",
            "torsion_degree",
            "kernel_square",
            "kernel_square_bound",
            "brill_noether_data",
            "_point_checks",
        ],
    )
    @pytest.mark.parametrize("bad", [(1, 2), (2, 1), (0, 5), (2, 0)])
    def test_out_of_range(self, call, bad):
        with pytest.raises(ValueError):
            call(*bad)

    def test_every_family_routine_takes_g_then_n(self):
        # g and n are both integers >= 2, so a call that swaps them returns a
        # wrong number and raises nothing; one order everywhere rules that out
        routines = [
            family_c2, build_dual, member_gram, verify_solution, family_holds,
            solve_transform_constraints, double_dual_square, extension_square,
            kernel_square, kernel_square_bound, torsion_degree,
            brill_noether_data,
        ]
        out_of_order = [
            f.__name__ for f in routines
            if list(inspect.signature(f).parameters)[:2] != ["g", "n"]
        ]
        assert out_of_order == []


class TestQuotientLattice:
    def test_motivating_example(self):
        result = quotient_lattice(MukaiVector(2, (1,), 2), NSGram.rank_one(8))
        assert result.square == 2

    def test_generator_is_orthogonal_lift(self):
        gram = NSGram.rank_one(8)
        w = MukaiVector(2, (1,), 2)
        result = quotient_lattice(w, gram)
        assert pairing(w, result.generator_image, gram) == 0

    def test_square_invariant_under_lift_shifts(self):
        gram = NSGram.rank_one(8)
        w = MukaiVector(2, (1,), 2)
        result = quotient_lattice(w, gram)
        for t in (-7, -1, 1, 3, 12):
            shifted = result.generator_image + t * w
            assert square(shifted, gram) == result.square

    def test_rejects_non_isotropic(self):
        with pytest.raises(ValueError):
            quotient_lattice(MukaiVector(1, (0,), -1), NSGram.rank_one(8))

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            quotient_lattice(MukaiVector(2, (2,), 2), NSGram.rank_one(2))

    def test_against_enumeration_oracle(self):
        # every vector of w-perp has square t^2 * Q for the reported Q, and
        # t = 1 is achieved, which pins the quotient generator square
        for g in range(2, 9):
            for n in range(2, 9):
                c2 = 2 * (g - 1) * n * n
                gram = NSGram.rank_one(c2)
                w = MukaiVector(n, (1,), (g - 1) * n)
                reported = quotient_lattice(w, gram).square
                assert reported > 0
                unit_seen = False
                for u in orthogonal_vectors(w, c2, 3):
                    assert pairing(w, u, gram) == 0
                    value = square(u, gram)
                    quotient, remainder = divmod(value, reported)
                    assert remainder == 0
                    root = isqrt(quotient)
                    assert root * root == quotient
                    if value == reported:
                        unit_seen = True
                assert unit_seen

    def test_off_family_quotient_determinant(self):
        # every primitive isotropic w the criterion finds for v in [-5, 5]^3
        # (one of each +-v) and even C^2 <= 60: the generator lies in w-perp
        # and |det(w-perp / w)| = |det L| / div(w)^2 with div(w) = gcd(c C^2, r, s)
        seen = set()
        for c2 in range(2, 61, 2):
            gram = NSGram.rank_one(c2)
            for v in product(range(-5, 6), repeat=3):
                if v <= (0, 0, 0) or gcd(*v) != 1:
                    continue
                v = MukaiVector(v[0], (v[1],), v[2])
                if square(v, gram) <= 0:
                    continue
                for hit in general_fibration_criterion(v, gram, 10**9).hits:
                    if (hit.w, c2) in seen:
                        continue
                    seen.add((hit.w, c2))
                    result = quotient_lattice(hit.w, gram)
                    assert pairing(hit.w, result.generator_image, gram) == 0
                    assert square(result.generator_image, gram) == result.square
                    assert result.square * fineness_gcd(hit.w, gram) ** 2 == c2
        assert (MukaiVector(0, (0,), 1), 2) in seen  # the b2.s branch
        assert len(seen) > 1000


def unit_pairing(g, n, sol):
    """The deleted library route, kept as an oracle: the pairing
    <(n, E, l), (0, D, -k)> = de + n*k of the bundle and curve classes."""
    dst = member_gram(g, n, sol)
    bundle = MukaiVector(n, (0, 1), sol.l)
    curve = MukaiVector(0, (1, 0), -sol.k)
    return pairing(bundle, curve, dst)


def isometry_system_holds(g, n, k, l, de, e2):
    """Explicit re-derivation of all six preserved pairings, written out
    longhand so the test does not share code with the library."""
    c2 = 2 * (g - 1) * n * n

    def pair_source(v, u):
        return v[1] * c2 * u[1] - v[0] * u[2] - u[0] * v[2]

    def pair_target(v, u):
        d_part = v[1] * ((2 * g - 2) * u[1] + de * u[2]) + v[2] * (
            de * u[1] + e2 * u[2]
        )
        return d_part - v[0] * u[3] - u[0] * v[3]

    # target vectors are (r, cD, cE, s)
    table = [
        ((n, 1, (g - 1) * n), (0, 0, 0, 1)),
        ((1, 0, 1 - g), (0, 1, 0, k)),
        ((0, 0, 1), (n, 0, -1, l)),
    ]
    for i, (a, img_a) in enumerate(table):
        for b, img_b in table[i:]:
            if pair_source(a, b) != pair_target(img_a, img_b):
                return False
    return True


class TestTransformConstraints:
    def test_example_family(self):
        family = solve_transform_constraints(2, 2, (0, 2))
        members = {(s.k, s.l, s.de, s.e2) for s in family.solutions}
        assert (1, 0, -1, 0) in members

    def test_k_zero_forces_de_one(self):
        family = solve_transform_constraints(2, 2, (0, 0))
        assert all(s.de == 1 for s in family.solutions)

    def test_unit_pairing_is_one(self):
        family = solve_transform_constraints(3, 4, (-5, 5))
        assert all(unit_pairing(3, 4, s) == 1 for s in family.solutions)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty k range"):
            solve_transform_constraints(2, 2, (3, 1))

    def test_members_span_k_range_and_its_width_in_l(self):
        for (k_min, k_max), size in [((0, 0), 1), ((-3, 3), 7 * 13), ((2, 5), 4 * 7)]:
            width = k_max - k_min
            family = solve_transform_constraints(3, 2, (k_min, k_max))
            assert [(s.k, s.l) for s in family.solutions] == [
                (k, l) for k in range(k_min, k_max + 1) for l in range(-width, width + 1)
            ]
            assert len(family.solutions) == size
            assert family.constraints == ("de + 2*k == 1", "e2 == 4*l")
            assert family.polarization_dual == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            solve_transform_constraints(1, 2, (0, 1))

    def test_all_solutions_verify(self):
        for g, n in [(2, 2), (2, 5), (4, 3), (7, 2)]:
            family = solve_transform_constraints(g, n, (-4, 4))
            assert family.solutions
            assert all(verify_solution(g, n, s) for s in family.solutions)

    def test_against_exhaustive_box_oracle(self):
        # over the whole box, the isometry system holds exactly on the
        # parametrized family de = 1 - n*k, e2 = 2*n*l
        g, n = 2, 2
        for k in range(-3, 4):
            for l in range(-3, 4):
                for de in range(-7, 8):
                    for e2 in range(-12, 13, 2):
                        expected = de == 1 - n * k and e2 == 2 * n * l
                        assert isometry_system_holds(g, n, k, l, de, e2) == expected
                        sol = ConstraintSolution(k, l, de, e2)
                        assert verify_solution(g, n, sol) == expected

    def test_unit_pairing_is_a_table_pairing(self):
        # unit pairing == 1 exactly when the table's <(0, D, k), (n, -E, l)>
        # equals its source value <(1, 0, 1-g), (0, 0, 1)> = -1
        g, n = 3, 2
        src = NSGram.rank_one(2 * (g - 1) * n * n)
        source = pairing(MukaiVector(1, (0,), 1 - g), MukaiVector(0, (0,), 1), src)
        assert source == -1
        count = 0
        for k in range(-3, 4):
            for l in range(-3, 4):
                for de in range(-7, 8):
                    for e2 in range(-12, 13, 2):
                        sol = ConstraintSolution(k, l, de, e2)
                        dst = member_gram(g, n, sol)
                        image = pairing(
                            MukaiVector(0, (1, 0), k), MukaiVector(n, (0, -1), l), dst
                        )
                        assert (unit_pairing(g, n, sol) == 1) == (image == source)
                        count += (image == source)
        assert count == 7 * 7 * 13  # de = 1 - n*k for each k, any l and e2


def members_all_verify(g, n, member, box=10):
    """Member-by-member oracle: every pairing of every member in the box."""
    for k in range(-box, box + 1):
        for l in range(-box, box + 1):
            sol = member(n, k, l)
            if not verify_solution(g, n, sol) or unit_pairing(g, n, sol) != 1:
                return False
    return True


# affine parametrizations: the true one, then one wrong in each of the
# constant, k and l directions, one whose de drifts with l, and one whose e2 is
# wrong at (0, 0) alone of family_holds' three sample points
PARAMETRIZATIONS = {
    "true": lambda n, k, l: ConstraintSolution(k, l, 1 - n * k, 2 * n * l),
    "constant": lambda n, k, l: ConstraintSolution(k, l, 2 - n * k, 2 * n * l),
    "k_slope": lambda n, k, l: ConstraintSolution(k, l, 1 - (n + 1) * k, 2 * n * l),
    "l_slope": lambda n, k, l: ConstraintSolution(k, l, 1 - n * k, 2 * (n + 1) * l),
    "de_with_l": lambda n, k, l: ConstraintSolution(k, l, 1 - n * k + l, 2 * n * l),
    "e2_at_origin": lambda n, k, l: ConstraintSolution(
        k, l, 1 - n * k, 2 * n * l + 2 * (1 - k - l)
    ),
}
ORACLE_POINTS = [(2, 2), (3, 2), (2, 5), (5, 3), (7, 4), (10, 10)]


class TestFamilyHolds:
    @pytest.mark.parametrize("name", sorted(PARAMETRIZATIONS))
    def test_three_points_match_member_by_member_oracle(self, monkeypatch, name):
        member = PARAMETRIZATIONS[name]
        monkeypatch.setattr(k3mukai.dual_surface, "_member", member)
        for g, n in ORACLE_POINTS:
            expected = members_all_verify(g, n, member)
            assert expected == (name == "true")
            assert family_holds(g, n) == expected

    def test_wrong_parametrization_is_rejected(self, monkeypatch):
        monkeypatch.setattr(
            k3mukai.dual_surface, "_member", PARAMETRIZATIONS["constant"]
        )
        with pytest.raises(AssertionError):
            solve_transform_constraints(3, 2, (-3, 3))


class TestMemberGram:
    def test_default_is_the_zero_member(self):
        for g in range(2, 8):
            for n in range(2, 8):
                assert member_gram(g, n) == NSGram.rank_two(2 * g - 2, 1, 0)

    def test_gram_of_a_given_member(self):
        sol = ConstraintSolution(k=2, l=-1, de=-5, e2=-6)
        assert member_gram(4, 3, sol).entries == ((6, -5), (-5, -6))

    @pytest.mark.parametrize("name", sorted(PARAMETRIZATIONS))
    def test_follows_a_patched_member(self, monkeypatch, name):
        monkeypatch.setattr(k3mukai.dual_surface, "_member", PARAMETRIZATIONS[name])
        sol = PARAMETRIZATIONS[name](3, 0, 0)
        assert member_gram(4, 3).entries == ((6, sol.de), (sol.de, sol.e2))


def failing_ledger_checks(capsys):
    code = main(["verify-paper", "--g", "3", "--n", "2", "--json"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, {r["inputs"]["check"] for r in records if not r["pass"]}


class TestWrongFamilyReachesLedger:
    def test_true_family_passes(self, capsys):
        assert failing_ledger_checks(capsys) == (0, set())

    @pytest.mark.parametrize("name", sorted(set(PARAMETRIZATIONS) - {"true"}))
    def test_wrong_family_fails_verify_paper(self, capsys, monkeypatch, name):
        monkeypatch.setattr(k3mukai.dual_surface, "_member", PARAMETRIZATIONS[name])
        code, failing = failing_ledger_checks(capsys)
        assert code == 1
        # only `constant` and `e2_at_origin` move the (0, 0) member the kernel
        # check reads, and the bound's claim is read off the kernel squares
        expected = {"transform_constraints"}
        if name in ("constant", "e2_at_origin"):
            expected |= {"kernel_square", "kernel_square_bound"}
        assert failing == expected


class TestGeneralFibrationCriterion:
    def test_finds_dual_surface_vector(self):
        report = general_fibration_criterion(
            MukaiVector(1, (0,), -1), NSGram.rank_one(8), 5
        )
        assert report.genus == 2
        hits = {h.w for h in report.hits}
        assert MukaiVector(2, (1,), 2) in hits
        for hit in report.hits:
            assert hit.branch == "dual-surface"
            assert hit.d_square == 2
            assert hit.gerbe_order == 2

    def test_no_hit_for_non_square_lattice(self):
        report = general_fibration_criterion(
            MukaiVector(1, (0,), -1), NSGram.rank_one(6), 6
        )
        assert report.hits == ()

    def test_hits_satisfy_definitions(self):
        gram = NSGram.rank_one(16)
        v = MukaiVector(1, (0,), -2)
        for hit in general_fibration_criterion(v, gram, 6).hits:
            assert square(hit.w, gram) == 0
            assert pairing(v, hit.w, gram) == 0
            assert is_primitive(hit.w)
            assert hit.w.r >= 0

    def test_monotone_in_bound(self):
        gram = NSGram.rank_one(8)
        v = MukaiVector(1, (0,), -1)
        small = set(general_fibration_criterion(v, gram, 3).hits)
        large = set(general_fibration_criterion(v, gram, 6).hits)
        assert small <= large

    def test_elliptic_branch(self):
        # a torsion class v admits the point class as an orthogonal
        # isotropic vector, which is the rank-zero branch
        gram = NSGram.rank_one(2)
        v = MukaiVector(0, (1,), 0)
        report = general_fibration_criterion(v, gram, 2)
        elliptic = [h for h in report.hits if h.branch == "elliptic"]
        assert [h.w for h in elliptic] == [MukaiVector(0, (0,), 1)]
        assert elliptic[0].d_square is None

    def test_rejects_nonpositive_square(self):
        # a v of square 0 would fail later, on its degenerate v-perp
        for v in (MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 0)):
            with pytest.raises(ValueError, match="2g - 2 > 0"):
                general_fibration_criterion(v, NSGram.rank_one(8), 3)

    def test_against_independent_search(self):
        # re-run the search with its own loops and filters
        gram = NSGram.rank_one(8)
        v = MukaiVector(1, (0,), -1)
        bound = 4
        expected = set()
        for r in range(0, bound + 1):
            for c in range(-bound, bound + 1):
                for s in range(-bound, bound + 1):
                    if (r, c, s) == (0, 0, 0):
                        continue
                    if r == 0 and (c, s) < (0, 0):
                        continue
                    if gcd(r, gcd(c, s)) != 1:
                        continue
                    if 8 * c * c - 2 * r * s != 0:
                        continue
                    if -s + r != 0:  # <(1,0,-1), (r,c,s)> = r - s
                        continue
                    expected.add(MukaiVector(r, (c,), s))
        report = general_fibration_criterion(v, gram, bound)
        assert {h.w for h in report.hits} == expected

    def test_rejects_rank_two_ns(self):
        with pytest.raises(ValueError, match="criterion requires a rank-one NS lattice"):
            general_fibration_criterion(
                MukaiVector(1, (0, 0), 1), NSGram.rank_two(2, 1, 0), 3
            )

    def test_rejects_nonpositive_c2(self):
        # C^2 <= 0 leaves the paper's setting, and v-perp may be degenerate
        for c2 in (0, -8):
            with pytest.raises(ValueError, match="C\\^2 > 0"):
                general_fibration_criterion(
                    MukaiVector(1, (0,), -1), NSGram.rank_one(c2), 3
                )

    def test_one_perp_basis_per_request(self, monkeypatch):
        calls = []
        original = k3mukai.bb.perp_basis

        def counted(v, gram):
            calls.append(v)
            return original(v, gram)

        monkeypatch.setattr(k3mukai.bb, "perp_basis", counted)
        monkeypatch.setattr(k3mukai.dual_surface, "perp_basis", counted)
        gram = NSGram.rank_one(8)
        for v in (MukaiVector(1, (0,), -1), MukaiVector(2, (0,), -2),
                  MukaiVector(2, (1,), -3)):
            calls.clear()
            general_fibration_criterion(v, gram, 5)
            assert len(calls) == 1, v

    def test_cost_does_not_depend_on_bound(self):
        # the bound only filters two closed-form lines; a scan of the
        # (b+1)(2b+1)^2 box at b = 100 takes seconds
        gram = NSGram.rank_one(8)
        v = MukaiVector(1, (0,), -1)
        start = time.perf_counter()
        wide = general_fibration_criterion(v, gram, 100)
        assert time.perf_counter() - start < 0.5
        assert wide.hits == general_fibration_criterion(v, gram, 2).hits


def cube_scan(v, c2, bound):
    """The original bounded search, kept as an oracle: every w in the
    (bound+1)(2 bound+1)^2 box, in (r, c, s) order, filtered by the
    definitions (plain integers stand in for the Mukai pairing)."""
    vr, (vc,), vs = v.r, v.c, v.s
    gram = NSGram.rank_one(c2)
    sq = vc * vc * c2 - 2 * vr * vs
    hits = []
    for r in range(0, bound + 1):
        for c in range(-bound, bound + 1):
            for s in range(-bound, bound + 1):
                if (r, c, s) == (0, 0, 0):
                    continue
                if r == 0 and (c, s) < (0, 0):
                    continue
                if gcd(r, c, s) != 1:
                    continue
                if c * c * c2 - 2 * r * s != 0 or vc * c * c2 - vr * s - r * vs != 0:
                    continue
                w = MukaiVector(r, (c,), s)
                if r == 0:
                    hits.append(FibrationHit(w=w, branch="elliptic"))
                else:
                    hits.append(
                        FibrationHit(
                            w=w,
                            branch="dual-surface",
                            d_square=sq,
                            gerbe_order=fineness_gcd(w, gram),
                        )
                    )
    return hits


def test_criterion_matches_cube_scan():
    """Every v with |entries| <= 2 and positive square, imprimitive ones
    included, on every even 2 <= C^2 <= 12: the closed form gives the cube
    scan's hits, in order, at each bound from 1 to 8."""
    cases = 0
    for c2 in range(2, 13, 2):
        gram = NSGram.rank_one(c2)
        for r in range(-2, 3):
            for c in range(-2, 3):
                for s in range(-2, 3):
                    v = MukaiVector(r, (c,), s)
                    if square(v, gram) <= 0:
                        continue
                    scanned = cube_scan(v, c2, 8)
                    for bound in range(1, 9):
                        expected = [
                            hit for hit in scanned
                            if max(map(abs, hit.w.components())) <= bound
                        ]
                        report = general_fibration_criterion(v, gram, bound)
                        assert list(report.hits) == expected, (v, c2, bound)
                    cases += 1
    assert cases > 300
