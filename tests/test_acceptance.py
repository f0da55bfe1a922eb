"""Acceptance suite: one test per release criterion, exact tolerances.

Every identity is integer-exact (tolerance zero).  The two timed criteria
assert their stated sub-second budgets; the bulk property suites run ten
thousand seeded-random cases each.  Run with `pytest tests/test_acceptance.py -v -s`
to see one pass line per criterion.
"""

import random
import time
from math import isqrt

from k3mukai.bb import BBLattice, fujiki_degree, isotropic_exists
from k3mukai.cli import ledger_checks
from k3mukai.dual_surface import (
    build_dual,
    quotient_lattice,
    solve_transform_constraints,
)
from k3mukai.mukai import MukaiVector, NSGram, dual, pairing, square
from k3mukai.quadforms import QuadForm2, equivalent, picard_scheme_form

CASES = 10_000


def announce(name, detail):
    print(f"PASS  {name}: {detail}")


def test_criterion_verify_paper_ledger():
    """Full ledger over 2 <= g, n <= 10: every check exact, under a second."""
    start = time.perf_counter()
    records = ledger_checks(range(2, 11), range(2, 11))
    failures = [r for r in records if not r["pass"]]
    elapsed = time.perf_counter() - start
    assert records
    assert failures == []
    assert elapsed < 1.0, f"ledger took {elapsed:.3f}s"
    checks = {r["inputs"]["check"] for r in records}
    assert {
        "w_isotropic",
        "gerbe_order",
        "euler_characteristic",
        "double_dual_square",
        "extension_square",
        "kernel_square",
        "kernel_square_bound",
        "dual_curve_square",
        "torsion_degree",
        "picard_determinants",
    } <= checks
    announce(
        "verify-paper ledger",
        f"{len(records)} checks, 0 failures, {elapsed:.3f}s",
    )


def test_criterion_motivating_example():
    """g = 2, n = 2: w = (2, C, 2), C^2 = 8, D^2 = 2, base dim 2, gerbe 2."""
    report = build_dual(2, 2)
    assert report.w == MukaiVector(2, (1,), 2)
    assert 2 * (2 - 1) * 2 * 2 == 8
    assert square(report.w, NSGram.rank_one(8)) == 0
    assert report.d_square == 2
    assert report.base_dim == 2
    assert report.gerbe_order == 2
    assert not report.fine
    announce("motivating example", "w=(2, 1, 2), D^2=2, base 2, gerbe 2, non-fine")


def test_criterion_quadform_sweep():
    """Non-equivalence for every 2<=g<=10, 2<=n<=10, 0<=d<=4g, by determinant."""
    start = time.perf_counter()
    count = 0
    for g in range(2, 11):
        for n in range(2, 11):
            hilb = BBLattice(2 * (g - 1) * n * n, g).form
            for d in range(0, 4 * g + 1):
                scheme = picard_scheme_form(g, d)
                result = equivalent(hilb, scheme.form)
                assert result.verdict == "not_equivalent"
                assert result.certificate == "determinant"
                expected = (-4 * (g - 1) ** 2 * n * n, -scheme.a0 * scheme.a0)
                assert result.values == expected
                # the determinants can never collide: a0 <= 2(g-1) < 2(g-1)n
                assert scheme.a0 <= 2 * (g - 1) < 2 * (g - 1) * n
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"
    announce("quadform sweep", f"{count} comparisons not_equivalent, {elapsed:.3f}s")


def test_criterion_oracle_equivalence():
    """Closed forms agree with enumeration oracles on the stated grids."""
    # isotropic existence: a primitive solution of a^2 c2 = 2(g-1) b^2 has
    # a^2 | 2(g-1) (gcd(a, b) = 1), so the box below is exhaustive
    points = 0
    for c2 in range(2, 201, 2):
        for g in range(2, 21):
            a_box = isqrt(2 * (g - 1))
            found = False
            for a in range(1, a_box + 1):
                b_box = a * isqrt(c2) + 1
                for b in range(1, b_box + 1):
                    if a * a * c2 == 2 * (g - 1) * b * b:
                        found = True
                        break
                if found:
                    break
            assert isotropic_exists(BBLattice(c2, g)) == found
            points += 1

    # quotient generator square: every vector of w-perp has square t^2 * Q
    # and t = 1 occurs; w-perp is enumerated by inverting the pairing formula
    quotient_points = 0
    for g in range(2, 21):
        for n in range(2, 21):
            c2 = 2 * (g - 1) * n * n
            gram = NSGram.rank_one(c2)
            w = MukaiVector(n, (1,), (g - 1) * n)
            result = quotient_lattice(w, gram)
            reported = result.square
            assert pairing(w, result.generator_image, gram) == 0
            assert square(result.generator_image, gram) == reported
            unit_seen = False
            for r in range(-2, 3):
                for c in range(-2, 3):
                    numerator = c * c2 - r * w.s
                    if numerator % w.r:
                        continue
                    u = MukaiVector(r, (c,), numerator // w.r)
                    assert pairing(w, u, gram) == 0
                    quotient, remainder = divmod(square(u, gram), reported)
                    assert remainder == 0
                    root = isqrt(quotient)
                    assert root * root == quotient
                    if quotient == 1:
                        unit_seen = True
            assert unit_seen
            assert reported == 2 * g - 2
            quotient_points += 1
    announce(
        "oracle equivalence",
        f"{points} isotropic points, {quotient_points} quotient points",
    )


def test_criterion_property_suites():
    """Ten thousand seeded-random cases per algebraic property."""
    rng = random.Random(1899)

    def random_gram():
        if rng.randrange(2):
            return NSGram.rank_one(2 * rng.randint(-30, 30))
        return NSGram.rank_two(
            2 * rng.randint(-30, 30), rng.randint(-60, 60), 2 * rng.randint(-30, 30)
        )

    def random_vector(rank):
        return MukaiVector(
            rng.randint(-50, 50),
            tuple(rng.randint(-50, 50) for _ in range(rank)),
            rng.randint(-50, 50),
        )

    for _ in range(CASES):
        gram = random_gram()
        v, u = random_vector(gram.rank), random_vector(gram.rank)
        assert pairing(v, u, gram) == pairing(u, v, gram)

    for _ in range(CASES):
        gram = random_gram()
        v, v2, u = (random_vector(gram.rank) for _ in range(3))
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        assert pairing(a * v + b * v2, u, gram) == a * pairing(v, u, gram) + b * pairing(
            v2, u, gram
        )

    for _ in range(CASES):
        gram = random_gram()
        assert square(random_vector(gram.rank), gram) % 2 == 0

    for _ in range(CASES):
        gram = random_gram()
        v, u = random_vector(gram.rank), random_vector(gram.rank)
        assert pairing(dual(v), dual(u), gram) == pairing(v, u, gram)

    def random_form():
        return QuadForm2(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))

    def random_unimodular(bound):
        while True:
            a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
            if a * d - b * c in (1, -1):
                return ((a, b), (c, d))

    for _ in range(CASES):
        f = random_form()
        assert f.transform(random_unimodular(3)).determinant() == f.determinant()

    rediscovered = 0
    for _ in range(CASES):
        f = random_form()
        u = random_unimodular(2)
        result = equivalent(f, f.transform(u))
        assert result.verdict == "equivalent"
        rediscovered += 1
    announce(
        "property suites",
        f"5 x {CASES} algebraic cases plus {rediscovered} planted witnesses",
    )


def test_criterion_constraint_family_soundness():
    """Every emitted solution over k, l in [-10, 10] satisfies the isometry
    pairings and the unit pairing, re-derived longhand here."""
    solutions_checked = 0
    for g, n in [(2, 2), (3, 2), (2, 5), (5, 3), (10, 10)]:
        family = solve_transform_constraints(g, n, (-10, 10))
        emitted = {(sol.k, sol.l) for sol in family.solutions}
        assert {(k, l) for k in range(-10, 11) for l in range(-10, 11)} <= emitted
        c2 = 2 * (g - 1) * n * n
        for sol in family.solutions:
            de, e2 = sol.de, sol.e2

            def pair_target(v, u):
                ns = v[1] * ((2 * g - 2) * u[1] + de * u[2]) + v[2] * (
                    de * u[1] + e2 * u[2]
                )
                return ns - v[0] * u[3] - u[0] * v[3]

            images = {
                "w": (0, 0, 0, 1),
                "v": (0, 1, 0, sol.k),
                "pt": (n, 0, -1, sol.l),
            }
            source = {
                "w": (n, 1, (g - 1) * n),
                "v": (1, 0, 1 - g),
                "pt": (0, 0, 1),
            }

            def pair_source(a, b):
                return a[1] * c2 * b[1] - a[0] * b[2] - b[0] * a[2]

            for x in images:
                for y in images:
                    assert pair_source(source[x], source[y]) == pair_target(
                        images[x], images[y]
                    )
            # unit pairing <(n, E, l), (0, D, -k)> = D.E + n*k = 1
            assert pair_target((n, 0, 1, sol.l), (0, 1, 0, -sol.k)) == 1
            solutions_checked += 1
    announce("constraint family", f"{solutions_checked} solutions verified")


def test_criterion_fujiki_trichotomy():
    """Exhaustive sweep |qH|, |qHL|, |qL| <= 10, 1 <= g <= 10."""
    cases = 0
    for qH in range(-10, 11):
        for qHL in range(-10, 11):
            for qL in range(-10, 11):
                if qH == qHL == qL == 0:
                    continue
                for g in range(1, 11):
                    assert fujiki_degree(qH, qHL, qL, g) in (0, g, 2 * g)
                    cases += 1
    announce("fujiki trichotomy", f"{cases} cases in {{0, g, 2g}}")
