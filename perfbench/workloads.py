"""Seeded working sets for the three benchmark workloads.

A workload's working set is a fixed number of rounds.  Every round holds the
same multiset of request shapes (subcommand, output mode and size
parameter), so each seed puts the same amount of work into a round; the seed
chooses only the order and the concrete inputs.  The program under test sees nothing but
the argv lists; the `params` of a request carry its inputs and the ground
truth the validator needs.

Vector and form flags are always spelled `--v=r,c,s`.  With the spaced
spelling `--v -3,1,2`, argparse takes a value with a negative leading
component for an option and `main` raises SystemExit(2) ("expected one
argument"), so inputs with a negative leading component stay in the mix
through the `=` spelling.
"""

from __future__ import annotations

import random
from math import gcd, isqrt
from typing import Iterator, NamedTuple

WORKLOADS = ("ledger", "bounded", "interactive")


class Request(NamedTuple):
    argv: tuple[str, ...]
    command: str
    json: bool
    params: dict


def _request(command: str, as_json: bool, flags: dict, **truth) -> Request:
    argv = [command]
    for flag, value in flags.items():
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        argv.append(f"--{flag.replace('_', '-')}={value}")
    if as_json:
        argv.append("--json")
    return Request(tuple(argv), command, as_json, {**flags, **truth})


# At least 200 requests in a working set, so that ten lie beyond p95 in every
# pass over it.
POOL_ROUNDS = {"ledger": 2, "bounded": 5, "interactive": 20}


def working_set(workload: str, seed: int) -> list[Request]:
    """The requests of one pass over a workload; the same seed gives the same list.

    A run cycles through this list, so once the first pass is done the
    program's own caches hold everything they will hold, and memory and time
    no longer depend on how many requests a run gets through.
    """
    rng = random.Random(f"{workload}:{seed}")
    make_round = {"ledger": _ledger_round, "bounded": _bounded_round,
                  "interactive": _interactive_round}[workload]
    return [req for _ in range(POOL_ROUNDS[workload]) for req in make_round(rng)]


def setup_request(workload: str) -> Request:
    """The request a cold interpreter runs to measure set-up time.

    It is fixed per workload rather than drawn from the seed, so that set-up
    time compares across seeds.
    """
    if workload == "ledger":
        return _request("verify-paper", True, {"g": 2, "n": 2})
    if workload == "bounded":
        return _criterion_gn(True, 3, 2, 6)
    return _request("pair", False, {"v": (2, 1, 2), "u": (2, 1, 2), "c2": 8})


# ---------------------------------------------------------------------------
# ledger: verify-paper over 2 <= g, n <= 10


_GRID = [(g, n) for g in range(2, 11) for n in range(2, 11)]


def _ledger_round(rng: random.Random) -> Iterator[Request]:
    """Two sweeps of the 81-point grid; each point once as JSON, once as a table."""
    json_first = set(rng.sample(_GRID, len(_GRID) // 2 + 1))
    for sweep in range(2):
        order = _GRID[:]
        rng.shuffle(order)
        for g, n in order:
            as_json = ((g, n) in json_first) == (sweep == 0)
            yield _request("verify-paper", as_json, {"g": g, "n": n})


# ---------------------------------------------------------------------------
# input makers


def _vector(rng: random.Random, lo: int = -4, hi: int = 4) -> tuple[int, int, int]:
    return tuple(rng.randint(lo, hi) for _ in range(3))


def _vperp_has_lines(v: tuple[int, int, int], c2: int) -> bool:
    """Whether v-perp in Z + Z.C + Z has isotropic lines: -det a square.

    For primitive v, det(v-perp) = det(L) <v, v> / div(v)^2 with det(L) = -c2
    and div(v) the gcd of the pairing functional (c*c2, s, r).
    """
    r, c, s = v
    sq = c * c * c2 - 2 * r * s
    div = gcd(c * c2, s, r)
    minus_det, rem = divmod(c2 * sq, div * div)
    return rem == 0 and isqrt(minus_det) ** 2 == minus_det


def _criterion_lattice(rng: random.Random, lines: bool) -> tuple[tuple, int]:
    """A primitive v of positive square with v-perp split or not as asked."""
    while True:
        v = _vector(rng, -3, 3)
        c2 = 2 * rng.randint(1, 6)
        r, c, s = v
        if gcd(r, c, s) != 1 or c * c * c2 - 2 * r * s <= 0:
            continue
        if _vperp_has_lines(v, c2) == lines:
            return v, c2


def _criterion_gn(as_json: bool, g: int, n: int, bound: int) -> Request:
    """criterion --g --n: v = (1, 0, 1-g) on the lattice C^2 = 2(g-1)n^2."""
    return _request("criterion", as_json, {"g": g, "n": n, "bound": bound},
                    vector=(1, 0, 1 - g), lattice=2 * (g - 1) * n * n)


def _criterion(rng: random.Random, as_json: bool, bound: int, kind: str) -> Request:
    if kind == "gn":
        return _criterion_gn(as_json, rng.randint(2, 10), rng.randint(2, 10), bound)
    v, c2 = _criterion_lattice(rng, lines=kind == "lines")
    return _request("criterion", as_json, {"v": v, "c2": c2, "bound": bound},
                    vector=v, lattice=c2)


def _isotropic(rng: random.Random, as_json: bool, bound: int, exists: bool) -> Request:
    g = rng.randint(2, 10)
    if exists:
        c2 = 2 * (g - 1) * rng.randint(1, 10) ** 2
    else:
        while True:
            c2 = 2 * rng.randint(1, 100)
            target = 2 * (g - 1) * c2
            if isqrt(target) ** 2 != target:
                break
    return _request("isotropic", as_json, {"c2": c2, "g": g, "bound": bound})


def _unimodular(rng: random.Random, bound: int, large: bool):
    """Random integer matrix of determinant +-1 with entries in [-bound, bound].

    `large` puts an entry of absolute value `bound` in the first column.
    """
    while True:
        if large:
            a, c = rng.choice((-bound, bound)), rng.randint(-bound, bound)
            if rng.random() < 0.5:
                a, c = c, a
        else:
            a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if gcd(a, c) != 1:
            continue
        # x*a + y*c = 1 gives the second column (b, d) = (-y, x) with det 1
        x, y = _bezout(a, c)
        b, d = -y, x
        shifts = [t for t in range(-2 * bound - 2, 2 * bound + 3)
                  if abs(b + t * a) <= bound and abs(d + t * c) <= bound]
        if not shifts:
            continue
        t = rng.choice(shifts)
        b, d = b + t * a, d + t * c
        if rng.random() < 0.5:
            b, d = -b, -d
        return ((a, b), (c, d))


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with a*x + b*y == gcd(a, b) == 1."""
    if b == 0:
        return (a, 0)  # a is +-1
    x, y = _bezout(b, a % b)
    return y, x - (a // b) * y


def transform(form: tuple[int, int, int], u) -> tuple[int, int, int]:
    """U^T F U for the Gram matrix F = [[m11, m12], [m12, m22]]."""
    m11, m12, m22 = form
    (a, b), (c, d) = u
    return (
        m11 * a * a + 2 * m12 * a * c + m22 * c * c,
        m11 * a * b + m12 * (a * d + b * c) + m22 * c * d,
        m11 * b * b + 2 * m12 * b * d + m22 * d * d,
    )


def _determinant(form) -> int:
    return form[0] * form[2] - form[1] * form[1]


def _random_form(rng: random.Random) -> tuple[int, int, int]:
    while True:
        form = _vector(rng, -6, 6)
        if _determinant(form) != 0:
            return form


# Same-genus pairs of positive definite forms: each pair agrees on every
# invariant the program checks (determinant, content, definiteness, residues
# mod 4 and 8), yet both members are Gauss-reduced (|2 m12| <= m11 <= m22,
# m12 >= 0) and distinct, so they are GL2(Z)-inequivalent.
_SAME_GENUS_PAIRS = (
    ((1, 0, 14), (2, 0, 7)),
    ((1, 0, 9), (2, 1, 5)),
    ((1, 0, 11), (3, 1, 4)),
    ((2, 1, 8), (4, 1, 4)),
    ((1, 0, 21), (5, 2, 5)),
    ((3, 1, 14), (6, 1, 7)),
)


def _equiv(rng: random.Random, as_json: bool, bound: int, kind: str) -> Request:
    if kind == "exhaust":
        pair = list(rng.choice(_SAME_GENUS_PAIRS))
        sign = rng.choice((1, -1))
        f1, f2 = (transform(tuple(sign * x for x in f), _unimodular(rng, 2, False))
                  for f in pair)
        truth = "inequivalent"
    elif kind == "separated":
        f1 = _random_form(rng)
        while True:
            f2 = _random_form(rng)
            if _determinant(f2) != _determinant(f1):
                break
        truth = "inequivalent"
    else:
        f1 = _random_form(rng)
        f2 = transform(f1, _unimodular(rng, bound, large=kind == "large"))
        truth = "equivalent"
    return _request("equiv", as_json, {"f1": f1, "f2": f2, "bound": bound},
                    truth=truth)


def _dual(rng: random.Random, as_json: bool, k: int) -> Request:
    g, n = rng.randint(2, 10), rng.randint(2, 10)
    return _request("dual", as_json, {"g": g, "n": n, "k_min": -k, "k_max": k})


# ---------------------------------------------------------------------------
# bounded: requests whose cost grows with a user-supplied bound

# Criterion bounds rise evenly to the largest, so the top of a round is a
# spread of costs rather than one cluster of equal requests.  On a host whose
# speed swings, p95 then moves with the share of slow time in a run instead
# of flipping between the cluster's fast and slow cost.
_BOUNDED_SLOTS = (
    [("criterion", b) for b in (6, 8, 10, 12, 14, 16, 17, 18)]
    + [("exhaust", b) for b in (4, 6, 8, 10, 12)]
    + [("small", b) for b in (4, 6, 8, 10, 12)]
    + [("large", b) for b in (4, 6, 8, 10, 12)]
    + [("separated", b) for b in (4, 6, 8, 10, 12)]
    + [("isotropic", b) for b in (1000, 2000, 4000, 6000, 8000, 12000, 16000, 20000)]
    + [("dual", k) for k in (1, 2, 3, 4, 6, 8, 10, 12)]
)


def _bounded_round(rng: random.Random) -> Iterator[Request]:
    criterion_kinds = rng.sample(["gn", "lines", "nolines"] * 3, 8)
    isotropic_exists = [True, False] * 4
    rng.shuffle(isotropic_exists)
    requests = []
    for shape, size in _BOUNDED_SLOTS:
        if shape == "criterion":
            requests.append(_criterion(rng, True, size, criterion_kinds.pop()))
        elif shape == "isotropic":
            requests.append(_isotropic(rng, True, size, isotropic_exists.pop()))
        elif shape == "dual":
            requests.append(_dual(rng, True, size))
        else:
            requests.append(_equiv(rng, True, size, shape))
    rng.shuffle(requests)
    yield from requests


# ---------------------------------------------------------------------------
# interactive: README-scale single-shot requests of every subcommand


def _pair(rng: random.Random, as_json: bool) -> Request:
    flags = {"v": _vector(rng, -5, 5), "u": _vector(rng, -5, 5),
             "c2": 2 * rng.randint(-6, 6)}
    return _request("pair", as_json, flags)


def _square(rng: random.Random, as_json: bool) -> Request:
    return _request("square", as_json, {"v": _vector(rng, -5, 5), "c2": 2 * rng.randint(-6, 6)})


def _picard_equiv(rng: random.Random, as_json: bool) -> Request:
    g, n = rng.randint(2, 10), rng.randint(2, 10)
    return _request("equiv", as_json, {"g": g, "n": n, "d": rng.randint(0, 4 * g)},
                    truth="inequivalent")


def _census(rng: random.Random, as_json: bool) -> Request:
    return _request("census", as_json, {"g_max": rng.randint(2, 4), "n_max": rng.randint(2, 4)})


_INTERACTIVE_MAKERS = (
    _pair,
    _square,
    lambda rng, as_json: _isotropic(rng, as_json, 10, rng.random() < 0.5),
    lambda rng, as_json: _request("dual", as_json, {"g": rng.randint(2, 10), "n": rng.randint(2, 10)}),
    lambda rng, as_json: _criterion(rng, as_json, 5, rng.choice(("gn", "lines", "nolines"))),
    _picard_equiv,
    _census,
)


def _interactive_round(rng: random.Random) -> Iterator[Request]:
    requests = [make(rng, as_json) for make in _INTERACTIVE_MAKERS for as_json in (True, False)]
    rng.shuffle(requests)
    yield from requests
