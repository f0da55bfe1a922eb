"""Independent checks of every benchmark response.

Each check recomputes the expected answer with the benchmark's own
plain-integer arithmetic and compares by meaning, not by bytes: sets of
classes rather than their order, and any sound verdict for an equivalence
question (`undecided` is always accepted; a wrong definite verdict fails).
Table output and JSON output are read into the same fields first, so one
check covers both renderers.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import lru_cache
from math import gcd, isqrt

from workloads import Request, transform

_INT = re.compile(r"(?<!\w)-?\d+")


def check(req: Request, code: int, out: str) -> str | None:
    """None when the response to `req` is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        records = _records(req, out)
        if req.command in _SINGLE:
            if len(records) != 1:
                return f"{len(records)} records, want 1"
            error = _check_echo(req.params, records[0])
            if error:
                return error
        return _CHECKS[req.command](req.params, records)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _records(req: Request, out: str) -> list:
    """JSON lines as merged input/output dicts; tables as key/value dicts.

    The verify-paper and census tables are returned as raw lines because
    they have renderers of their own.
    """
    lines = out.splitlines()
    if req.json:
        records = []
        for line in lines:
            obj = json.loads(line)
            if obj["command"] != req.command:
                raise ValueError(f"record for {obj['command']!r}")
            records.append({**obj["inputs"], **obj["outputs"], "pass": obj.get("pass")})
        return records
    if req.command in ("verify-paper", "census"):
        return lines
    if lines[0] != req.command:
        raise ValueError(f"table titled {lines[0]!r}")
    fields = {}
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"table line {line!r}")
        fields[key.strip()] = value
    return [fields]


def _ints(value) -> list[int]:
    """The integers of a JSON value, or of a table cell, in reading order."""
    if isinstance(value, str):
        return [int(x) for x in _INT.findall(value)]
    if isinstance(value, bool) or value is None:
        return []
    if isinstance(value, int):
        return [value]
    if isinstance(value, dict):
        value = value.values()
    return [x for item in value for x in _ints(item)]


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    if value not in ("true", "false"):
        raise ValueError(f"not a boolean: {value!r}")
    return value == "true"


def _form(value) -> tuple[int, int, int]:
    """A form from JSON (m11, m12, m22) or from a table [[m11, m12], [m12, m22]]."""
    xs = _ints(value)
    return tuple(xs) if len(xs) == 3 else (xs[0], xs[1], xs[3])


def _expect(name: str, got, want) -> str | None:
    return None if got == want else f"{name}: got {got}, want {want}"


def _first_error(*results) -> str | None:
    return next((r for r in results if r is not None), None)


def _pairing(v, u, c2: int) -> int:
    return v[1] * u[1] * c2 - v[0] * u[2] - u[0] * v[2]


# ---------------------------------------------------------------------------

_SINGLE = ("pair", "square", "isotropic", "dual", "criterion", "equiv")
_ECHOED = ("v", "u", "c2", "g", "n", "d", "bound", "k_min", "k_max")


def _check_echo(p, rec) -> str | None:
    """The inputs a record repeats must be the ones the request sent."""
    for key in _ECHOED:
        if key in p and key in rec:
            want = list(p[key]) if isinstance(p[key], tuple) else [p[key]]
            error = _expect(key, _ints(rec[key]), want)
            if error:
                return error
    for key in ("f1", "f2"):
        if key in p and key in rec:
            error = _expect(key, _form(rec[key]), p[key])
            if error:
                return error
    return None


def _check_pair(p, records) -> str | None:
    (rec,) = records
    return _expect("pairing", _ints(rec["pairing"]), [_pairing(p["v"], p["u"], p["c2"])])


def _check_square(p, records) -> str | None:
    (rec,) = records
    return _expect("square", _ints(rec["square"]), [_pairing(p["v"], p["v"], p["c2"])])


def _check_isotropic(p, records) -> str | None:
    """Closed form: the isotropic lines of diag(c2, -e), e = 2(g-1), exist
    iff e*c2 = m^2, and then the only primitive classes with a > 0 are
    (e, +-m) / gcd(e, m)."""
    (rec,) = records
    e = 2 * (p["g"] - 1)
    m = isqrt(e * p["c2"])
    exists = m * m == e * p["c2"]
    want = []
    if exists and e // gcd(e, m) <= p["bound"]:
        h = gcd(e, m)
        want = sorted([(e // h, m // h), (e // h, -m // h)])
    flat = _ints(rec["classes"])
    got = list(zip(flat[::2], flat[1::2]))
    return _first_error(
        _expect("classes", sorted(got), want),
        _expect("exists_nontrivial", _flag(rec["exists_nontrivial"]), exists),
    )


def _check_dual(p, records) -> str | None:
    (rec,) = records
    g, n = p["g"], p["n"]
    k_min, k_max = p.get("k_min", -2), p.get("k_max", 2)
    width = k_max - k_min
    want = sorted((k, l, 1 - n * k, 2 * n * l)
                  for k in range(k_min, k_max + 1) for l in range(-width, width + 1))
    flat = _ints(rec["solutions"])
    got = sorted(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))
    return _first_error(
        _expect("w", _ints(rec["w"]), [n, 1, (g - 1) * n]),
        _expect("c2", _ints(rec["c2"]), [2 * (g - 1) * n * n]),
        _expect("d_square", _ints(rec["d_square"]), [2 * g - 2]),
        _expect("gerbe_order", _ints(rec["gerbe_order"]), [n]),
        _expect("base_dim", _ints(rec["base_dim"]), [g]),
        _expect("fine", _flag(rec["fine"]), False),
        _expect("polarization_dual", _ints(rec["polarization_dual"]), [n]),
        _expect("solutions", got, want),
    )


@lru_cache(maxsize=256)
def _criterion_lines(v: tuple[int, int, int], c2: int, bound: int) -> frozenset:
    """Primitive isotropic w orthogonal to v with |entries| <= bound, one per
    line, enumerated over (r, c) with s solved from isotropy: c^2 c2 = 2 r s."""
    r0, c0, s0 = v
    lines = set()
    for r in range(0, bound + 1):
        for c in range(-bound, bound + 1):
            if r == 0:
                if c != 0:
                    continue
                w = (0, 0, 1)
            else:
                s, rem = divmod(c * c * c2, 2 * r)
                if rem or abs(s) > bound:
                    continue
                w = (r, c, s)
            if gcd(*w) == 1 and c0 * w[1] * c2 - r0 * w[2] - w[0] * s0 == 0:
                lines.add(w)
    return frozenset(lines)


_HIT = re.compile(r"\(([^()]*)\) \[([\w-]+)([^\]]*)\]")


def _line(w: tuple) -> tuple:
    """The representative of +-w whose first nonzero entry is positive."""
    lead = next(x for x in w if x)
    return w if lead > 0 else tuple(-x for x in w)


def _check_criterion(p, records) -> str | None:
    (rec,) = records
    v, c2, bound = tuple(p["vector"]), p["lattice"], p["bound"]
    sq = _pairing(v, v, c2)
    if isinstance(rec["hits"], str):
        hits = [(tuple(_ints(w)), branch, _ints(extra))
                for w, branch, extra in _HIT.findall(rec["hits"])]
    else:
        hits = [(tuple(_ints(h["w"])), h["branch"], _ints([h["d_square"], h["gerbe_order"]]))
                for h in rec["hits"]]
    for w, branch, extra in hits:
        r, c, s = w
        if r == 0:
            want = ("elliptic", [])
        else:
            want = ("dual-surface", [sq, gcd(r, c * c2, s)])
        error = _expect(f"hit {w}", (branch, extra), want)
        if error:
            return error
    got = sorted(_line(w) for w, _, _ in hits)
    return _first_error(
        _expect("v", _ints(rec["v"]), list(v)),
        _expect("c2", _ints(rec["c2"]), [c2]),
        _expect("genus", _ints(rec["genus"]), [sq // 2 + 1]),
        _expect("hits", got, sorted(_criterion_lines(v, c2, bound))),
    )


def _picard_forms(g: int, n: int, d: int):
    hilb = (2 * (g - 1) * n * n, 0, -2 * (g - 1))
    t = d + 1 - g
    ell = gcd(2 * (g - 1), t)
    a0, b0 = 2 * (g - 1) // ell, t // ell
    return hilb, (0, -a0, 2 * (g - 1) * b0 * b0)


def _check_equiv(p, records) -> str | None:
    (rec,) = records
    if "f1" in p:
        f1, f2 = tuple(p["f1"]), tuple(p["f2"])
        shown = None
    else:
        f1, f2 = _picard_forms(p["g"], p["n"], p["d"])
        shown = _first_error(_expect("f1", _form(rec["f1"]), f1),
                             _expect("f2", _form(rec["f2"]), f2))
    verdict = rec["verdict"]
    sound = {"equivalent": ("equivalent", "undecided"),
             "inequivalent": ("not_equivalent", "undecided")}[p["truth"]]
    if verdict not in sound:
        return f"verdict {verdict!r} for a pair that is {p['truth']}"
    if verdict == "equivalent":
        a, b, c, d = _ints(rec["witness"])
        if abs(a * d - b * c) != 1 or transform(f1, ((a, b), (c, d))) != f2:
            return f"witness {(a, b, c, d)} does not map {f1} to {f2}"
    if verdict == "not_equivalent" and rec.get("certificate") == "determinant":
        dets = [f[0] * f[2] - f[1] * f[1] for f in (f1, f2)]
        shown = shown or _expect("determinants", _ints(rec["values"]), dets)
    return shown


def _check_census(p, records) -> str | None:
    want = [[g, n, 2 * (g - 1) * n * n, n, 1, (g - 1) * n, 2 * g - 2, n, g]
            for g in range(2, p["g_max"] + 1) for n in range(2, p["n_max"] + 1)]
    if records and isinstance(records[0], str):
        if records[0].split()[:2] != ["g", "n"]:
            return f"census header {records[0]!r}"
        rows = records[1:]
        got = [_ints(row) for row in rows]
        fine = [_flag(row.split()[-2]) for row in rows]
    else:
        keys = ("g", "n", "c2", "w", "d_square", "gerbe_order", "base_dim")
        got = [_ints([rec[key] for key in keys]) for rec in records]
        fine = [_flag(rec["fine"]) for rec in records]
    return _first_error(_expect("census rows", got, want),
                        _expect("fine", fine, [False] * len(want)))


def _ledger_checks(g: int, n: int) -> Counter:
    """How many records of each check verify-paper reports at one (g, n)."""
    c2 = 2 * (g - 1) * n * n
    counts = Counter((
        "dual_surface", "w_isotropic", "w_primitive", "gerbe_order",
        "dual_curve_square", "euler_characteristic", "base_dimension",
        "fujiki_isotropic_degree", "fujiki_ample_degree", "fujiki_constant_degree",
        "extension_square", "tensor_degree", "brill_noether_unit",
        "picard_determinants", "transform_constraints",
    ))
    counts["double_dual_square"] = 4
    counts["kernel_square"] = 3 * 2 * g
    counts["kernel_square_bound"] = 3
    counts["torsion_degree"] = sum(1 for m in range(1, 13) if c2 % m == 0)
    counts["picard_form_inequivalence"] = 4 * g + 1
    return counts


def _check_verify(p, records) -> str | None:
    """Every record passes, sits at the requested (g, n), agrees with its own
    claimed value, and each check appears as often as the ledger defines."""
    g, n = p["g"], p["n"]
    error = None
    if records and isinstance(records[0], str):
        *lines, summary = records
        rows = []
        for line in lines:
            status, name, *cells = line.split()
            fields = dict(cell.split("=", 1) for cell in cells if "=" in cell)
            rows.append({"check": name, "pass": status == "ok",
                         "g": int(fields["g"]), "n": int(fields["n"]),
                         "computed": fields.get("computed"), "claimed": fields.get("claimed")})
        error = _expect("summary", summary,
                        f"verify-paper: {len(rows)}/{len(rows)} checks passed")
    else:
        rows = records
    failed = [r["check"] for r in rows
              if r["pass"] is not True or (r["g"], r["n"]) != (g, n)
              or r.get("computed") != r.get("claimed")]
    if failed:
        return f"checks failed at g={g}, n={n}: {failed[:5]}"
    names = Counter(r["check"] for r in rows)
    return error or _expect(f"checks at g={g}, n={n}", names, _ledger_checks(g, n))


_CHECKS = {
    "pair": _check_pair,
    "square": _check_square,
    "isotropic": _check_isotropic,
    "dual": _check_dual,
    "criterion": _check_criterion,
    "equiv": _check_equiv,
    "census": _check_census,
    "verify-paper": _check_verify,
}
