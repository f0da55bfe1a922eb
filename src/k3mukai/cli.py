"""Command line for the lattice toolkit.

Subcommands cover single computations (pair, square, isotropic, dual,
criterion, equiv), the full verification ledger (verify-paper), and the
(g, n) census.  `_SUBCOMMANDS` declares each one once, with its `--help`
line and its flags; `main` runs its handler `cmd_<name>`, which returns
the records.  A record is the dict
{"command": str, "inputs": dict, "outputs": dict, "pass": bool?}
whose values may still be library values; only ledger records carry "pass".
Output is a human-readable aligned table by default; --json switches to
newline-delimited JSON, one record per line, with exact integers
throughout; a library value (a vector, a form, a class) encodes as the
object of its fields.

Exit codes: 0 success, 1 when a record fails ("pass" false), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from math import isqrt

# The vector reader, `pair`, `square` and `criterion` use .mukai.  Every other
# library name is imported in the body of the function that calls it: a call
# loads only the modules its subcommand runs, and reads each name off its home
# module when it runs, which is where perfbench's tracer wraps it.
from .mukai import (
    MukaiVector,
    NSGram,
    euler_characteristic,
    is_primitive,
    pairing,
    square,
)

__all__ = ["ledger_checks", "census_records", "main"]


# Widest `dual` span k_max - k_min; the family has (span + 1)(2 span + 1) members.
DUAL_K_SPAN_MAX = 40
# Largest `census` --g-max or --n-max (the 100 x 100 grid takes about 1 s)
# and largest `verify-paper --g` (the ledger writes 10g + 1 kernel-square and
# Picard-form records per (g, n)).
CENSUS_GRID_MAX = 100
# Largest -det of `equiv` forms sharing a negative non-square determinant: their
# cycle of reduced forms grows like sqrt(-det), to about 4,300 forms and 20 ms.
EQUIV_DET_MAX = 10**6
# Least value of each integer flag, by argparse dest, in every subcommand that
# takes it; `main` checks them in this order before the handler runs.
_MINIMUMS = {"g": 2, "n": 2, "g_max": 2, "n_max": 2, "bound": 1, "d": 0}


def _format_value(value) -> str:
    kind = type(value)
    if kind is int or kind is str:  # exact types: a bool prints as true/false
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# verification ledger


def _equal(computed, claimed, **extra) -> tuple[dict, tuple]:
    """The outputs and the one claim of a record that checks computed == claimed."""
    return {"computed": computed, "claimed": claimed, **extra}, ((computed, claimed),)


def _point_checks(g: int, n: int):
    """Every ledger check at one (g, n) grid point, as (check, inputs,
    outputs, claims); `claims` holds (computed, claimed) pairs."""
    from .bb import BBLattice, fujiki_degree
    from .checks import (
        brill_noether_data,
        double_dual_square,
        extension_square,
        kernel_square,
        kernel_square_bound,
        tensor_degree_check,
        torsion_degree,
    )
    from .dual_surface import build_dual, family_holds, family_ranges
    from .quadforms import equivalent, gen_picard_determinant, picard_scheme_form

    c2 = 2 * (g - 1) * n * n
    gram = NSGram.rank_one(c2)
    report = build_dual(g, n)
    w = report.w

    # the report's fields but polarization_dual, which `dual` prints
    outputs = {k: v for k, v in vars(report).items() if k != "polarization_dual"}
    yield "dual_surface", {}, outputs, ((report.fine, False),)
    yield "w_isotropic", {}, *_equal(square(w, gram), 0)
    yield "w_primitive", {}, *_equal(is_primitive(w), True)
    yield "gerbe_order", {}, *_equal(report.gerbe_order, n)
    yield "dual_curve_square", {}, *_equal(report.d_square, 2 * g - 2)
    yield "euler_characteristic", {}, *_equal(euler_characteristic(w, gram), g * n)
    yield "base_dimension", {}, *_equal(report.base_dim, g)

    # Fujiki degree trichotomy on Pic(Hilb^g S) = diag(c2, -2(g-1)), which the
    # Picard-form records compare too; q_mixed polarizes ample (1, 0), isotropic (1, n)
    hilb = BBLattice(c2, g).form
    q_ample = hilb.value(1, 0)
    q_iso = hilb.value(1, n)
    q_mixed = (hilb.value(2, n) - q_ample - q_iso) // 2
    yield "fujiki_isotropic_degree", {}, *_equal(
        fujiki_degree(q_ample, q_mixed, q_iso, g), g, q_isotropic=q_iso
    )
    yield "fujiki_ample_degree", {}, *_equal(
        fujiki_degree(q_ample, q_mixed, q_ample, g), 2 * g
    )
    yield "fujiki_constant_degree", {}, *_equal(fujiki_degree(q_ample, 0, 0, g), 0)

    for length in range(0, 4):
        computed, claimed = double_dual_square(n, g, length)
        violation = computed < -2
        outputs, claims = _equal(computed, claimed, bogomolov_violation=violation)
        yield "double_dual_square", {"length": length}, outputs, (
            *claims, (violation, length > 0)
        )

    yield "extension_square", {}, *_equal(*extension_square(n, g))

    for length in range(0, 3):
        expected_bound = 0  # raw route: the largest N whose square is >= -2
        for big_n in range(1, 2 * g + 1):
            computed, claimed = kernel_square(big_n, n, g, length)
            if computed >= -2:
                expected_bound = big_n
            yield "kernel_square", {"N": big_n, "length": length}, *_equal(
                computed, claimed
            )
        yield "kernel_square_bound", {"length": length}, *_equal(
            kernel_square_bound(n, g, length), expected_bound
        )

    for m in range(1, 13):
        if c2 % m:
            continue
        degree, allowed = torsion_degree(g, n, m)
        yield "torsion_degree", {"m": m}, {"degree": degree, "allowed": allowed}, (
            (degree * m, c2), (allowed, m == 1)
        )

    yield "tensor_degree", {}, *_equal(*tensor_degree_check(g, n))

    rank, degree = brill_noether_data(g, n)
    yield "brill_noether_unit", {}, *_equal(
        degree - (g - 1) * rank, 1, rank=rank, degree=degree
    )

    hilb_det = gen_picard_determinant(c2)
    dual_det = gen_picard_determinant(2 * (g - 1))
    distinct = hilb_det != dual_det
    outputs = {"hilb_det": hilb_det, "dual_det": dual_det, "distinct": distinct}
    yield "picard_determinants", {}, outputs, (
        (hilb_det, -c2), (dual_det, -(2 * g - 2)), (distinct, True)
    )

    for d in range(0, 4 * g + 1):
        scheme = picard_scheme_form(g, d)
        verdict = equivalent(hilb, scheme.form)
        outputs = {
            "verdict": verdict.verdict,
            "certificate": verdict.certificate,
            "determinants": [hilb.determinant(), scheme.form.determinant()],
        }
        yield "picard_form_inequivalence", {"d": d}, outputs, (
            (verdict.verdict, "not_equivalent"), (verdict.certificate, "determinant")
        )

    k_values, l_values = family_ranges((-3, 3))
    yield "transform_constraints", {}, {"solutions": len(k_values) * len(l_values)}, (
        (family_holds(g, n), True),
    )


def ledger_checks(g_values, n_values) -> list[dict]:
    """The ledger over a (g, n) grid; a record passes when all its claims hold."""
    return [
        {
            "command": "verify-paper",
            "inputs": {"check": check, "g": g, "n": n, **inputs},
            "outputs": outputs,
            "pass": all(computed == claimed for computed, claimed in claims),
        }
        for g in g_values
        for n in n_values
        for check, inputs, outputs, claims in _point_checks(g, n)
    ]


# ---------------------------------------------------------------------------
# census


def census_records(g_max: int, n_max: int, jobs: int = 1) -> list[dict]:
    """One record per grid point, ordered by (g, n).

    `jobs` has no effect: the census is CPU-bound Python, which threads
    only slow down under the GIL.  It stays for perfbench until ROADMAP item 1.
    """
    from .dual_surface import build_dual

    records = []
    for g in range(2, g_max + 1):
        for n in range(2, n_max + 1):
            report = build_dual(g, n)
            outputs = {
                "c2": report.c2,
                "w": report.w,
                "d_square": report.d_square,
                "gerbe_order": report.gerbe_order,
                "fine": report.fine,
                "base_dim": report.base_dim,
            }
            records.append(
                {"command": "census", "inputs": {"g": g, "n": n}, "outputs": outputs}
            )
    return records


# ---------------------------------------------------------------------------
# rendering


def _render_default(records) -> str:
    lines = []
    for rec in records:
        lines.append(rec["command"] + "\n")
        # only ledger records carry "pass", and they render in _render_verify
        items = [*rec["inputs"].items(), *rec["outputs"].items()]
        width = max(len(key) for key, _ in items)
        lines.extend(f"  {k:<{width}} = {_format_value(v)}\n" for k, v in items)
    return "".join(lines)


def _render_census(records) -> str:
    # a census record's inputs, then its outputs, are the columns in order
    rows = [[*records[0]["inputs"], *records[0]["outputs"]]]
    for rec in records:
        cells = {**rec["inputs"], **rec["outputs"]}.values()
        rows.append([_format_value(v) for v in cells])
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )


def _render_verify(records) -> str:
    lines = []
    for rec in records:
        status = "ok" if rec["pass"] else "FAIL"
        context = " ".join(
            f"{key}={_format_value(value)}"
            for key, value in rec["inputs"].items()
            if key != "check"
        )
        outputs = " ".join(
            f"{key}={_format_value(value)}" for key, value in rec["outputs"].items()
        )
        lines.append(f"{status:<5} {rec['inputs']['check']:<26} {context:<18} {outputs}\n")
    passed = sum(1 for rec in records if rec["pass"])
    lines.append(f"verify-paper: {passed}/{len(records)} checks passed\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _parse_triple(text: str, kind: str, spelling: str) -> list[int]:
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse {kind} {text!r}: {exc}") from None
    if len(parts) != 3:
        raise ValueError(f"{kind}s take the form {spelling}")
    return parts


def _parse_vector(text: str) -> MukaiVector:
    r, c, s = _parse_triple(text, "vector", "r,c,s (rank-one NS)")
    return MukaiVector(r, (c,), s)


def cmd_pair(args) -> list[dict]:
    v, u = _parse_vector(args.v), _parse_vector(args.u)
    gram = NSGram.rank_one(args.c2)
    return [{
        "command": "pair",
        "inputs": {"v": v, "u": u, "c2": args.c2},
        "outputs": {"pairing": pairing(v, u, gram)},
    }]


def cmd_square(args) -> list[dict]:
    v = _parse_vector(args.v)
    gram = NSGram.rank_one(args.c2)
    return [{
        "command": "square",
        "inputs": {"v": v, "c2": args.c2},
        "outputs": {"square": square(v, gram)},
    }]


def cmd_isotropic(args) -> list[dict]:
    from .bb import BBLattice, find_isotropic

    lat = BBLattice(args.c2, args.g)
    result = find_isotropic(lat, args.bound)
    return [{
        "command": "isotropic",
        "inputs": {"c2": args.c2, "g": args.g, "bound": args.bound},
        "outputs": {"classes": result.classes, "exists_nontrivial": result.exists},
    }]


def cmd_dual(args) -> list[dict]:
    from .dual_surface import build_dual, solve_transform_constraints

    if args.k_max - args.k_min > DUAL_K_SPAN_MAX:
        raise ValueError(f"--k-max - --k-min must be at most {DUAL_K_SPAN_MAX}")
    report = build_dual(args.g, args.n)
    family = solve_transform_constraints(args.g, args.n, (args.k_min, args.k_max))
    return [{
        "command": "dual",
        "inputs": {"g": args.g, "n": args.n, "k_min": args.k_min, "k_max": args.k_max},
        "outputs": {
            **vars(report),
            "d_ample_assumed": report.d_ample_assumed,
            "constraints": family.equations,
            "solutions": family.solutions,
        },
    }]


def cmd_criterion(args) -> list[dict]:
    from .dual_surface import general_fibration_criterion

    if args.v is not None:
        if args.g is not None or args.n is not None:
            raise ValueError("--v cannot be combined with --g or --n")
        if args.c2 is None:
            raise ValueError("--v requires --c2")
        v, c2 = _parse_vector(args.v), args.c2
    elif args.g is not None:
        if args.c2 is not None and args.n is not None:
            raise ValueError("--g takes --n or --c2, not both")
        v = MukaiVector(1, (0,), 1 - args.g)
        if args.c2 is not None:
            c2 = args.c2
        elif args.n is not None:
            c2 = 2 * (args.g - 1) * args.n * args.n
        else:
            raise ValueError("--g needs either --n or --c2 to fix the lattice")
    else:
        raise ValueError("criterion needs --v with --c2, or --g with --n/--c2")
    report = general_fibration_criterion(v, NSGram.rank_one(c2), args.bound)
    return [{
        "command": "criterion",
        "inputs": {"v": v, "c2": c2, "bound": args.bound},
        "outputs": {**vars(report)},
    }]


def cmd_equiv(args) -> list[dict]:
    from .bb import BBLattice
    from .quadforms import QuadForm2, equivalent, picard_scheme_form

    if args.f1 is not None or args.f2 is not None:
        if args.f1 is None or args.f2 is None:
            raise ValueError("--f1 and --f2 must be given together")
        if args.g is not None or args.n is not None or args.d is not None:
            raise ValueError("--f1/--f2 cannot be combined with --g, --n or --d")
        f1 = QuadForm2(*_parse_triple(args.f1, "form", "m11,m12,m22"))
        f2 = QuadForm2(*_parse_triple(args.f2, "form", "m11,m12,m22"))
        inputs = {"f1": f1, "f2": f2, "bound": args.bound}
    else:
        if args.g is None or args.n is None or args.d is None:
            raise ValueError("equiv needs --f1/--f2 or all of --g, --n, --d")
        f1 = BBLattice(2 * (args.g - 1) * args.n * args.n, args.g).form
        f2 = picard_scheme_form(args.g, args.d).form
        inputs = {"g": args.g, "n": args.n, "d": args.d, "bound": args.bound}
    det = f1.determinant()
    if det == f2.determinant() < -EQUIV_DET_MAX and isqrt(-det) ** 2 != -det:
        raise ValueError(f"a shared non-square det must be at least -{EQUIV_DET_MAX}")
    result = equivalent(f1, f2, proper=args.proper)
    outputs = {} if "f1" in inputs else {"f1": f1, "f2": f2}
    outputs.update((k, v) for k, v in vars(result).items() if v is not None)
    return [{"command": "equiv", "inputs": inputs, "outputs": outputs}]


def cmd_verify_paper(args) -> list[dict]:
    if args.g is not None and args.g > CENSUS_GRID_MAX:
        raise ValueError(f"--g must be at most {CENSUS_GRID_MAX}")
    g_values = [args.g] if args.g is not None else range(2, 11)
    n_values = [args.n] if args.n is not None else range(2, 11)
    return ledger_checks(g_values, n_values)


def cmd_census(args) -> list[dict]:
    if max(args.g_max, args.n_max) > CENSUS_GRID_MAX:
        raise ValueError(f"--g-max and --n-max must be at most {CENSUS_GRID_MAX}")
    return census_records(args.g_max, args.n_max)


_RENDERERS = {"census": _render_census, "verify-paper": _render_verify}


# name -> (line in `--help`, the subcommand's flags as (flag, add_argument keywords));
# argparse derives each dest from its flag, "--k-min" -> "k_min"
_SUBCOMMANDS = {
    "pair": ("Mukai pairing of two vectors", (
        ("--v", {"required": True, "help": "vector r,c,s"}),
        ("--u", {"required": True, "help": "vector r,c,s"}),
        ("--c2", {"type": int, "required": True, "help": "C^2 of the NS generator"}),
    )),
    "square": ("Mukai self-pairing", (
        ("--v", {"required": True, "help": "vector r,c,s"}),
        ("--c2", {"type": int, "required": True}),
    )),
    "isotropic": ("isotropic divisor classes on Hilb^g", (
        ("--c2", {"type": int, "required": True}),
        ("--g", {"type": int, "required": True}),
        ("--bound", {"type": int, "default": 10}),
    )),
    "dual": ("dual-surface data and constraint family", (
        ("--g", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--k-min", {"type": int, "default": -2}),
        ("--k-max", {"type": int, "default": 2}),
    )),
    "criterion": ("search isotropic classes orthogonal to v", (
        ("--v", {"help": "vector r,c,s (defaults to (1, 0, 1-g))"}),
        ("--c2", {"type": int}),
        ("--g", {"type": int}),
        ("--n", {"type": int}),
        ("--bound", {"type": int, "default": 5}),
    )),
    "equiv": ("GL2(Z)-equivalence of two quadratic forms", (
        ("--f1", {"help": "form m11,m12,m22"}),
        ("--f2", {"help": "form m11,m12,m22"}),
        ("--g", {"type": int}),
        ("--n", {"type": int}),
        ("--d", {"type": int}),
        ("--bound", {"type": int, "default": 10}),
        ("--proper", {"action": "store_true", "help": "restrict to SL2(Z) equivalence"}),
    )),
    "verify-paper": ("run the full verification ledger", (
        ("--g", {"type": int, "help": "restrict the grid to one g"}),
        ("--n", {"type": int, "help": "restrict the grid to one n"}),
    )),
    "census": ("one row per (g, n)", (
        ("--g-max", {"type": int, "default": 10}),
        ("--n-max", {"type": int, "default": 10}),
    )),
}
_EQUIV_EPILOG = "Forms are symmetric Gram matrices m11,m12,m22."
# argparse's help and usage errors wrap at 78 columns as on an 80-column
# terminal, whatever the terminal or COLUMNS says
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser(command: str) -> argparse.ArgumentParser:
    """Subcommand `command`'s parser, which reads the arguments after the
    name and reports its own usage errors."""
    parser = argparse.ArgumentParser(
        prog="k3mukai " + command,
        epilog=_EQUIV_EPILOG if command == "equiv" else None,
        formatter_class=_FORMATTER,
    )
    parser.add_argument(
        "--json", action="store_true", help="emit newline-delimited JSON records"
    )
    for flag, keywords in _SUBCOMMANDS[command][1]:
        parser.add_argument(flag, **keywords)
    return parser


def _answer_top_level(argv: list[str]) -> None:
    """Raise SystemExit for a call that does not start with a subcommand: help
    (exit 0) for `-h` or `--help` first, else a usage error (exit 2), both in
    argparse's layout."""
    choices = "{" + ",".join(_SUBCOMMANDS) + "}"
    usage = f"usage: k3mukai [-h]\n{' ' * 15}{choices}\n{' ' * 15}...\n"
    if argv and argv[0] in ("-h", "--help"):
        rows = "".join(f"    {name:<20}{spec[0]}\n" for name, spec in _SUBCOMMANDS.items())
        sys.stdout.write(
            f"{usage}\nExact Mukai-lattice arithmetic for K3 surfaces\n\n"
            f"positional arguments:\n  {choices}\n{rows}\noptions:\n"
            "  -h, --help            show this help message and exit\n"
        )
        raise SystemExit(0)
    if not argv:
        reason = "the following arguments are required: command"
    elif argv[0].startswith("-"):
        reason = f"unrecognized arguments: {argv[0]}"
    else:
        names = ", ".join(map(repr, _SUBCOMMANDS))
        reason = f"argument command: invalid choice: {argv[0]!r} (choose from {names})"
    sys.stderr.write(f"{usage}k3mukai: error: {reason}\n")
    raise SystemExit(2)


_LIST_FLAGS = frozenset({"--v", "--u", "--f1", "--f2"})
_NEGATIVE_LIST = re.compile(r"-\d+(,-?\d+)*")


def _join_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite `--v -3,1,2` as `--v=-3,1,2`.

    argparse reads a value that starts with '-' and is not a plain number as
    a flag, so the spaced spelling of a vector or form with a negative
    leading component would be rejected.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _LIST_FLAGS and _NEGATIVE_LIST.fullmatch(token):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = _join_negative_lists(sys.argv[1:] if argv is None else argv)
    # the named subcommand's parser alone reads the call
    if not argv or argv[0] not in _SUBCOMMANDS:
        _answer_top_level(argv)
    args = build_parser(argv[0]).parse_args(argv[1:])
    try:
        # None: the subcommand has no such flag, or the call leaves it out
        for dest, minimum in _MINIMUMS.items():
            value = getattr(args, dest, None)
            if value is not None and value < minimum:
                flag = dest.replace("_", "-")
                raise ValueError(f"--{flag} must be at least {minimum}")
        # looked up when called, so a wrapper set on this module's cmd_* is the one run
        records = globals()["cmd_" + argv[0].replace("-", "_")](args)
        # render all output first: an int past str()'s digit limit raises ValueError
        if args.json:
            import json  # imported on first use: table output never needs it
            # a library value, the one type `json` cannot encode, encodes as its
            # __dict__: its fields in `__init__` order.  A record is a fresh tree
            # of immutable values, so it has no cycle for the encoder to look for.
            encode = json.JSONEncoder(
                separators=(",", ":"), default=vars, check_circular=False
            ).encode
            text = "".join(encode(record) + "\n" for record in records)
        else:
            text = _RENDERERS.get(argv[0], _render_default)(records)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 1 if any(record.get("pass") is False for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
