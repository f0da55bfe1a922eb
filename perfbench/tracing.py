"""Per-layer spans around the public functions of the k3mukai modules.

The tracer works from outside the program.  Each public function of a layer
module is replaced, in its own module and in every k3mukai module that
imported it, by a wrapper that records a span (function, start, end, parent)
for the current request.  `MukaiVector.__post_init__` and
`QuadForm2.transform` are wrapped as well, to count vector constructions and
witness candidates.  `uninstall` puts every original back.

When a request ends its spans are folded into per-function call counts,
inclusive time and self time (a span's duration minus the time its child
spans cover).  Raw spans are kept up to a cap, so that a scan of a hundred
thousand candidates does not hold every span in memory; counts and times
always cover every span.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "mukai", "hermite", "bb", "dual_surface", "quadforms", "checks")
METHODS = (("mukai", "MukaiVector", "__post_init__"), ("quadforms", "QuadForm2", "transform"))
KEPT_SPANS = 100_000


class Tracer:
    """Spans and counts for the k3mukai layers, one pass at a time."""

    def __init__(self):
        self._spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()
        self._observers = {
            "cli.build_parser": self._on_build_parser,
            "bb.find_isotropic": self._on_find_isotropic,
            "dual_surface.general_fibration_criterion": self._on_criterion,
            "dual_surface.solve_transform_constraints": self._on_family,
            "quadforms.equivalent": self._on_equivalent,
        }
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; start a new pass."""
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.verdict_s = Counter()
        self.kept: list[tuple] = []
        self._spans.clear()
        self._stack.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"k3mukai.{layer}") for layer in LAYERS}
        package = [m for name, m in list(sys.modules.items()) if name.startswith("k3mukai")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped = self._wrap(f"{layer}.{attr}", fn)
                    for mod in package:
                        for name, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, name, wrapped)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[method]
            self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name: str, fn):
        spans, stack, owner = self._spans, self._stack, self._owner
        observe = self._observers.get(name)
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(fn, args, kwargs, result, end - start)
            return result

        return traced

    # -- observers: counts that need arguments or results -----------------

    def _on_build_parser(self, fn, args, kwargs, parser, seconds) -> None:
        parser.parse_args = self._wrap("cli.parse_args", parser.parse_args)

    def _on_find_isotropic(self, fn, args, kwargs, result, seconds) -> None:
        self.counters["isotropic_scan_steps"] += _argument(fn, args, kwargs, "bound")

    def _on_criterion(self, fn, args, kwargs, report, seconds) -> None:
        b = _argument(fn, args, kwargs, "bound")
        self.counters["criterion_candidates"] += (b + 1) * (2 * b + 1) ** 2
        self.counters["criterion_hits"] += len(report.hits)

    def _on_family(self, fn, args, kwargs, family, seconds) -> None:
        self.counters["family_members"] += len(family.solutions)

    def _on_equivalent(self, fn, args, kwargs, result, seconds) -> None:
        self.counters[f"verdict_{result.verdict}"] += 1
        self.verdict_s[result.verdict] += seconds

    # -- per-request folding and the report -------------------------------

    def end_request(self, request: int) -> None:
        """Fold the spans of one finished request into the pass totals."""
        spans = self._spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child[index]
        room = KEPT_SPANS - len(self.kept)
        self.kept.extend((request, i, parent, name, start, end)
                         for i, (name, start, end, parent) in enumerate(spans[:room]))
        spans.clear()

    def counts(self) -> dict:
        """Every count of the pass; two passes over one request list must agree."""
        return {**{f"calls.{k}": v for k, v in self.calls.items()}, **self.counters}

    def layer_metrics(self) -> dict[str, float]:
        calls, total, c = self.calls, self.total_s, self.counters
        layer_self = Counter()
        for name, seconds in self.self_s.items():
            layer_self[name.split(".")[0]] += seconds
        parse = total["cli.build_parser"] + total["cli.parse_args"]
        handler = sum(s for name, s in total.items() if name.startswith("cli.cmd_"))
        verdicts = sum(v for k, v in c.items() if k.startswith("verdict_"))
        return {
            "cli.parse_s": parse,
            "cli.handler_s": handler,
            "cli.encode_s": total["cli.main"] - parse - handler,
            "mukai.self_s": layer_self["mukai"],
            "mukai.vectors_built": calls["mukai.MukaiVector.__post_init__"],
            "mukai.pairing_calls": calls["mukai.pairing"],
            "hermite.self_s": layer_self["hermite"],
            "hermite.row_hermite_calls": calls["hermite.row_hermite"],
            "bb.self_s": layer_self["bb"],
            "bb.isotropic_scan_steps": c["isotropic_scan_steps"],
            "bb.perp_basis_calls": calls["bb.perp_basis"],
            "dual_surface.self_s": layer_self["dual_surface"],
            "dual_surface.verify_solution_calls": calls["dual_surface.verify_solution"],
            "dual_surface.family_members": c["family_members"],
            "dual_surface.criterion_candidates": c["criterion_candidates"],
            "dual_surface.criterion_hit_ratio": _ratio(c["criterion_hits"], c["criterion_candidates"]),
            "quadforms.invariant_path_s": self.verdict_s["not_equivalent"],
            "quadforms.witness_path_s": self.verdict_s["equivalent"],
            "quadforms.undecided_path_s": self.verdict_s["undecided"],
            "quadforms.transform_calls": calls["quadforms.QuadForm2.transform"],
            "quadforms.undecided_ratio": _ratio(c["verdict_undecided"], verdicts),
            "checks.self_s": layer_self["checks"],
            "checks.calls": sum(v for k, v in calls.items() if k.startswith("checks.")),
        }

    def write_spans(self, path) -> None:
        """Kept spans as CSV, times in seconds from the first kept span."""
        origin = self.kept[0][4] if self.kept else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("request", "span", "parent", "name", "start_s", "end_s"))
            for request, span, parent, name, start, end in self.kept:
                writer.writerow((request, span, parent, name,
                                 f"{start - origin:.9f}", f"{end - origin:.9f}"))


def _argument(fn, args, kwargs, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
