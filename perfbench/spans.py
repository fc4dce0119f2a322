"""Spans at the public boundary of each qrook module, recorded from outside.

``Tracer.install`` replaces every module binding of each public function,
public method, property and arithmetic operator of the qrook layers with a
wrapper that records a span: name, start, end, parent span and op id.  A
generator gets one span per resume, so its time is its own and not its
consumer's.  Self time (span time minus child spans) is summed as spans
close; the spans themselves are kept in flat arrays and written at the end.

Work counts are computed from inputs, never read from the program: rook
placements are r_k(B) at q = 1 per ``rook_poly`` miss, permutations n! per
``mat``/``xi`` hit-polynomial miss, matrices p^Area per enumeration, words
the multinomial of the multiplicity vector.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import math
import time
from collections import Counter
from typing import Callable

from workloads import rook_numbers

LAYERS = ("qpoly", "boards", "placements", "ffmat", "permstat", "verify", "cli")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")
SUITES = ("rook", "hit", "mahonian", "euler", "reciprocity", "ffmat", "unimodal", "steps")
SPAN_FIELDS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


def _n(board) -> int:
    return len(board.heights)


def _matrices(board, p, budget=None) -> int:
    return p ** sum(board.heights)


def _multinomial(v) -> int:
    out, total = 1, 0
    for part in v:
        total += part
        out *= math.comb(total, part)
    return out


# span name -> (counter, work computed from the call's arguments)
WORK: dict[str, tuple[str, Callable[..., int]]] = {
    "placements.rook_poly": ("placements", lambda board, k: rook_numbers(board.heights)[k]),
    "placements.enumerate_placements": ("placements", lambda board, k: rook_numbers(board.heights)[k]),
    "placements.hit_polys.mat": ("permutations", lambda board, method="mat": math.factorial(_n(board))),
    "placements.hit_polys.xi": ("permutations", lambda board, method="mat": math.factorial(_n(board))),
    "placements.classical_hit_distribution": ("permutations", lambda board: math.factorial(_n(board))),
    "placements.enumerate_full": ("permutations", lambda n, board, k: math.factorial(n)),
    "ffmat.enumerate_support_matrices": ("matrices", _matrices),
    "permstat.words_over": ("words", _multinomial),
    "permstat.permutations_of": ("words", math.factorial),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = spans = {field: array.array(code) for field, code in SPAN_FIELDS}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.op = -1
        self.work: Counter[str] = Counter()
        self._restore: list[Callable[[], None]] = []
        # The span hot path: closures over locals, since every wrapped call
        # pays for it and the overhead lands in the caller's self time.
        name_a, start_a, end_a, parent_a, op_a = (spans[f] for f, _ in SPAN_FIELDS)
        calls, self_s = self.calls, self.self_s
        stack: list[list] = []  # [span index, seconds covered by children]
        clock = time.perf_counter

        def enter(nid: int) -> None:
            name_a.append(nid)
            parent_a.append(stack[-1][0] if stack else -1)
            op_a.append(self.op)
            end_a.append(0.0)
            stack.append([len(start_a), 0.0])
            start_a.append(clock())

        def exit() -> None:
            end = clock()
            idx, child = stack.pop()
            end_a[idx] = end
            dur = end - start_a[idx]
            nid = name_a[idx]
            calls[nid] += 1
            self_s[nid] += dur - child
            if stack:
                stack[-1][1] += dur

        self.enter, self.exit = enter, exit

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def by_name(self, *prefixes: str) -> tuple[int, float]:
        """Calls and self seconds of the spans named `p` or `p.*` for any
        of the prefixes."""
        calls, seconds = 0, 0.0
        for nid, name in enumerate(self.names):
            if any(name == p or name.startswith(p + ".") for p in prefixes):
                calls += self.calls[nid]
                seconds += self.self_s[nid]
        return calls, seconds

    def write(self, path) -> None:
        """One JSON header line (names, fields, count), then each field's array."""
        header = {
            "names": self.names,
            "fields": [[f, c] for f, c in SPAN_FIELDS],
            "count": len(self.spans["start"]),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(f)

    # -- wrappers ---------------------------------------------------------

    def _count(self, name: str, args, kwargs) -> None:
        counter, work = WORK[name]
        self.work[counter] += work(*args, **kwargs)

    def _wrap(self, fn, name: str, namer: Callable | None = None):
        enter, exit, nid = self.enter, self.exit, self.name_id(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        exit()
                    yield item
                if name in WORK:
                    self._count(name, args, kwargs)

            return gen_wrapper

        if namer is None and name not in WORK:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit()

            return wrapper

        # counted work happens on a cache miss only, when there is a cache
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def counting_wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            misses = cache_info().misses if cache_info else 0
            enter(self.name_id(span))
            try:
                result = fn(*args, **kwargs)
            finally:
                exit()
            if span in WORK and (not cache_info or cache_info().misses > misses):
                self._count(span, args, kwargs)
            return result

        return counting_wrapper

    def install(self, modules: dict) -> None:
        """Wrap the public callables of each layer module in every module
        (and suite table) that binds them."""
        replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, name)
                # the click group behind cli.main reports click's module
                elif callable(obj) and (
                    getattr(obj, "__module__", None) == mod.__name__ or name == "cli.main"
                ):
                    namer = _hit_polys_namer if name == "placements.hit_polys" else None
                    replace[id(obj)] = (obj, self._wrap(obj, name, namer))
        bindings = [vars(m) for m in modules.values()] + [modules["verify"].SUITES]
        for table in bindings:
            for key, obj in list(table.items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    table[key] = replace[id(obj)][1]
                    self._restore.append(functools.partial(table.__setitem__, key, obj))

    def _wrap_class(self, cls: type, name: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            span = f"{name}.{attr}"
            if isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(raw.fget, span))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, span))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, span)
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _hit_polys_namer(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "mat")
    return f"placements.hit_polys.{method}"


def read_spans(path) -> tuple[list[str], dict[str, array.array]]:
    """Inverse of ``Tracer.write``: span names and the field arrays."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        fields = {}
        for field, code in header["fields"]:
            arr = array.array(code)
            arr.fromfile(f, header["count"])
            fields[field] = arr
    return header["names"], fields


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CACHES = (
    ("qpoly", "q_bracket"),
    ("qpoly", "q_factorial"),
    ("qpoly", "q_binomial"),
    ("qpoly", "q_stirling"),
    ("placements", "rook_poly"),
    ("placements", "hit_polys"),
    ("placements", "classical_hit_distribution"),
    ("ffmat", "rank_distribution"),
    ("permstat", "_spec_context"),
)

PERMSTAT_KERNELS = ("mat_word", "xi_word", "stat5", "stat6", "stat7", "stat_family")
SELF_TIMED = (
    "placements.rook_poly",
    "placements.hit_polys.mat",
    "placements.hit_polys.xi",
    "placements.hit_polys.defining",
    "ffmat.rank_distribution",
    "ffmat.fiber_check",
    "ffmat.p_k_formula",
) + tuple(f"permstat.{fn}" for fn in PERMSTAT_KERNELS)

# (name, unit, better); "computed" counts come from inputs, not from the
# program.  qpoly.mul and qpoly.add are LaurentPoly's operators.
PER_LAYER: list[tuple[str, str, str]] = (
    [
        ("qpoly.mul.calls", "count", "lower"),
        ("qpoly.mul.self_s", "s", "lower"),
        ("qpoly.add.self_s", "s", "lower"),
        ("qpoly.divide_exact.self_s", "s", "lower"),
        ("qpoly.self_s", "s", "lower"),
        ("boards.calls", "count", "lower"),
        ("boards.self_s", "s", "lower"),
        ("placements.rook_poly.self_s", "s", "lower"),
        ("placements.hit_polys.mat.self_s", "s", "lower"),
        ("placements.hit_polys.xi.self_s", "s", "lower"),
        ("placements.hit_polys.defining.self_s", "s", "lower"),
        ("placements.placements_enumerated", "computed-count", "lower"),
        ("placements.permutations_enumerated", "computed-count", "lower"),
        ("placements.self_s", "s", "lower"),
        ("ffmat.rank_distribution.self_s", "s", "lower"),
        ("ffmat.matrices_enumerated", "computed-count", "lower"),
        ("ffmat.matrices_per_s", "1/s", "higher"),
        ("ffmat.fiber_check.self_s", "s", "lower"),
        ("ffmat.p_k_formula.self_s", "s", "lower"),
        ("ffmat.self_s", "s", "lower"),
    ]
    + [(f"permstat.{fn}.self_s", "s", "lower") for fn in PERMSTAT_KERNELS]
    + [
        ("permstat.words_enumerated", "computed-count", "lower"),
        ("permstat.self_s", "s", "lower"),
    ]
    + [(f"verify.{suite}.self_s", "s", "lower") for suite in SUITES]
    + [
        ("verify.checks", "count", "higher"),
        ("verify.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    + [
        metric
        for layer, fn in CACHES
        for metric in (
            (f"{layer}.{fn}.hit_ratio", "ratio", "higher"),
            (f"{layer}.{fn}.entries", "count", "lower"),
        )
    ]
)


def cache_stats(modules: dict) -> dict[str, float]:
    """Hit ratio and entry count of every lru cache, from ``cache_info()``."""
    out = {}
    for layer, fn in CACHES:
        info = getattr(modules[layer], fn).cache_info()
        lookups = info.hits + info.misses
        out[f"{layer}.{fn}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{layer}.{fn}.entries"] = info.currsize
    return out


def layer_metrics(tracer: Tracer, caches: dict, checks: int, overhead_ratio: float) -> dict[str, float]:
    mul = tracer.by_name("qpoly.LaurentPoly.__mul__", "qpoly.LaurentPoly.__rmul__")
    values: dict[str, float] = {
        "qpoly.mul.calls": mul[0],
        "qpoly.mul.self_s": mul[1],
        "qpoly.add.self_s": tracer.by_name("qpoly.LaurentPoly.__add__", "qpoly.LaurentPoly.__radd__")[1],
        "qpoly.divide_exact.self_s": tracer.by_name("qpoly.LaurentPoly.divide_exact")[1],
        "boards.calls": tracer.by_name("boards")[0],
    }
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = tracer.by_name(name)[1]
    for suite in SUITES:
        values[f"verify.{suite}.self_s"] = tracer.by_name(f"verify.suite_{suite}")[1]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.by_name(layer)[1]
    values["placements.placements_enumerated"] = tracer.work["placements"]
    values["placements.permutations_enumerated"] = tracer.work["permutations"]
    values["ffmat.matrices_enumerated"] = tracer.work["matrices"]
    ffmat_s = values["ffmat.self_s"]
    values["ffmat.matrices_per_s"] = tracer.work["matrices"] / ffmat_s if ffmat_s else 0.0
    values["permstat.words_enumerated"] = tracer.work["words"]
    values["verify.checks"] = checks
    values["trace.overhead_ratio"] = overhead_ratio
    values.update(caches)
    return values
