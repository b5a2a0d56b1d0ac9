"""Spans around the package's public functions, kept in memory.

``Tracer.install()`` replaces every module attribute of the package that
holds a traced function, and every entry of a module-level dict (or tuple
inside one) that holds it, with a wrapper that records a span while the
tracer is active. Modules bind some of these functions under their own
names (``from .covers import count_pointed_isogenies``) or keep them in
tables (``loci.FAMILIES``), so patching the defining module alone would
miss those calls. ``uninstall()`` puts every original back.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of
the enclosing span (-1 at the top). A span's self time is its duration
minus the durations of its direct children; calls run on one thread and
nest, so the children never overlap.

Cache misses come from ``cache_info()`` of the cached functions, read
before and after the traced operation, never from the wrapper's call count.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "delliptic"
MODULES = ("cli", "chow", "covers", "divisors", "linalg", "loci", "quasimodular",
           "report", "series")
#: the layers, in the order they are reported
LAYERS = ("divisors", "covers", "loci", "chow", "linalg", "quasimodular", "series",
          "report", "cli")

#: (module, attribute, span name); the layer is the span name up to its first dot
TARGETS = (
    ("divisors", "conv2", "divisors.conv"),
    ("divisors", "conv2_weighted", "divisors.conv"),
    ("divisors", "conv3", "divisors.conv"),
    ("covers", "count_pointed_isogenies", "covers.isogeny"),
    ("covers", "count_sublattices", "covers.sublattice"),
    ("covers", "hurwitz_number", "covers.hurwitz"),
    ("covers", "count_dd22", "covers.dd"),
    ("covers", "count_dd2222", "covers.dd"),
    ("loci", "boundary_profile_m2", "loci.profile.m2"),
    ("loci", "fixed_target_profile_m2", "loci.profile.m2e"),
    ("loci", "boundary_profile_m21", "loci.profile.m21"),
    ("loci", "boundary_profile_m3", "loci.profile.m3"),
    ("loci", "delliptic_class_m2", "loci.class"),
    ("loci", "fixed_target_class_m2", "loci.class"),
    ("loci", "delliptic_class_m21", "loci.class"),
    ("loci", "delliptic_class_m3", "loci.class"),
    ("loci", "triple_branch_chain_sum", "loci.triple"),
    ("loci", "triple_branch_split_sum", "loci.triple"),
    ("loci", "triple_branch_cancellation", "loci.triple"),
    ("loci", "coefficient_series", "loci.series"),
    ("loci", "certify_quasimodularity", "loci.certify"),
    ("chow", "solve_class", "chow.solve"),
    ("chow", "pairing_number", "chow.pairing"),
    ("chow", "pairing", "chow.pairing"),
    ("linalg", "solve_unique", "linalg.solve"),
    ("linalg", "solve_any", "linalg.solve"),
    ("quasimodular", "fit_quasimodular", "quasimodular.fit"),
    ("quasimodular", "quasimodular_basis", "quasimodular.basis"),
    ("quasimodular", "eisenstein", "quasimodular.eisenstein"),
    ("report", "run_verification", "report.verify"),
    ("cli", "main", "cli.main"),
)
#: (class, method, span name) on the package's classes
METHOD_TARGETS = (("series.QSeries", "__mul__", "series.mul"),)

#: cached functions whose cache_info() feeds a metric: (module, attribute)
CACHED = {
    "conv": (("divisors", "conv2"), ("divisors", "conv2_weighted"), ("divisors", "conv3")),
    "sigma": (("divisors", "sigma"),),
    "profile": (("loci", "boundary_profile_m2"), ("loci", "fixed_target_profile_m2"),
                ("loci", "boundary_profile_m21"), ("loci", "boundary_profile_m3")),
    "class": (("loci", "delliptic_class_m2"), ("loci", "fixed_target_class_m2"),
              ("loci", "delliptic_class_m21"), ("loci", "delliptic_class_m3")),
}

ROOT = "bench.op"


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def cache_counts(group: str) -> tuple[int, int]:
    """Summed (hits, misses) of one group of cached functions."""
    hits = misses = 0
    for module, attr in CACHED[group]:
        info = getattr(_module(module), attr).cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    """Records spans while ``active``; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = self.clock()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, attr, name in TARGETS:
            fn = getattr(_module(module), attr)
            wrappers[id(fn)] = self.wrap(name, fn)
        modules = [importlib.import_module(PACKAGE)] + [_module(m) for m in MODULES]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._replace(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    self._patch_table(value, wrappers)
        for path, method, name in METHOD_TARGETS:
            module, cls_name = path.split(".")
            cls = getattr(_module(module), cls_name)
            self._replace(cls, method, self.wrap(name, vars(cls)[method]))

    def _replace(self, owner, attr, new) -> None:
        old = getattr(owner, attr) if not isinstance(owner, type) else vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, new)

    def _patch_table(self, table: dict, wrappers: dict) -> None:
        for key, value in list(table.items()):
            if id(value) in wrappers:
                new = wrappers[id(value)]
            elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                new = tuple(wrappers.get(id(v), v) for v in value)
            else:
                continue
            self._undo.append(lambda key=key, value=value: table.__setitem__(key, value))
            table[key] = new

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _observe_linalg(counters, args, result) -> None:
    matrix = args[0]
    counters["linalg.cells"] += len(matrix) * (len(matrix[0]) + 1) if matrix else 0


def _observe_fit(counters, args, result) -> None:
    from delliptic.quasimodular import NotQuasimodular

    counters["quasimodular.refusals"] += isinstance(result, NotQuasimodular)


_OBSERVERS = {"linalg.solve": _observe_linalg, "quasimodular.fit": _observe_fit}


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, before: dict, after: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``before``/``after`` map each CACHED group to its (hits, misses) around
    the operation; the tracer must hold exactly one ROOT span.
    """
    spans, own = tracer.spans, tracer.self_times()
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(roots)}")
    total = spans[roots[0]][2] - spans[roots[0]][1]
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, t in zip(spans, own):
        self_by_name[span[0]] += t
        calls[span[0]] += 1
    delta = {g: (after[g][0] - before[g][0], after[g][1] - before[g][1]) for g in CACHED}

    fit_ms = [1000 * (s[2] - s[1]) for s in spans if s[0] == "quasimodular.fit"]
    cli_s = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
    verify_in_cli = sum(
        s[2] - s[1]
        for s in spans
        if s[0] == "report.verify" and _has_ancestor(spans, s, "cli.main")
    )
    metrics = {
        "divisors.conv_s": self_by_name["divisors.conv"],
        "divisors.conv_calls": delta["conv"][1],
        "divisors.sigma_hit_ratio": _ratio(*delta["sigma"]),
        "covers.isogeny_s": self_by_name["covers.isogeny"],
        "covers.isogeny_calls": calls["covers.isogeny"],
        "covers.sublattice_s": self_by_name["covers.sublattice"],
        "covers.hurwitz_s": self_by_name["covers.hurwitz"],
        "covers.hurwitz_calls": calls["covers.hurwitz"],
    }
    for family in ("m2", "m2e", "m21", "m3"):
        metrics[f"loci.profile_s.{family}"] = self_by_name[f"loci.profile.{family}"]
    metrics.update({
        "loci.profile_calls": delta["profile"][1],
        "loci.class_hit_ratio": _ratio(*delta["class"]),
        "chow.solve_s": self_by_name["chow.solve"],
        "chow.solve_calls": calls["chow.solve"],
        "chow.pairing_s": self_by_name["chow.pairing"],
        "chow.pairing_calls": calls["chow.pairing"],
        "linalg.solve_s": self_by_name["linalg.solve"],
        "linalg.systems": calls["linalg.solve"],
        "linalg.cells": tracer.counters["linalg.cells"],
        "quasimodular.fit_s": self_by_name["quasimodular.fit"],
        "quasimodular.fits": calls["quasimodular.fit"],
        "quasimodular.refusals": tracer.counters["quasimodular.refusals"],
        "quasimodular.basis_s": self_by_name["quasimodular.basis"],
        "quasimodular.fit_ms.p50": _percentile(fit_ms, 50),
        "quasimodular.fit_ms.p90": _percentile(fit_ms, 90),
        "series.mul_s": self_by_name["series.mul"],
        "series.mul_calls": calls["series.mul"],
        "report.verify_s": self_by_name["report.verify"],
        "cli.overhead_s": cli_s - verify_in_cli,
    })
    layer_self: dict[str, float] = defaultdict(float)
    for name, t in self_by_name.items():
        layer_self[name.split(".")[0]] += t
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = layer_self[layer] / total if total > 0 else 0.0
    return metrics


def _has_ancestor(spans: list, span: list, name: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
