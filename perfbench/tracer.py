"""Span tracing of the fpulab modules from outside the package.

``Tracer.install`` replaces every public function and method of the
package's modules at each of its binding sites (the defining module and
every module that imported the name) with a wrapper that records a span:
name, start, end and parent span.  ``Tracer.remove`` puts the original
objects back.  Spans stay in memory until ``write`` dumps them.

Names are ``<module>.<qualname>``; a hand-written constructor is named
``<module>.<Class>.build``.  Work between spans is grouped under root
spans opened with ``scope``, one per set-up or pass.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import importlib
import inspect
import json
import pkgutil
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _spectral_steps(args, kwargs):
    t0 = _arg(args, kwargs, 2, "t0")
    t1 = _arg(args, kwargs, 3, "t1")
    dt = _arg(args, kwargs, 5, "dt")
    return max(1, int(round((float(t1) - float(t0)) / dt)))


def _subset_points(args, kwargs):
    return 2 ** args[0].m * np.size(_arg(args, kwargs, 2, "x"))


# Counters derived from the arguments or the result of a traced call:
# span name -> fn(args, kwargs, result) -> {counter: increment}.
HOOKS = {
    "waves.solve_profile": lambda a, k, r: {"waves.petviashvili_iters": r.iterations},
    "modulation.decompose": lambda a, k, r: {"modulation.newton_iters": r.iterations},
    "modulation.track": lambda a, k, r: {"modulation.frames": r.times.size},
    "integrators.evolve_nonlinear": lambda a, k, r: {
        "integrators.steps": _arg(a, k, 2, "cfg").n_steps},
    "backlund.linearized_kdv_evolve": lambda a, k, r: {
        "backlund.spectral_steps": _spectral_steps(a, k)},
    "kdv.TauLadder.eval": lambda a, k, r: {"kdv.subset_points": _subset_points(a, k)},
}

# TauLadder evaluation methods share one span name.
ALIASES = {
    "kdv.TauLadder.%s" % m: "kdv.TauLadder.eval"
    for m in ("log_delta", "v", "second_derivative", "dense_matrix")
}

# Callables from outside the package whose calls are traced at one binding
# site, where that site exists: (module short name, attribute).
FOREIGN = (("waves", "CubicSpline"),)


PACKAGE = "fpulab"


def package_modules():
    """Every module of the package, imported."""
    pkg = importlib.import_module(PACKAGE)
    return [importlib.import_module("%s.%s" % (PACKAGE, info.name))
            for info in pkgutil.iter_modules(pkg.__path__)]


def _short(modname):
    return modname.rsplit(".", 1)[-1]


def _own_function(obj):
    return inspect.isfunction(obj) and (obj.__module__ or "").startswith(PACKAGE + ".")


def _methods(cls, module):
    """(attribute, raw class-dict entry, function, span suffix) to trace."""
    for attr, raw in vars(cls).items():
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if not inspect.isfunction(fn):
            continue
        if attr == "__init__":
            # dataclass-generated constructors carry no source file
            if fn.__code__.co_filename == module.__file__:
                yield attr, raw, fn, "build"
        elif not attr.startswith("_"):
            yield attr, raw, fn, attr


class Tracer:
    """Spans of the public API of `modules` (imported fpulab modules)."""

    def __init__(self, modules):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent index]
        self.counts = defaultdict(Counter)  # root index -> counters
        self.scopes = []  # (label, root span index)
        self._stack = [-1]
        self._sites = self._binding_sites(modules)

    # -- binding sites ---------------------------------------------------------

    def _binding_sites(self, modules):
        """(owner, attribute, original, replacement) for every site."""
        by_short = {_short(m.__name__): m for m in modules}
        wrappers = {}

        def wrapper_for(fn, name, wrap_as=None):
            # one wrapper per original, whichever site it is bound at
            if id(fn) not in wrappers:
                name = ALIASES.get(name, name)
                traced = self._wrap(fn, name, HOOKS.get(name))
                wrappers[id(fn)] = traced if wrap_as is None else wrap_as(traced)
            return wrappers[id(fn)]

        sites = []
        for module in modules:
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if _own_function(obj):
                    name = "%s.%s" % (_short(obj.__module__), obj.__qualname__)
                    sites.append((module, attr, obj, wrapper_for(obj, name)))
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and not issubclass(obj, enum.Enum)):
                    for mattr, raw, fn, suffix in _methods(obj, module):
                        name = "%s.%s.%s" % (_short(module.__name__), obj.__name__, suffix)
                        wrap_as = type(raw) if raw is not fn else None
                        sites.append((obj, mattr, raw, wrapper_for(fn, name, wrap_as)))
        for short, attr in FOREIGN:
            obj = getattr(by_short.get(short), attr, None)
            if obj is not None:
                sites.append((by_short[short], attr, obj,
                              wrapper_for(obj, "%s.%s" % (short, attr))))
        return sites

    def install(self):
        for owner, attr, _, replacement in self._sites:
            setattr(owner, attr, replacement)

    def remove(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def originals_in_place(self):
        """True when every binding site holds its original object again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original, _ in self._sites)

    @property
    def site_count(self):
        return len(self._sites)

    # -- recording -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, hook):
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            if len(stack) == 1:  # outside every scope: not recorded
                return fn(*args, **kwargs)
            row = [nid, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if hook is not None:
                counts[stack[1]].update(hook(args, kwargs, result))
            return result

        if inspect.isfunction(fn):
            return functools.wraps(fn)(traced)
        traced.__name__ = traced.__qualname__ = fn.__name__
        return traced

    def roots(self, label):
        return [index for lab, index in self.scopes if lab == label]

    @contextlib.contextmanager
    def scope(self, label):
        """A root span grouping one set-up or pass; scopes do not nest."""
        if len(self._stack) != 1:
            raise RuntimeError("scopes do not nest")
        index = len(self.spans)
        row = [self._name_id(label), perf_counter(), 0.0, -1]
        self.scopes.append((label, index))
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield index
        finally:
            row[2] = perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    # -- analysis ---------------------------------------------------------------

    def summarize(self, root):
        """Per-name totals over the spans of one scope.

        Scopes do not nest and nothing is recorded outside them, so a
        scope's spans are the ones between its root and the next root.
        """
        end = next((i for i in range(root + 1, len(self.spans))
                    if self.spans[i][3] == -1), len(self.spans))
        child = defaultdict(float)
        for nid, t0, t1, parent in self.spans[root + 1:end]:
            child[parent] += t1 - t0
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                     "durations": []})
        parents = defaultdict(set)  # (child name, parent name) -> parent spans
        for i in range(root + 1, end):
            nid, t0, t1, parent = self.spans[i]
            name = self.names[nid]
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child[i]
            entry["incl_s"] += t1 - t0
            entry["durations"].append(t1 - t0)
            parents[name, self.names[self.spans[parent][0]]].add(parent)
        _, t0, t1, _ = self.spans[root]
        return ScopeSummary(dict(stats), dict(parents), Counter(self.counts[root]),
                            t1 - t0)


@dataclass
class ScopeSummary:
    """Totals of one scope: calls, self and inclusive time per span name."""

    stats: dict
    parents: dict
    counts: Counter
    wall_s: float

    def calls(self, name):
        return self.stats[name]["calls"] if name in self.stats else 0

    def self_s(self, name):
        return self.stats[name]["self_s"] if name in self.stats else 0.0

    def incl_s(self, name):
        return self.stats[name]["incl_s"] if name in self.stats else 0.0

    def durations(self, name):
        return self.stats[name]["durations"] if name in self.stats else []

    def parents_named(self, child, parent):
        """Distinct `parent` spans that are the direct parent of a `child` span."""
        return len(self.parents.get((child, parent), ()))

    def layer_self_s(self):
        """Self time per module, plus time outside every span as 'untraced'."""
        out = Counter()
        for name, entry in self.stats.items():
            out[name.split(".", 1)[0]] += entry["self_s"]
        out["untraced"] = self.wall_s - sum(out.values())
        return out

