"""Layer tracing from outside the program.

``Tracer.install`` replaces, in every ``bvq`` module's namespace, each
public function that module imports from another ``bvq`` module (for
example ``bvq.search.canonical_key`` and ``bvq.calculus.canonicalize``),
plus a few named functions reached by calls inside their own module
(``bvq.search._search``, ``bvq.calculus.apply_instance``, ...), with a
wrapper that records a span.  A span has a name, a start, an end and a
parent; a layer's self time is its spans' durations minus the time their
child spans cover.  Coarse spans are kept one by one; calls to every
other layer are aggregated per parent span as a count and a total, since
canonicalization alone is entered around a million times per run.
Nothing inside ``src/`` changes; ``uninstall`` restores every name.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("structures", "calculus", "standardize", "ccsr", "bridge",
           "search", "cli")

# (module, function) reached by calls inside their own module that get a
# span of their own
INTERNAL = {
    "structures": ("canonicalize", "canonical_key"),
    "calculus": ("enumerate_instances", "apply_instance", "check_derivation",
                 "check_derivation_detail"),
    "standardize": ("standardize", "commute_once"),
    "search": ("_search", "_compose_proof", "extract_lts", "reach", "prove",
               "derive"),
    "cli": ("main",),
}

LAYER_OF = {
    ("structures", "canonicalize"): "structures.canon",
    ("structures", "canonical_key"): "structures.canon",
    ("calculus", "enumerate_instances"): "calculus.enumerate_instances",
    ("calculus", "apply_instance"): "calculus.apply_instance",
    ("calculus", "check_derivation"): "calculus.check_derivation",
    ("calculus", "check_derivation_detail"): "calculus.check_derivation",
    ("search", "_search"): "search.bfs",
    ("search", "_compose_proof"): "search.compose",
    ("search", "extract_lts"): "search.extract",
    ("standardize", "commute_once"): "standardize.commute_once",
}

# functions recorded one span per call; calls to all others are
# aggregated per parent span
COARSE = frozenset({
    ("cli", "main"), ("search", "reach"), ("search", "prove"),
    ("search", "derive"), ("search", "_search"), ("search", "_compose_proof"),
    ("search", "extract_lts"), ("standardize", "standardize"),
    ("standardize", "commute_once"),
})


class Tracer:
    """Spans kept in memory; ``self_s`` and ``calls`` per layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [id, name, start, end, parent]
        self.aggregated: dict[tuple[int, str], list] = defaultdict(
            lambda: [0, 0.0])                # (parent, layer) -> [calls, s]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []         # [id, start, child s, layer, parent]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def enter(self, layer: str, coarse: bool = True) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        sid = -1
        if coarse:
            sid = len(self.spans)
            self.spans.append([sid, layer, 0.0, 0.0, parent])
        frame = [sid, time.perf_counter(), 0.0, layer, parent]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        sid, start, child, layer, parent = frame
        self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if sid >= 0:
            self.spans[sid][2:4] = [start, end]
        else:
            agg = self.aggregated[(parent, layer)]
            agg[0] += 1
            agg[1] += dur

    def wrap(self, layer: str, fn, coarse: bool = False):
        tracer = self
        if layer == "structures.canon":
            def wrapper(*args, **kwargs):
                if args and getattr(args[0], "_cc", None) is not None:
                    tracer.counters["canon_cache_hits"] += 1
                frame = tracer.enter(layer, coarse)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave(frame)
        elif layer == "calculus.enumerate_instances":
            def wrapper(*args, **kwargs):
                frame = tracer.enter(layer, coarse)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.leave(frame)
                tracer.counters["instances"] += len(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                frame = tracer.enter(layer, coarse)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave(frame)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"bvq.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                    continue
                home = obj.__module__.removeprefix("bvq.")
                if home not in mods:
                    continue
                imported = home != short and not attr.startswith("_")
                internal = home == short and attr in INTERNAL.get(short, ())
                if not (imported or internal):
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    name = obj.__name__
                    w = wrappers[id(obj)] = self.wrap(
                        LAYER_OF.get((home, name), home), obj,
                        (home, name) in COARSE)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- output ----------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                      for s in self.spans],
            "aggregated": [{"parent": p, "name": n, "calls": c, "total_s": t}
                           for (p, n), (c, t) in self.aggregated.items()],
        }
