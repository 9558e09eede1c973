"""Span recording for the traced benchmark run.

The traced run replaces the public functions of each layer on the solve path
with wrappers that record one span per call: name, start, end, parent span
and the id of the instance being decided. Modules bind these functions with
`from .x import f`, so every consuming module's binding is replaced, not only
the defining one. Generators get one span per `next()`, because a plain call
only builds the generator and would read about 0 s.

Spans live in flat arrays while the run lasts and are written out once, by
`Recorder.write`, when it ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array
from collections import Counter

# (span name, defining module, function, other modules that bind it, kind,
# counts beyond calls). "gen" wraps a generator per next(); "triple" splits
# `is_triple` calls made from the solver into the final search
# (want_witness=True) and verification (every other call).
LAYERS = (
    ("solver.solve_pipeline", "solver", "solve_pipeline", (), "call", ()),
    ("solver.solve_oracle", "solver", "solve_oracle", (), "call", ()),
    ("solver.reduce_instance", "solver", "reduce_instance", (), "call", ()),
    ("solver.find_area", "solver", "find_area", (), "call",
     ("obligatory", "no_instance", "wall_area", "bounded_tw")),
    ("solver.find_vertex", "solver", "find_vertex", (), "call", ("raised",)),
    ("solver.has_k5_star_minor", "solver", "has_k5_star_minor", (), "call",
     ("found",)),
    ("modification.find_vr_planarizer", "modification", "find_vr_planarizer",
     ("solver",), "call", ()),
    ("modification.is_planarization_irrelevant", "modification",
     "is_planarization_irrelevant", ("solver",), "call", ()),
    ("modification.apply", "modification", "apply", ("solver", "signatures"),
     "call", ()),
    ("modification.subsets_up_to", "modification", "subsets_up_to",
     ("solver", "signatures"), "gen", ()),
    ("signatures.is_triple", "signatures", "is_triple", ("solver",), "triple", ()),
    ("signatures.compute_char", "signatures", "compute_char", ("solver",),
     "call", ()),
    ("logic.eval_gaifman", "logic", "eval_gaifman", ("solver", "signatures"),
     "call", ()),
    ("logic.check_local", "logic", "check_local", ("signatures",), "call", ()),
    ("graphs.neighborhood", "graphs", "neighborhood", ("logic",), "call", ()),
    ("walls.wall_candidates", "walls", "wall_candidates", ("solver",), "gen", ()),
    ("walls.extended_compass", "walls", "extended_compass",
     ("solver", "signatures"), "call", ()),
    ("treewidth.width_witness", "treewidth", "width_witness",
     ("solver", "walls"), "call", ("none",)),
    # hits and misses come from the memo's own statistics, per instance
    ("planarity.is_planar", "planarity", "is_planar",
     ("modification", "signatures", "solver", "walls"), "call", ("hits", "misses")),
    ("planarity.planar_with_additions", "planarity", "planar_with_additions",
     ("signatures",), "call", ()),
)

# Outcome counts taken from a call's return value, keyed by span name.
_FIND_AREA_OUTCOMES = {"ObligatoryVertex": "obligatory", "NoInstance": "no_instance",
                       "WallArea": "wall_area", "BoundedTreewidth": "bounded_tw"}
RESULT_COUNTS = {
    "solver.has_k5_star_minor": lambda found: "found" if found else None,
    "treewidth.width_witness": lambda td: "none" if td is None else None,
    "solver.find_area": lambda outcome: _FIND_AREA_OUTCOMES.get(type(outcome).__name__),
}


def _module(short: str):
    return importlib.import_module(f"planmod.{short}")


def bindings() -> list:
    """(span name, kind, module, attribute, defining function) for every
    binding the traced run replaces.

    Raises when a defining module no longer has the function, so a rename
    fails loudly instead of reporting zeros."""
    out = []
    for name, home, fn, consumers, kind, _ in LAYERS:
        original = getattr(_module(home), fn)
        out.extend((name, kind, _module(short), fn, original)
                   for short in (home,) + consumers)
    return out


class Recorder:
    """Spans in flat arrays plus per-name counts."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.current_instance = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(self.current_instance)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ------------------------------------------------------------

    def wrap_call(self, name: str, fn):
        nid = self.name_id(name)
        on_result = RESULT_COUNTS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid)
                counts[f"{name}.raised"] += 1
                raise
            self.close(sid)
            if on_result is not None:
                key = on_result(result)
                if key is not None:
                    counts[f"{name}.{key}"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, name: str, fn):
        nid = self.name_id(name)
        counts = self.counts

        def steps(gen):
            try:
                while True:
                    sid = self.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.close(sid)
                        return
                    except BaseException:
                        self.close(sid)
                        raise
                    self.close(sid)
                    counts[f"{name}.yielded"] += 1
                    yield item
            finally:
                gen.close()

        def traced(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def wrap_triple(self, name: str, fn):
        final = self.wrap_call(f"{name}.final", fn)
        verify = self.wrap_call(f"{name}.verify", fn)

        def traced(*args, **kwargs):
            return (final if kwargs.get("want_witness") else verify)(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace every binding in LAYERS for the duration of the block."""
        make = {"call": self.wrap_call, "gen": self.wrap_gen, "triple": self.wrap_triple}
        wrappers: dict = {}
        saved = []
        try:
            for name, kind, mod, fn, original in bindings():
                if name not in wrappers:
                    wrappers[name] = make[kind](name, original)
                if getattr(mod, fn, None) is original:
                    saved.append((mod, fn, original))
                    setattr(mod, fn, wrappers[name])
            yield self
        finally:
            for mod, fn, original in saved:
                setattr(mod, fn, original)

    # -- summaries ------------------------------------------------------------

    def durations(self) -> tuple:
        """(inclusive, self) time per span."""
        incl = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(incl)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += incl[sid]
        return incl, [i - c for i, c in zip(incl, child)]

    def totals(self) -> dict:
        """Per span name: spans, inclusive seconds, self seconds."""
        incl, own = self.durations()
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for sid, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += incl[sid]
            row[2] += own[sid]
        return out

    def metrics(self) -> dict:
        """`<span>.<what>` -> (value, unit) for every layer in LAYERS, zero
        for layers the run never reached. A generator's calls count the
        generators built and its times add up its next() steps."""
        totals = self.totals()
        out = {}
        for name, _, _, _, kind, extras in LAYERS:
            for span in ((f"{name}.final", f"{name}.verify") if kind == "triple"
                         else (name,)):
                spans, incl, own = totals.get(span, (0, 0.0, 0.0))
                if kind == "gen":
                    out[f"{span}.calls"] = (self.counts[f"{span}.calls"], "count")
                    out[f"{span}.yielded"] = (self.counts[f"{span}.yielded"], "count")
                else:
                    out[f"{span}.calls"] = (spans, "count")
                for what in extras:
                    out[f"{span}.{what}"] = (self.counts[f"{span}.{what}"], "count")
                out[f"{span}.time_s"] = (incl, "s")
                out[f"{span}.self_s"] = (own, "s")
        return out

    def write(self, path):
        """All spans as JSON columns; times are seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        obj = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "instance": self.instance.tolist(),
            "start": [round(s - t0, 9) for s in self.start],
            "end": [round(e - t0, 9) for e in self.end],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(obj, fh, separators=(",", ":"))
