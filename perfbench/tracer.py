"""Spans around calls into fforge's modules, recorded from outside.

``Tracer.install`` replaces each traced function at every binding the
package's modules hold for it (module globals, names imported into other
modules, the package namespace and the ``PlanarMap`` methods) and
``Tracer.uninstall`` puts every original back.  Spans stay in memory as
``[name, start, end, parent, op]`` lists until the benchmark writes them out.
The oracle's private windup is wrapped the same way but only counted, with
no span, so that the windups the oracle really runs are measured.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) of each traced function; "PlanarMap.x" names a method.
TRACED = (
    ("fforge.planar_map", "check_polytopal"),
    ("fforge.planar_map", "map_from_faces"),
    ("fforge.planar_map", "PlanarMap.canonical_code"),
    ("fforge.planar_map", "PlanarMap.canonical_form"),
    ("fforge.planar_map", "PlanarMap.from_rotation"),
    ("fforge.transform", "truncate"),
    ("fforge.transform", "enumerate_sites"),
    ("fforge.transform", "straighten"),
    ("fforge.structure", "find_fragments"),
    ("fforge.structure", "classify_shape"),
    ("fforge.growth", "successor_candidates"),
    ("fforge.growth", "reduce_once"),
    ("fforge.growth", "replay_trace"),
    ("fforge.growth", "recognize_nanotube"),
    ("fforge.growth", "reduce_to_dodecahedron"),
    ("fforge.engine", "enumerate_closure"),
    ("fforge.engine", "oracle_generate"),
)

# layer name -> (count suffix, function of the result giving the count)
_RESULT_COUNTS = {
    "transform.enumerate_sites": ("sites", len),
    "structure.find_fragments": ("hits", len),
}

# Counted without a span: each windup is one pentagon placement tried, and
# it closed when it returned a map.
WINDUP = ("fforge.engine", "_windup")

NAME, START, END, PARENT, OP = range(5)


def layer_name(module: str, attr: str) -> str:
    return module.split(".", 1)[1] + "." + attr.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "growth.successor_candidates":
            return self._wrap_generator(name, fn)
        suffix, measure = _RESULT_COUNTS.get(name, (None, None))
        blocked = ()  # exceptions that mark a wasted attempt
        if name == "transform.straighten":
            from fforge.transform import ThreeBeltObstructionError as blocked

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except blocked:
                self.counts[name + ".blocked"] += 1
                raise
            finally:
                self.end(idx)
            if measure is not None:
                self.counts[f"{name}.{suffix}"] += measure(out)
            return out

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per ``next()``; the generator body runs inside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                self.counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def _count_windups(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["engine.oracle.placements"] += 1
            if out is not None:
                self.counts["engine.oracle.closed"] += 1
            return out

        return wrapper

    def _rebind(self, modules: list, orig, wrapper) -> None:
        """Point every module global bound to ``orig`` at ``wrapper``."""
        for other in modules:
            for key, val in list(vars(other).items()):
                if val is orig:
                    self._restore.append((other, key, orig))
                    setattr(other, key, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "fforge" or key.startswith("fforge.")
        ]
        for modname, attr in TRACED:
            name = layer_name(modname, attr)
            mod = sys.modules[modname]
            if attr.startswith("PlanarMap."):
                cls = mod.PlanarMap
                meth = attr.split(".", 1)[1]
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            self._rebind(modules, orig, self._wrap(name, orig))
        windup = getattr(sys.modules[WINDUP[0]], WINDUP[1])
        self._rebind(modules, windup, self._count_windups(windup))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, hi)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((hi - lo) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{layer: {"calls": n, "self_s": seconds}}`` summed over all spans."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        agg = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
    return out
