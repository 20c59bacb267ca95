"""Run-time tracing of the cubicnorm layers, installed from outside.

``Tracer.install()`` replaces, for every layer module of ``cubicnorm``,

* each public module-level function, both where it is defined and in every
  ``cubicnorm`` module that bound it with ``from .x import name``, and
* each public method of each public class defined there (method lookups go
  through the class, so this covers every call),

with a wrapper that records a span: name, start, end, parent span and item
id, in CPU nanoseconds (``time.process_time_ns``).  The witness-search
streams are generator functions; they get a wrapper that counts candidates
drawn instead of a span.  ``uninstall()`` restores the originals.

Spans stay in memory until the run ends; ``analyse()`` and ``metrics()``
turn them into the per-layer metrics and ``write_spans()`` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from types import FunctionType

LAYERS = ["scalars", "composition", "cns", "freudenthal", "lifting", "rings_ideals",
          "matops", "presets", "serialize", "cli"]

# per-layer metric groups: metric prefix -> spans (layer:qualname) it sums
GROUPS = {
    "scalars.conj": ["scalars:CommAlgebra.conj"],
    "scalars.trace": ["scalars:CommAlgebra.trace"],
    "scalars.mul_coords": ["scalars:CommAlgebra.mul_coords"],
    "scalars.adjoint": ["scalars:CommAlgebra.adjoint", "scalars:CommAlgebra.char_s1_s2"],
    "scalars.norm": ["scalars:CommAlgebra.norm"],
    "scalars.inv": ["scalars:CommAlgebra.inv"],
    "scalars.linalg": ["scalars:linsolve", "scalars:kernel", "scalars:det",
                       "scalars:det_fraction"],
    "composition.mul_coords": ["composition:CompAlgebra.mul_coords"],
    "freudenthal.flat": ["freudenthal:WSpace.flat"],
    "freudenthal.t_vvx": ["freudenthal:WSpace.t_vvx"],
    "freudenthal.quartic": ["freudenthal:WSpace.quartic"],
    "freudenthal.gl2_act": ["freudenthal:gl2_act"],
    "freudenthal.det6": ["freudenthal:det6"],
    "matops.mat_mul": ["matops:mat_mul"],
    "presets.cns_preset": ["presets:cns_preset"],
}
# methods summed over every CNS subclass defined in cns.py
CNS_METHODS = ["norm", "adjoint", "pair", "cross"]
# the witness-search streams and the layers whose searches are reported
SEARCH_STREAMS = ["freudenthal:iter_search_rows", "lifting:iter_elements",
                  "lifting:iter_comp_rows", "rings_ideals:iter_ell_candidates"]
SEARCH_LAYERS = ["lifting", "rings_ideals"]
# unions reported in the per-kind shares, to compare with profiles
COMBINED = {
    "scalars.conj+trace": ["scalars.conj", "scalars.trace"],
    "freudenthal.flat+t_vvx": ["freudenthal.flat", "freudenthal.t_vvx"],
    "freudenthal.gl2_act+det6": ["freudenthal.gl2_act", "freudenthal.det6"],
}


class TraceError(RuntimeError):
    """A function the per-layer metrics name no longer exists."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.item_id = -1
        self.stream_depth = 0
        self.tried = {layer: 0 for layer in SEARCH_LAYERS}
        self.hits = {layer: 0 for layer in SEARCH_LAYERS}
        self.cns_names: dict[str, list[str]] = {m: [] for m in CNS_METHODS}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_item.append(self.item_id)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.process_time_ns())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.process_time_ns()
        self.stack.pop()

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- search streams -------------------------------------------------------

    def _search_owner(self):
        """The layer of the innermost open span that reports searches."""
        for idx in reversed(self.stack):
            layer = self.names[self.span_name[idx]].split(":", 1)[0]
            if layer in self.tried:
                return layer
        return None

    def _stream_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            # a stream drawn from inside another stream is part of that search
            owner = None if tracer.stream_depth else tracer._search_owner()
            return tracer._draw(fn(*args, **kwargs), owner)

        return counted

    def _draw(self, gen, owner):
        """Yield from gen, counting draws; a search that stops drawing before
        its stream runs out found its witness."""
        try:
            while True:
                self.stream_depth += 1
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.stream_depth -= 1
                if owner:
                    self.tried[owner] += 1
                yield item
        except GeneratorExit:
            if owner:
                self.hits[owner] += 1
            gen.close()
            raise

    # -- installation ---------------------------------------------------------

    def _set(self, target, attr, value):
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every layer; raise TraceError if a named function is gone."""
        modules = {layer: importlib.import_module(f"cubicnorm.{layer}") for layer in LAYERS}
        wanted = {name for names in GROUPS.values() for name in names}
        wanted.update(SEARCH_STREAMS)
        found: set[str] = set()
        rebind: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    name = f"{layer}:{attr}"
                    if inspect.isgeneratorfunction(obj):
                        if name not in SEARCH_STREAMS:
                            continue
                        wrapped = self._stream_wrapper(obj)
                    else:
                        wrapped = self._span_wrapper(obj, name)
                    found.add(name)
                    rebind[id(obj)] = (obj, wrapped)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not isinstance(fn, FunctionType) \
                                or inspect.isgeneratorfunction(fn):
                            continue
                        name = f"{layer}:{obj.__qualname__}.{meth}"
                        found.add(name)
                        if layer == "cns" and meth in CNS_METHODS and issubclass(obj, mod.CNS):
                            self.cns_names[meth].append(name)
                        self._set(obj, meth, self._span_wrapper(fn, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cubicnorm" or mod_name.startswith("cubicnorm.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in rebind and rebind[id(obj)][0] is obj:
                    self._set(mod, attr, rebind[id(obj)][1])
        missing = sorted(wanted - found) + [f"cns:CNS subclass .{m}" for m in CNS_METHODS
                                             if not self.cns_names[m]]
        if missing:
            self.uninstall()
            raise TraceError("traced functions no longer exist: " + ", ".join(missing))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def _keys(self) -> dict[str, list[str]]:
        """Span names summed by each key: the metric groups, the combined
        groups and every layer."""
        keys = dict(GROUPS)
        for meth, names in self.cns_names.items():
            keys[f"cns.{meth}"] = names
        for combined, parts in COMBINED.items():
            keys[combined] = [n for part in parts for n in keys[part]]
        for layer in LAYERS:
            keys[layer] = [n for n in self.names if n.startswith(layer + ":")]
        return keys

    def analyse(self, item_kinds: dict[int, str]) -> dict:
        """Calls, self time and inclusive time (ns) per key, in total and per
        item kind, with each kind's traced item time under "total".

        Self time is a span's duration minus the part its child spans cover;
        inclusive time counts a span only when no ancestor has the same key."""
        keys = self._keys()
        key_names = list(keys)
        of_name = [[] for _ in self.names]
        for k, key in enumerate(key_names):
            for name in keys[key]:
                if name in self.name_ids:
                    of_name[self.name_ids[name]].append(k)
        bits = [sum(1 << k for k in ks) for ks in of_name]
        start, end, parent, name_of = (self.span_start, self.span_end, self.span_parent,
                                       self.span_name)
        n = len(start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        above = array("Q", bytes(8 * n))   # keys of the span's ancestors, as bits
        zero = {"calls": 0, "self": 0, "incl": 0}
        result = {"all": {"total": 0}}
        for i in range(n):
            p = parent[i]
            if p >= 0:
                above[i] = above[p] | bits[name_of[p]]
            dur = end[i] - start[i]
            kind = item_kinds.get(self.span_item[i])
            targets = [result["all"]]
            if kind is not None:
                targets.append(result.setdefault(kind, {"total": 0}))
            if p < 0:
                for acc in targets:
                    acc["total"] += dur
            for k in of_name[name_of[i]]:
                key = key_names[k]
                for acc in targets:
                    entry = acc.setdefault(key, dict(zero))
                    entry["calls"] += 1
                    entry["self"] += dur - child[i]
                    if not above[i] >> k & 1:
                        entry["incl"] += dur
        return result

    def metrics(self, analysis: dict) -> dict:
        """Every per-layer metric, 0 where a layer or function went unused."""
        totals = analysis["all"]
        out: dict[str, float] = {}
        for key in list(GROUPS) + [f"cns.{m}" for m in CNS_METHODS]:
            entry = totals.get(key, {"calls": 0, "self": 0, "incl": 0})
            out[f"{key}.calls"] = entry["calls"]
            out[f"{key}.self_s"] = entry["self"] / 1e9
            out[f"{key}.incl_s"] = entry["incl"] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = totals.get(layer, {"self": 0})["self"] / 1e9
        out["serialize.calls"] = totals.get("serialize", {"calls": 0})["calls"]
        for layer in SEARCH_LAYERS:
            tried = self.tried[layer]
            out[f"{layer}.search.tried"] = tried
            out[f"{layer}.search.hit_ratio"] = self.hits[layer] / tried if tried else 0.0
        return out

    @staticmethod
    def shares(analysis: dict) -> dict:
        """Self and inclusive time of every key as a share of the traced item
        time, per item kind."""
        out = {}
        for kind, acc in analysis.items():
            total = acc["total"]
            if kind == "all" or not total:
                continue
            entries = {k: v for k, v in acc.items() if k != "total"}
            out[kind] = {
                measure: {k: round(v[measure] / total, 4)
                          for k, v in sorted(entries.items(), key=lambda kv: -kv[1][measure])}
                for measure in ("self", "incl")}
        return out

    def write_spans(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\titem\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\n")
