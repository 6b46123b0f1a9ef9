"""In-memory spans around calls into each layer of the interpreter.

Spans are recorded only by wrappers installed here: at every module
boundary listed in ``BOUNDARIES`` (a function of one module called from
another, or from the benchmark's own code), and on the public methods of
``Evaluator`` and the value classes that canonicalise on construction.
Calls inside one module are not wrapped, so a span marks the point where
work crosses into a layer.  A span has a name ``<module>.<function>``, a
start and end (``perf_counter_ns``), a parent span and a task id; self time
is the span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from time import perf_counter_ns

PACKAGE = "rascal_light"

LAYERS = (
    "parser",
    "syntax",
    "render",
    "values",
    "types",
    "patterns",
    "interp",
    "traversal",
    "fuel",
    "cli",
    "harness",
)

# Public functions whose calls cross a layer boundary.  Small helpers that
# run once per rule firing (fuel_check, is_exres, vbool, ...) are left out:
# their cost stays with the caller.
BOUNDARIES = {
    "types": ("type_of", "subtype"),
    "values": ("map_update", "render_value", "value_to_tree", "result_to_tree"),
    "patterns": ("match",),
    "traversal": ("eval_visit",),
    "syntax": ("analyze_module", "validate_module", "validate_expr", "snippet_assignables", "is_finite_subset"),
    "parser": ("load_module", "parse_module", "parse_expr"),
    "render": ("render", "render_module"),
    "fuel": ("call_with_stack", "eval_expr_fuel", "min_sufficient_fuel"),
    "harness": ("run_suite", "gen_program", "gen_match_pair", "oracle_match"),
    "cli": ("main",),
}

# Called through the module object (``traversal.eval_visit(...)``), and not
# recursively from inside their own module, so the module attribute itself
# is wrapped.
HOME_PATCHED = {("traversal", "eval_visit")}

METHODS = {
    ("interp", "Evaluator"): ("__init__", "init_globals", "call_function", "evaluate", "run_cases"),
    ("values", "VSet"): ("__post_init__",),
    ("values", "VMap"): ("__post_init__",),
    ("values", "Store"): ("updated", "extended", "without"),
}


def layer_module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


class SpanRecorder:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task = array("i")
        self.stack: list[int] = []
        self.task_id = -1

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.task_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def self_by_name(self) -> dict[str, int]:
        totals = [0] * len(self.names)
        for nid, ns in zip(self.name, self.self_ns()):
            totals[nid] += ns
        return {self.names[i]: t for i, t in enumerate(totals)}

    def count_by_name(self) -> dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.name:
            counts[nid] += 1
        return {self.names[i]: c for i, c in enumerate(counts)}

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds per layer (the span name's first component), for
        the layers that have spans."""
        counts = self.count_by_name()
        out: dict[str, float] = {}
        for name, ns in self.self_by_name().items():
            if not counts[name]:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + ns / 1e9
        return out

    def write_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\ttask\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.task[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


def _traced_generator(gen, rec: SpanRecorder, nid: int):
    # A lazy result does its work when resumed, so each resumption is a span.
    while True:
        i = rec.begin(nid)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            rec.finish(i)
        yield item


def wrap(fn, rec: SpanRecorder, name: str):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if isinstance(out, types.GeneratorType):
            return _traced_generator(out, rec, nid)
        return out

    return traced


class Instrumentation:
    """A context that installs span wrappers at every layer boundary and
    removes them on exit.

    ``lib`` is the benchmark's own table of entry points (see
    ``workloads.Lib``); its entries are wrapped too, so calls made by the
    benchmark are spans of the layer they enter.
    """

    def __init__(self, rec: SpanRecorder, lib):
        self.rec = rec
        self.lib = lib
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = {name: layer_module(name) for name in LAYERS}
        for home, names in BOUNDARIES.items():
            for fname in names:
                orig = getattr(modules[home], fname)
                traced = wrap(orig, self.rec, f"{home}.{fname}")
                for mname, mod in modules.items():
                    if mname != home and vars(mod).get(fname) is orig:
                        self._set(mod, fname, traced)
                if (home, fname) in HOME_PATCHED:
                    self._set(modules[home], fname, traced)
                for attr, value in list(vars(self.lib).items()):
                    if value is orig:
                        self._set(self.lib, attr, traced)
        for (home, cls_name), methods in METHODS.items():
            cls = getattr(modules[home], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                self._set(cls, meth, wrap(orig, self.rec, f"{home}.{label}"))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
