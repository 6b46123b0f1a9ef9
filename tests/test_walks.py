"""The structural walks of ``syntax``: what they visit, and what they refuse.

``walk_digests.json`` holds, for every module of a fixed generator corpus,
one digest of what the walks see in it:

- the ``walk_exprs`` preorder (class name and span) of every global
  initializer and function body;
- ``pattern_vars`` of every case pattern and ``Matching`` pattern;
- ``analyze_module``'s errors, its ``assign_types`` keyed by preorder
  index, and the size of its ``walked_roots``, for the module as drawn and
  for the module with its datatypes and globals dropped (so the walk's
  error order is pinned too).

The digests were recorded with the hand-written ``expr_children`` and
``pattern_vars`` that preceded the table-driven ones; the walks must
reproduce them exactly.  To record the file afresh from a checkout, run
``PYTHONPATH=src python tests/test_walks.py``.

The rejection tests put a non-expression into each field that the field
table marks as holding expressions, a non-pattern into each field
marked as holding patterns, and a part of the wrong class where a case, a
generator or a local declaration belongs: every walk boundary refuses
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from rascal_light import fieldtable
from rascal_light import syntax as sx
from rascal_light.fieldtable import fields, replace
from rascal_light.harness import GenBudget, gen_program
from rascal_light.interp import Evaluator
from rascal_light.parser import parse_expr
from rascal_light.values import Store

DIGESTS = os.path.join(os.path.dirname(__file__), "walk_digests.json")
SEEDS = range(200)
SUBSETS = ("all", "finite")
MAX_DEPTH = 5


def _corpus():
    for subset in SUBSETS:
        for seed in SEEDS:
            yield subset, seed, gen_program(GenBudget(max_depth=MAX_DEPTH, seed=seed), subset)


def _roots(module: sx.ModuleDef):
    return [g.init for g in module.globals] + [f.body for f in module.functions]


def _add_analysis(h, module: sx.ModuleDef) -> None:
    info = sx.analyze_module(module)
    for err in info.errors:
        h.update(f"! {err.kind}|{err.name}|{err.span.start}:{err.span.end}|{err.message}\n".encode())
    order = {id(e): i for i, e in enumerate(e for root in _roots(module) for e in sx.walk_exprs(root))}
    assigns = sorted((order[k], repr(t)) for k, t in info.assign_types.items())
    h.update(f"= {assigns!r} {len(info.walked_roots)}\n".encode())


def module_digest(module: sx.ModuleDef) -> str:
    """Digest of the preorders, pattern variables and analyses of ``module``."""
    h = hashlib.sha256()
    for root in _roots(module):
        for e in sx.walk_exprs(root):
            h.update(f"{type(e).__name__}@{e.span.start}:{e.span.end} ".encode())
            if isinstance(e, (sx.Switch, sx.Visit)):
                pats = [c.pattern for c in e.cases]
            elif isinstance(e, sx.For) and isinstance(e.generator, sx.Matching):
                pats = [e.generator.pattern]
            else:
                pats = []
            for p in pats:
                h.update(f"{sx.pattern_vars(p)!r} ".encode())
        h.update(b"\n")
    _add_analysis(h, module)
    _add_analysis(h, replace(module, datatypes=(), globals=()))
    return h.hexdigest()


def _label(subset: str, seed: int) -> str:
    return f"{subset}:{seed}"


def _node_classes(x, out: set) -> set:
    """The field-table classes of every node reachable from ``x``, found
    through the table's fields and not through the walks under test."""
    if type(x) in fieldtable.TABLE:
        out.add(type(x))
        for name in fields(type(x)):
            _node_classes(getattr(x, name), out)
    elif isinstance(x, tuple):
        for item in x:
            _node_classes(item, out)
    return out


def _concrete(base: type) -> set:
    return {c for c in fieldtable.TABLE if issubclass(c, base) and c is not base}


def test_walk_digests_match_the_recorded_walks():
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert (recorded["max_depth"], recorded["subsets"]) == (MAX_DEPTH, list(SUBSETS))
    expected = recorded["digests"]
    differ = [
        _label(subset, seed)
        for subset, seed, module in _corpus()
        if module_digest(module) != expected[_label(subset, seed)]
    ]
    assert not differ, f"walks changed on {len(differ)} modules, first {differ[:5]}"


def test_the_corpus_holds_every_expression_and_pattern_form():
    seen: set = set()
    for _, _, module in _corpus():
        _node_classes(module, seen)
    assert _concrete(sx.Expr) | _concrete(sx.Pattern) <= seen


# ---------------------------------------------------------------------------
# Rejection: each marked field refuses a node of the wrong kind

# A sample of every class that has marked fields, each of its marked fields
# filled; a part (a case, a generator) sits in the expression that holds it.
SAMPLES = {
    sx.Unary: "-1",
    sx.Binary: "1 + 2",
    # The parser reads ``c(1, 2)`` as a call.
    sx.Cons: sx.Cons("c", (sx.Lit(1), sx.Lit(2))),
    sx.ListExpr: "[1, 2]",
    sx.SetExpr: "{1, 2}",
    sx.MapExpr: "(1: 2, 3: 4)",
    sx.Lookup: "m[1]",
    sx.Update: "m[1 = 2]",
    sx.Call: "f(1, 2)",
    sx.ReturnExpr: "return 1",
    sx.Assign: "x = 1",
    sx.If: "if 1 then 2 else 3",
    sx.Case: "switch (1) { case 1 => 2 }",
    sx.Switch: "switch (1) { case 1 => 2 }",
    sx.Visit: "bottom-up visit (1) { case 1 => 2 }",
    sx.Block: "local int y in 1; 2 end",
    sx.Enumerating: "for (x <- [1]) 2",
    sx.Matching: "for (1 := [1]) 2",
    sx.For: "for (x <- [1]) 2",
    sx.While: "while (1) 2",
    sx.Solve: "solve (x) 1",
    sx.ThrowExpr: "throw 1",
    sx.TryCatch: "try 1 catch e => 2",
    sx.TryFinally: "try 1 finally 2",
    sx.ConsPat: "switch (1) { case c(1, 2) => 3 }",
    sx.TypedPat: "switch (1) { case int n : 1 => 3 }",
    sx.ListPat: "switch (1) { case [1, 2] => 3 }",
    sx.SetPat: "switch (1) { case {1, 2} => 3 }",
    sx.NegPat: "switch (1) { case !1 => 3 }",
    sx.DeepPat: "switch (1) { case /1 => 3 }",
}


def _planted(host, cls: type, kind: str, bad):
    """``(field, copy of host)`` for each field of ``host``'s first node of
    class ``cls`` that the table marks as holding ``kind`` (a mark's
    letter): the copy has ``bad`` in that field, or in the field's first
    item where it holds a tuple."""
    path = _path_to(host, cls)
    node = _at(host, path)
    for name, mark in fieldtable.MARKS[cls]:
        if mark.rstrip("*") == kind:
            planted = replace(node, **{name: _put(getattr(node, name), bad, mark.count("*"))})
            yield name, _rebuild(host, path, planted)


def _put(value, bad, depth: int):
    """``value`` with its first leaf ``depth`` tuples down replaced by ``bad``."""
    if depth == 0:
        return bad
    return (_put(value[0], bad, depth - 1),) + value[1:]


def _path_to(x, cls, path=()):
    """The path of field names and tuple indices to the first node of ``cls``
    in ``x``, in the order of the table's fields."""
    if type(x) is cls:
        return path
    if type(x) in fieldtable.TABLE:
        steps = ((name, getattr(x, name)) for name in fields(type(x)))
    elif isinstance(x, tuple):
        steps = enumerate(x)
    else:
        return None
    for step, sub in steps:
        found = _path_to(sub, cls, path + (step,))
        if found is not None:
            return found
    return None


def _at(x, path):
    for step in path:
        x = x[step] if isinstance(step, int) else getattr(x, step)
    return x


def _rebuild(x, path, new):
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        return x[:step] + (_rebuild(x[step], rest, new),) + x[step + 1 :]
    return replace(x, **{step: _rebuild(getattr(x, step), rest, new)})


def _sample(cls: type):
    sample = SAMPLES[cls]
    return parse_expr(sample) if isinstance(sample, str) else sample


def _marked(letter: str):
    return [
        pytest.param(cls, name, id=f"{cls.__name__}.{name}")
        for cls, marks in fieldtable.MARKS.items()
        for name, mark in marks
        if mark[0] == letter
    ]


def test_every_marked_class_has_a_sample_that_is_accepted():
    assert set(SAMPLES) == {cls for cls, marks in fieldtable.MARKS.items() if marks}
    info = sx.analyze_module(sx.ModuleDef())
    for cls in SAMPLES:
        sample = _sample(cls)
        assert _path_to(sample, cls) is not None, cls
        # Only what a test plants is refused.
        sx.validate_expr(sample, info)
        Evaluator(sx.ModuleDef()).evaluate(sample, Store(), 100)


def _refused(host, message: str) -> None:
    info = sx.analyze_module(sx.ModuleDef())
    with pytest.raises(TypeError, match=message):
        sx.validate_expr(host, info)
    with pytest.raises(TypeError, match=message):
        Evaluator(sx.ModuleDef()).evaluate(host, Store(), None)


@pytest.mark.parametrize("cls, field", _marked("E"))
def test_a_non_expression_in_an_expression_field_is_refused(cls, field):
    planted = dict(_planted(_sample(cls), cls, "E", sx.VarPat("x")))
    _refused(planted[field], "not an expression")


@pytest.mark.parametrize("cls, field", _marked("P"))
def test_a_non_pattern_in_a_pattern_field_is_refused(cls, field):
    planted = dict(_planted(_sample(cls), cls, "P", sx.Lit(1)))
    _refused(planted[field], "not a pattern")


# A part of the wrong class in each field that holds parts: the cases of a
# switch or visit, a loop's generator, a block's local declarations.
WRONG_PARTS = {
    "Switch.cases": (sx.Switch, "cases", (sx.VarPat("x"),), "not a case"),
    "Visit.cases": (sx.Visit, "cases", (sx.VarPat("x"),), "not a case"),
    "For.generator": (sx.For, "generator", sx.Lit(1), "not a generator"),
    "Block.locals": (sx.Block, "locals", (sx.Lit(3),), "not a local declaration"),
}


@pytest.mark.parametrize("label", WRONG_PARTS)
def test_a_part_of_the_wrong_class_is_refused(label):
    cls, field, bad, message = WRONG_PARTS[label]
    _refused(replace(_sample(cls), **{field: bad}), message)


if __name__ == "__main__":
    sys.setrecursionlimit(12_000)
    digests = {_label(subset, seed): module_digest(module) for subset, seed, module in _corpus()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"max_depth": MAX_DEPTH, "subsets": SUBSETS, "digests": digests}, fh, indent=1)
        fh.write("\n")
