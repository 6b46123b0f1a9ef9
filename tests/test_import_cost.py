"""The syntax, type, token, trace, result and harness record classes are
built from field tables, not by ``dataclasses``, and the table-driven
``replace`` that the shrinker uses rebuilds them field for field."""

import inspect
import json
import os
import subprocess
import sys

from rascal_light import fieldtable, syntax as sx
from rascal_light.fieldtable import fields, replace
from rascal_light.harness import GenBudget, gen_program
from rascal_light.parser import parse_module
from rascal_light.render import render
from rascal_light.values import Basic, Store

from test_parser import _with_spans

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# Records the module and name of every class that ``dataclasses.dataclass``
# decorates while the package is imported.
RECORD = """
import dataclasses, json
real, seen = dataclasses.dataclass, []

def dataclass(cls=None, /, **kwargs):
    def wrap(c):
        seen.append((c.__module__, c.__qualname__))
        return real(**kwargs)(c)
    return wrap if cls is None else wrap(cls)

dataclasses.dataclass = dataclass
import rascal_light.cli, rascal_light.harness, rascal_light.render
print(json.dumps(seen))
"""

TABLE_MODULES = {
    f"rascal_light.{name}" for name in ("syntax", "types", "parser", "interp", "values", "harness")
}


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_no_table_class_is_a_dataclass():
    seen = [tuple(record) for record in json.loads(_run(RECORD))]
    assert seen == []
    built = {cls.__module__ for cls in fieldtable.TABLE}
    assert built == TABLE_MODULES


def test_the_package_does_not_import_dataclasses():
    code = "import sys, rascal_light.cli, rascal_light.harness; print('dataclasses' in sys.modules)"
    assert _run(code).strip() == "False"


def test_each_argument_is_a_parameter_and_replace_swaps_only_it():
    for cls, (names, _) in fieldtable.TABLE.items():
        assert tuple(inspect.signature(cls).parameters) == names, cls
        args = [Store().updated("x", Basic(i)) for i in range(len(names))]
        node = cls(*args)
        assert replace(node) == node and type(replace(node)) is cls
        for i, name in enumerate(names):
            new = Store().updated("y", Basic(i))
            swapped = replace(node, **{name: new})
            assert [getattr(swapped, n) for n in names] == args[:i] + [new] + args[i + 1 :], (cls, name)


def _nodes(x):
    if type(x) in fieldtable.TABLE:
        yield x
        for name in fields(type(x)):
            yield from _nodes(getattr(x, name))
    elif isinstance(x, tuple):
        for item in x:
            yield from _nodes(item)


def test_generated_nodes_round_trip_with_their_spans():
    for seed in range(20):
        module = parse_module(render(gen_program(GenBudget(max_depth=4, seed=seed))))
        for node in _nodes(module):
            if isinstance(node, sx.Lit):
                # A cache is not an argument, so a copy starts without it.
                node._result = "cached"
                assert replace(node)._result is None
            again = replace(node)
            assert again == node and _with_spans(again) == _with_spans(node), node
