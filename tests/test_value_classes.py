"""Slotted value and result classes against the frozen dataclasses they
replaced.

``OLD_CLASSES`` is the earlier definition of every value and result class,
verbatim.  It is executed over a private copy of ``rascal_light.values``,
followed by the old comparator and its adapters (``OLD_ORDER`` in
``test_value_order.py``), so that copy's ``render_value`` and
canonicalisation run on the old classes, and its ``value_order`` is the old
comparator.  Generated values are rebuilt in both modules and compared
operation by operation.
"""

import inspect
import itertools
import random
import sys
import types

import pytest

from rascal_light import fieldtable, values
from rascal_light.harness import GenBudget, _ModuleGen, gen_any_value, gen_type, gen_value
from test_value_order import old_order

OLD_CLASSES = '''
from dataclasses import dataclass


class Value:
    """Base class of all runtime values."""

    __slots__ = ()

    # ``(constructor table, type)``, recorded on the instance by
    # ``types.type_of``; outside the dataclass fields, so equality and
    # hashing ignore it.
    _typed = None

    def __str__(self) -> str:
        return render_value(self)


@dataclass(frozen=True, repr=False)
class Basic(Value):
    """A basic value: an arbitrary-precision integer or a string."""

    val: int | str

    def __repr__(self) -> str:
        return f"Basic({self.val!r})"


@dataclass(frozen=True, repr=False)
class VCons(Value):
    """A constructor value ``k(v1, ..., vn)``."""

    name: str
    args: tuple[Value, ...]

    def __repr__(self) -> str:
        return f"VCons({self.name!r}, {self.args!r})"


@dataclass(frozen=True, repr=False)
class VList(Value):
    items: tuple[Value, ...]

    def __repr__(self) -> str:
        return f"VList({self.items!r})"


@dataclass(frozen=True, repr=False)
class VSet(Value):
    """A set value; items are kept sorted and duplicate-free."""

    items: tuple[Value, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", canonical_items(self.items))

    def contains(self, v: Value) -> bool:
        items = self.items
        i = _bisect(items, v, VALUE_KEY)
        return i < len(items) and items[i] == v

    def __repr__(self) -> str:
        return f"VSet({self.items!r})"


@dataclass(frozen=True, repr=False)
class VMap(Value):
    """A map value; entries are key-sorted and keys are distinct.

    When the same key occurs more than once in the input, the last binding
    wins (matching update semantics for literals built left to right).
    """

    pairs: tuple[tuple[Value, Value], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", canonical_pairs(self.pairs))

    def keys(self) -> tuple[Value, ...]:
        return tuple(k for k, _ in self.pairs)

    def lookup(self, key: Value) -> Value | None:
        pairs = self.pairs
        i = _bisect(pairs, key, _pair_key)
        if i < len(pairs) and pairs[i][0] == key:
            return pairs[i][1]
        return None

    def __repr__(self) -> str:
        return f"VMap({self.pairs!r})"


@dataclass(frozen=True, repr=False)
class Undefined(Value):
    """The undefined value produced by value-less constructs."""

    def __repr__(self) -> str:
        return "UNDEF"


class Result:
    __slots__ = ()


@dataclass(frozen=True)
class Success(Result):
    value: Value


@dataclass(frozen=True)
class Return(Result):
    value: Value


@dataclass(frozen=True)
class Throw(Result):
    value: Value


@dataclass(frozen=True)
class Break(Result):
    pass


@dataclass(frozen=True)
class Continue(Result):
    pass


@dataclass(frozen=True)
class Fail(Result):
    pass


@dataclass(frozen=True)
class Error(Result):
    pass


@dataclass(frozen=True)
class Timeout(Result):
    pass


UNDEF = Undefined()
'''


@pytest.fixture(scope="module")
def old():
    """A copy of ``rascal_light.values`` whose classes are the old ones."""
    mod = types.ModuleType("old_values")
    # The copy's ``from .fieldtable import build`` resolves in the package.
    mod.__package__ = "rascal_light"
    # ``dataclass`` looks up the module of the class it processes.
    sys.modules[mod.__name__] = mod
    # The copy's result rows register in the field table: unregister them.
    table, marks = dict(fieldtable.TABLE), dict(fieldtable.MARKS)
    try:
        exec(compile(inspect.getsource(values), "<values copy>", "exec"), vars(mod))
        exec(compile(OLD_CLASSES, "<old value classes>", "exec"), vars(mod))
        # The old classes search with the comparator of their time.
        vars(mod).update(old_order(vars(mod)))
    finally:
        del sys.modules[mod.__name__]
        fieldtable.TABLE.clear()
        fieldtable.TABLE.update(table)
        fieldtable.MARKS.clear()
        fieldtable.MARKS.update(marks)
    return mod


def rebuild(v, mod):
    """``v`` built again, from the leaves up, with the classes of ``mod``."""
    if isinstance(v, values.Basic):
        return mod.Basic(v.val)
    if isinstance(v, values.VCons):
        return mod.VCons(v.name, tuple(rebuild(a, mod) for a in v.args))
    if isinstance(v, values.VList):
        return mod.VList(tuple(rebuild(x, mod) for x in v.items))
    if isinstance(v, values.VSet):
        return mod.VSet(tuple(rebuild(x, mod) for x in reversed(v.items)))
    if isinstance(v, values.VMap):
        return mod.VMap(tuple((rebuild(k, mod), rebuild(x, mod)) for k, x in v.pairs))
    assert isinstance(v, values.Undefined)
    return mod.Undefined()


def generated(seed, count=120):
    rng = random.Random(seed)
    gen = _ModuleGen(rng, GenBudget(seed=seed), finite=False)
    gen.build_datatypes()
    out = []
    for i in range(count):
        if i % 2:
            out.append(gen_any_value(rng, gen.cons_by_type, 2))
        else:
            out.append(gen_value(rng, gen_type(rng, gen.cons_by_type, 2), gen.cons_by_type, 2))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_values_agree_with_the_old_classes(old, seed):
    vs = generated(seed)
    # Equal pairs are rare among random draws: add a rebuilt copy of each.
    vs += [rebuild(v, values) for v in vs[::3]]
    olds = [rebuild(v, old) for v in vs]
    for v, o in zip(vs, olds):
        assert repr(v) == repr(o)
        assert hash(v) == hash(o)
        assert values.render_value(v) == old.render_value(o)
        assert str(v) == str(o)
    for (a, oa), (b, ob) in itertools.product(zip(vs, olds), repeat=2):
        assert (a == b) == (oa == ob)
        assert (a != b) == (oa != ob)
        assert values.value_order(a, b) == old.value_order(oa, ob)


@pytest.mark.parametrize("seed", [4, 5])
def test_results_agree_with_the_old_classes(old, seed):
    vs = generated(seed, count=30)
    vs += [rebuild(v, values) for v in vs[::3]]
    pairs = []
    for v in vs:
        for name in ("Success", "Return", "Throw"):
            pairs.append((getattr(values, name)(v), getattr(old, name)(rebuild(v, old))))
    for name in ("Break", "Continue", "Fail", "Error", "Timeout"):
        pairs.append((getattr(values, name)(), getattr(old, name)()))
    pairs += [(values.BREAK, old.Break()), (values.TIMEOUT, old.Timeout())]
    for r, o in pairs:
        assert repr(r) == repr(o)
        assert hash(r) == hash(o)
    for (r1, o1), (r2, o2) in itertools.product(pairs, repeat=2):
        assert (r1 == r2) == (o1 == o2)
        assert (r1 != r2) == (o1 != o2)


def test_hash_ordered_iteration_is_unchanged(old):
    vs = generated(6, count=80)
    new_order = [repr(v) for v in set(vs)]
    old_order = [repr(o) for o in {rebuild(v, old) for v in vs}]
    assert new_order == old_order


def test_shortcut_constructors_start_untyped():
    s = values.set_union(values.VSet((values.Basic(1),)), values.VSet((values.Basic(2),)))
    m = values.map_update(values.VMap(()), values.Basic(1), values.Basic(2))
    assert s._typed is None and m._typed is None
    assert s == values.VSet((values.Basic(2), values.Basic(1)))
    assert m == values.VMap(((values.Basic(1), values.Basic(2)),))
