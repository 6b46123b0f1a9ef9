"""Value typing, subtyping, and least upper bounds on types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .values import Basic, Undefined, Value, VCons, VList, VMap, VSet


class Type:
    __slots__ = ()

    def __str__(self) -> str:
        return render_type(self)


@dataclass(slots=True, unsafe_hash=True, repr=False)
class BaseType(Type):
    name: str  # "int" or "str"

    def __repr__(self) -> str:
        return f"BaseType({self.name!r})"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class DataType(Type):
    name: str

    def __repr__(self) -> str:
        return f"DataType({self.name!r})"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class SetType(Type):
    elem: Type

    def __repr__(self) -> str:
        return f"SetType({self.elem!r})"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class ListType(Type):
    elem: Type

    def __repr__(self) -> str:
        return f"ListType({self.elem!r})"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class MapType(Type):
    key: Type
    val: Type

    def __repr__(self) -> str:
        return f"MapType({self.key!r}, {self.val!r})"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class VoidType(Type):
    def __repr__(self) -> str:
        return "VOID"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class ValueType(Type):
    def __repr__(self) -> str:
        return "VALUE"


INT = BaseType("int")
STR = BaseType("str")
VOID = VoidType()
VALUE = ValueType()


class IllFormedValue(Exception):
    """A constructor value violates its declaration.

    This signals an interpreter defect (values are checked at construction
    time), never a user-program error.
    """


def type_of(v: Value, constructors: Mapping[str, tuple[str, tuple[Type, ...]]]) -> Type:
    """The canonical type of a value.

    ``constructors`` maps each constructor name to its datatype name and
    declared field types.  Raises IllFormedValue if a constructor value
    does not conform to its declaration.

    A value is typed once per table: the type is recorded on the value
    with the table it was computed under, and a later call with that same
    table object returns it.  Tables only grow, and no constructor name is
    ever rebound, so a recorded type stays the value's type.
    """
    if isinstance(v, Basic):
        return STR if isinstance(v.val, str) else INT
    if isinstance(v, Undefined):
        return VOID
    typed = v._typed
    if typed is not None and typed[0] is constructors:
        return typed[1]
    t = _type_node(v, constructors, type_of)
    v._typed = (constructors, t)
    return t


def _type_of_walk(v: Value, constructors) -> Type:
    """``type_of`` that neither reads nor records types on values: every
    node is re-typed.  The reference that strong-typing checks use."""
    if isinstance(v, Basic):
        return STR if isinstance(v.val, str) else INT
    if isinstance(v, Undefined):
        return VOID
    return _type_node(v, constructors, _type_of_walk)


def _type_node(v: Value, constructors, type_child) -> Type:
    """The type of a constructor or collection value, its elements typed
    by ``type_child``."""
    if isinstance(v, VCons):
        sig = constructors.get(v.name)
        if sig is None:
            raise IllFormedValue(f"undeclared constructor {v.name!r}")
        at, fields = sig
        if len(fields) != len(v.args):
            raise IllFormedValue(
                f"constructor {v.name!r} expects {len(fields)} fields, has {len(v.args)}"
            )
        for arg, ft in zip(v.args, fields):
            if not subtype(type_child(arg, constructors), ft):
                raise IllFormedValue(
                    f"field of {v.name!r} has type {type_child(arg, constructors)}, "
                    f"expected {ft}"
                )
        return DataType(at)
    if isinstance(v, VList):
        return ListType(lub_seq(type_child(x, constructors) for x in v.items))
    if isinstance(v, VSet):
        return SetType(lub_seq(type_child(x, constructors) for x in v.items))
    if isinstance(v, VMap):
        return MapType(
            lub_seq(type_child(k, constructors) for k, _ in v.pairs),
            lub_seq(type_child(x, constructors) for _, x in v.pairs),
        )
    raise IllFormedValue(f"unknown value {v!r}")


def typed_join(out: Value, v1: Value, v2: Value, constructors) -> Value:
    """``out`` with ``lub(type_of(v1), type_of(v2))`` recorded as its type.

    ``out`` is the collection ``v1 + v2`` (or ``v1`` updated with the
    one-entry map ``v2``).  The join is exact when ``out`` keeps every
    element of both operands, which list and set ``+`` always do.  A map
    result is recorded only if no key was overwritten: a dropped binding
    may have been the only source of part of the old type.  Nothing is
    recorded when an operand is ill-formed.
    """
    if isinstance(out, VMap) and len(out.pairs) != len(v1.pairs) + len(v2.pairs):
        return out
    try:
        t = lub(type_of(v1, constructors), type_of(v2, constructors))
    except IllFormedValue:
        return out
    out._typed = (constructors, t)
    return out


def subtype(t1: Type, t2: Type) -> bool:
    """Whether ``t1`` is a subtype of ``t2``.

    Reflexivity, void as bottom, value as top, and covariance for the
    collection types; nothing else.
    """
    if t1 == t2:
        return True
    if isinstance(t1, VoidType):
        return True
    if isinstance(t2, ValueType):
        return True
    if isinstance(t1, ListType) and isinstance(t2, ListType):
        return subtype(t1.elem, t2.elem)
    if isinstance(t1, SetType) and isinstance(t2, SetType):
        return subtype(t1.elem, t2.elem)
    if isinstance(t1, MapType) and isinstance(t2, MapType):
        return subtype(t1.key, t2.key) and subtype(t1.val, t2.val)
    return False


def lub(t1: Type, t2: Type) -> Type:
    """Least upper bound of two types in the subtype order."""
    if isinstance(t2, VoidType) or t1 == t2:
        return t1
    if isinstance(t1, VoidType):
        return t2
    if isinstance(t1, ListType) and isinstance(t2, ListType):
        return ListType(lub(t1.elem, t2.elem))
    if isinstance(t1, SetType) and isinstance(t2, SetType):
        return SetType(lub(t1.elem, t2.elem))
    if isinstance(t1, MapType) and isinstance(t2, MapType):
        return MapType(lub(t1.key, t2.key), lub(t1.val, t2.val))
    return VALUE


def lub_seq(ts: Iterable[Type]) -> Type:
    """Fold of lub over a type sequence; empty gives void."""
    ts = list(ts)
    out: Type = VOID
    for t in reversed(ts):
        out = lub(t, out)
    return out


def render_type(t: Type) -> str:
    """Source-syntax form of a type, e.g. ``map<int, str>``."""
    if isinstance(t, BaseType):
        return t.name
    if isinstance(t, DataType):
        return t.name
    if isinstance(t, SetType):
        return f"set<{render_type(t.elem)}>"
    if isinstance(t, ListType):
        return f"list<{render_type(t.elem)}>"
    if isinstance(t, MapType):
        return f"map<{render_type(t.key)}, {render_type(t.val)}>"
    if isinstance(t, VoidType):
        return "void"
    return "value"
