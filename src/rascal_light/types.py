"""Value typing, subtyping, and least upper bounds on types."""

from __future__ import annotations

from typing import Iterable, Mapping

from .fieldtable import build, fields
from .values import Basic, Undefined, Value, VCons, VList, VMap, VSet


class Type:
    __slots__ = ()

    def __str__(self) -> str:
        return render_type(self)

    def __repr__(self) -> str:
        """The expression that builds the type: a type without fields is a
        constant named after its word (``VOID``), any other is its class
        applied to its fields (``SetType(BaseType('int'))``)."""
        names = fields(self.__class__)
        if not names:
            return _WORD_OF[self].upper()
        return f"{self.__class__.__name__}({', '.join(repr(getattr(self, n)) for n in names)})"


# A base type's name is "int" or "str".
build(globals(), """
BaseType(Type): name
DataType(Type): name
SetType(Type): elem
ListType(Type): elem
MapType(Type): key val
VoidType(Type):
ValueType(Type):
""")

INT = BaseType("int")
STR = BaseType("str")
VOID = VoidType()
VALUE = ValueType()

# The types named by a word: a type, or the collection class whose
# ``<t>`` follows the word.  (``map<k, v>``, the one two-argument form, is
# spelled where it is read and printed.)  The parser reads this table and
# ``render_type`` prints from its inverse.
TYPE_WORDS = {"int": INT, "str": STR, "void": VOID, "value": VALUE, "list": ListType, "set": SetType}
_WORD_OF = {named: word for word, named in TYPE_WORDS.items()}

# The collections of one element type, and each value class's type.  The
# tuples are constants, so the hot ``isinstance`` tests build none.
_ELEM_TYPES = (ListType, SetType)
_ELEM_VALUES = (VList, VSet)
_ELEM_TYPE_OF = {VList: ListType, VSet: SetType}


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


def has_type(v: Value, t: Type, constructors) -> bool:
    """The typing premise ``⊢ v : t'`` with ``t' <: t``, in one call: equal
    to ``subtype(type_of(v, constructors), t)``.  A basic value's type is
    read off the class of its contents, without a call."""
    if v.__class__ is Basic:
        vt = STR if isinstance(v.val, str) else INT
        return vt is t or isinstance(t, ValueType) or vt == t
    return subtype(type_of(v, constructors), t)


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
    if isinstance(v, _ELEM_VALUES):
        return _ELEM_TYPE_OF[v.__class__](lub_seq([type_child(x, constructors) for x in v.items]))
    if isinstance(v, VMap):
        return MapType(
            lub_seq([type_child(k, constructors) for k, _ in v.pairs]),
            lub_seq([type_child(x, constructors) for _, x in v.pairs]),
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
    # Types are immutable and the parser returns the shared constants, so
    # identity settles most checks without calling ``__eq__``.
    if t1 is t2 or t1 == t2:
        return True
    if isinstance(t1, VoidType):
        return True
    if isinstance(t2, ValueType):
        return True
    if isinstance(t1, _ELEM_TYPES) and t2.__class__ is t1.__class__:
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
    if isinstance(t1, _ELEM_TYPES) and t2.__class__ is t1.__class__:
        return t1.__class__(lub(t1.elem, t2.elem))
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
    if isinstance(t, DataType):
        return t.name
    if isinstance(t, _ELEM_TYPES):
        return f"{_WORD_OF[t.__class__]}<{render_type(t.elem)}>"
    if isinstance(t, MapType):
        return f"map<{render_type(t.key)}, {render_type(t.val)}>"
    return _WORD_OF[t]
