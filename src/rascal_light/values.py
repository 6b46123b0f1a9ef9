"""Runtime values, stores, environments, and evaluation result variants.

Values are structurally comparable and immutable by convention: they are
slotted classes whose fields no code assigns after construction.  Sets and
maps are canonicalized eagerly at construction (sorted under the total value
order, duplicates removed) so that structural equality coincides with
semantic value equality.  A constructor or collection value also carries a
``_typed`` slot, where ``types.type_of`` records the value's type; it is
not part of equality or hashing.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping


# ---------------------------------------------------------------------------
# Values


class Value:
    """Base class of all runtime values."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_value(self)


# In the value and result classes, two instances are equal when they are of
# the same class and their fields are equal, and the hash is the hash of
# the tuple of fields, ``hash((f1, ...))``.  ``_typed`` is not a field:
# ``types.type_of`` records ``(constructor table, type)`` there.


class Basic(Value):
    """A basic value: an arbitrary-precision integer or a string."""

    __slots__ = ("val",)

    def __init__(self, val: int | str):
        self.val = val

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.val,))

    def __repr__(self) -> str:
        return f"Basic({self.val!r})"


class VCons(Value):
    """A constructor value ``k(v1, ..., vn)``."""

    __slots__ = ("name", "args", "_typed")

    def __init__(self, name: str, args: tuple[Value, ...]):
        self.name = name
        self.args = args
        self._typed = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name and self.args == other.args
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.args))

    def __repr__(self) -> str:
        return f"VCons({self.name!r}, {self.args!r})"


class _Items(Value):
    """A list or set value: the tuple of its items."""

    __slots__ = ("items", "_typed")

    def __init__(self, items: tuple[Value, ...]):
        self.items = items
        self._typed = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({self.items!r})"


class VList(_Items):
    __slots__ = ()


class VSet(_Items):
    """A set value; items are kept sorted and duplicate-free."""

    __slots__ = ()

    def __init__(self, items: tuple[Value, ...]):
        self.items = items
        self._typed = None
        self.__post_init__()

    def __post_init__(self) -> None:
        self.items = canonical_items(self.items)

    def contains(self, v: Value) -> bool:
        items = self.items
        i = bisect_left(items, value_key(v), key=value_key)
        return i < len(items) and items[i] == v


class VMap(Value):
    """A map value; entries are key-sorted and keys are distinct.

    When the same key occurs more than once in the input, the last binding
    wins (matching update semantics for literals built left to right).
    """

    __slots__ = ("pairs", "_typed")

    def __init__(self, pairs: tuple[tuple[Value, Value], ...]):
        self.pairs = pairs
        self._typed = None
        self.__post_init__()

    def __post_init__(self) -> None:
        self.pairs = canonical_pairs(self.pairs)

    def lookup(self, key: Value) -> Value | None:
        pairs = self.pairs
        i = bisect_left(pairs, value_key(key), key=lambda kv: value_key(kv[0]))
        if i < len(pairs) and pairs[i][0] == key:
            return pairs[i][1]
        return None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash((self.pairs,))

    def __repr__(self) -> str:
        return f"VMap({self.pairs!r})"


class Undefined(Value):
    """The undefined value produced by value-less constructs."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self) -> str:
        return "UNDEF"


UNDEF = Undefined()

TRUE = VCons("true", ())
FALSE = VCons("false", ())


def vbool(b: bool) -> VCons:
    return TRUE if b else FALSE


# ---------------------------------------------------------------------------
# Total order on values

def value_key(v: Value) -> tuple:
    """The sort key of ``v``, the one definition of the total value order.

    Python orders these tuples by kind first (basic < constructor < list <
    set < map < undefined; ints before strings), then lexicographically on
    contents: a constructor by name, then its arguments' keys; a list or
    set by its items' keys; a map by its keys and values interleaved.  Two
    values have equal keys exactly when they are equal.
    """
    t = type(v)
    if t is Basic:
        x = v.val
        return (0, 1, x) if type(x) is str else (0, 0, x)
    # The keys of the parts are taken in Python loops: ``map`` or a
    # generator would call ``value_key`` from C, and from 3.12 on CPython
    # bounds that recursion apart from the recursion limit, so deep values
    # would exhaust it.  (On 3.11 the loops are also faster than ``map``.)
    if t is VCons:
        key, parts = [1, v.name], v.args
    elif t is VList:
        key, parts = [2], v.items
    elif t is VSet:
        key, parts = [3], v.items
    elif t is VMap:
        key = [4]
        for k, x in v.pairs:
            key.append(value_key(k))
            key.append(value_key(x))
        return tuple(key)
    else:
        return (5,)
    for x in parts:
        key.append(value_key(x))
    return tuple(key)


def value_order(v1: Value, v2: Value) -> int:
    """The total value order as -1, 0 or 1: the order of the keys."""
    k1, k2 = value_key(v1), value_key(v2)
    return (k1 > k2) - (k1 < k2)


def canonical_items(items: Iterable[Value]) -> tuple[Value, ...]:
    """Sort under the value order and drop duplicates."""
    out: list[Value] = []
    for v in sorted(items, key=value_key):
        if not out or out[-1] != v:
            out.append(v)
    return tuple(out)


def canonical_pairs(
    pairs: Iterable[tuple[Value, Value]],
) -> tuple[tuple[Value, Value], ...]:
    """Key-sort entries; for duplicate keys the last binding wins."""
    out: list[tuple[Value, Value]] = []
    # The sort is stable, so of equal keys the last binding comes last.
    for kv in sorted(pairs, key=lambda kv: value_key(kv[0])):
        if out and out[-1][0] == kv[0]:
            out[-1] = kv
        else:
            out.append(kv)
    return tuple(out)


def canonical_set(items: Iterable[Value]) -> VSet:
    """Build a set value: sorted, deduplicated."""
    return VSet(tuple(items))


def map_update(m: VMap, key: Value, val: Value) -> VMap:
    """Return ``m`` with ``key`` bound to ``val``, replacing any old binding."""
    pairs = m.pairs
    i = bisect_left(pairs, value_key(key), key=lambda kv: value_key(kv[0]))
    j = i + 1 if i < len(pairs) and pairs[i][0] == key else i
    out = object.__new__(VMap)  # the entries stay sorted: skip canonicalisation
    out.pairs = pairs[:i] + ((key, val),) + pairs[j:]
    out._typed = None
    return out


def set_union(s1: VSet, s2: VSet) -> VSet:
    """The union of two sets, equal to ``VSet(s1.items + s2.items)``.

    Each item of the smaller operand is bisected into the larger one, so
    the union costs O(m log n) comparisons rather than a full sort.  Of two
    equal items the one from ``s1`` is kept, as the stable sort would.
    """
    big, small = s1.items, s2.items
    left_small = len(big) < len(small)
    if left_small:
        big, small = small, big
    out: list[Value] = []
    lo = 0
    for x in small:
        i = bisect_left(big, value_key(x), lo, key=value_key)
        out.extend(big[lo:i])
        if i < len(big) and big[i] == x:
            out.append(x if left_small else big[i])
            i += 1
        else:
            out.append(x)
        lo = i
    out.extend(big[lo:])
    union = object.__new__(VSet)  # the items stay sorted: skip canonicalisation
    union.items = tuple(out)
    union._typed = None
    return union


def last(values: Iterable[Value]) -> Value:
    """The last element of a value sequence, or the undefined value if empty."""
    out = UNDEF
    for v in values:
        out = v
    return out


def children(v: Value) -> tuple[Value, ...]:
    """The directly contained values of ``v``.

    Basic and undefined values have none; constructors, lists and sets
    expose their elements; maps expose all keys followed by all values.
    """
    if isinstance(v, VCons):
        return v.args
    if isinstance(v, (VList, VSet)):
        return v.items
    if isinstance(v, VMap):
        return tuple(k for k, _ in v.pairs) + tuple(x for _, x in v.pairs)
    return ()


# ---------------------------------------------------------------------------
# Stores and environments

Env = dict  # Mapping[str, Value]: a candidate binding produced by matching


class Store:
    """An immutable mapping from variable names to values.

    All updates return a fresh store, which makes the state threading of
    the evaluation rules literal: restoring a store on backtracking is
    simply reusing the old object.
    """

    __slots__ = ("_m",)

    def __init__(self, bindings: Mapping[str, Value] | None = None):
        self._m: dict[str, Value] = dict(bindings) if bindings else {}

    def get(self, name: str) -> Value | None:
        return self._m.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._m

    @staticmethod
    def adopt(bindings: dict[str, Value]) -> Store:
        """A store over ``bindings`` itself, not a copy of it: the caller
        hands the dict over and must not change it afterwards."""
        s = object.__new__(Store)
        s._m = bindings
        return s

    # The updates build the new store directly, without ``__init__``.

    def updated(self, name: str, value: Value) -> Store:
        m = self._m.copy()
        m[name] = value
        s = object.__new__(Store)
        s._m = m
        return s

    def extended(self, env: Mapping[str, Value]) -> Store:
        if not env:
            return self
        m = self._m.copy()
        m.update(env)
        s = object.__new__(Store)
        s._m = m
        return s

    def without(self, names: Iterable[str]) -> Store:
        drop = {n for n in names if n in self._m}
        if not drop:
            return self
        s = object.__new__(Store)
        s._m = {k: v for k, v in self._m.items() if k not in drop}
        return s

    def domain(self) -> tuple[str, ...]:
        return tuple(self._m)

    def items(self) -> Iterator[tuple[str, Value]]:
        return iter(self._m.items())

    def as_dict(self) -> dict[str, Value]:
        return dict(self._m)

    def changed(self, other: Store) -> tuple[str, ...]:
        """Names bound differently in the two stores, sorted."""
        names = set(self._m) | set(other._m)
        return tuple(
            sorted(n for n in names if self._m.get(n) != other._m.get(n))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Store) and self._m == other._m

    def __hash__(self):
        raise TypeError("stores are not hashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {render_value(v)}" for k, v in self._m.items())
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Result variants

class Result:
    __slots__ = ()


class _Valued(Result):
    """A result that carries a value."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(value={self.value!r})"


class Success(_Valued):
    __slots__ = ()


class Return(_Valued):
    __slots__ = ()


class Throw(_Valued):
    __slots__ = ()


class _Signal(Result):
    """A result without fields: all instances of one class are equal."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}()"


class Break(_Signal):
    __slots__ = ()


class Continue(_Signal):
    __slots__ = ()


class Fail(_Signal):
    __slots__ = ()


class Error(_Signal):
    __slots__ = ()


class Timeout(_Signal):
    __slots__ = ()


BREAK = Break()
CONTINUE = Continue()
FAIL = Fail()
ERROR = Error()
TIMEOUT = Timeout()


# The exceptional results: return, throw, break, continue, fail, error.
EXRES = frozenset({Return, Throw, Break, Continue, Fail, Error})


def as_result(res) -> Result:
    """The result ``res`` as it leaves the evaluator.  Inside it, ``success
    v`` is the bare value ``v``; every other result is a ``Result``."""
    return res if isinstance(res, Result) else Success(res)


# Each result class -> the name traces and result trees give it.
_RESULT_KINDS = {
    Success: "success",
    Return: "return",
    Throw: "throw",
    Break: "break",
    Continue: "continue",
    Fail: "fail",
    Error: "error",
    Timeout: "timeout",
}


def result_kind(r: Result) -> str:
    return _RESULT_KINDS[type(r)]


class TimeoutSignal(Exception):
    """Internal signal: the fuel budget is exhausted.

    Carries the store at the point of exhaustion; converted to a Timeout
    result at the evaluation boundary.
    """

    def __init__(self, store: Store):
        super().__init__("fuel exhausted")
        self.store = store


def budget(fuel: int | None) -> int:
    """The budget an evaluation runs on: a natural number ``fuel``, or for
    None ``sys.maxsize``, more than a run can spend: a derivation that deep,
    or a loop of that many rounds, would take millennia.  (Not ``math.inf``:
    float arithmetic on every premise slows unbounded runs by ~3%.)"""
    if fuel is None:
        return sys.maxsize
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    return fuel


# ---------------------------------------------------------------------------
# Rendering and serialization


# The string escapes of the concrete syntax: character -> its escape.  The
# tokenizer decodes with the inverse of this table.
ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_ESCAPE = str.maketrans(ESCAPES)

# Collection brackets, opener -> closer, and the value class the items
# between them build.  The parser reads these tables and ``render_value``
# prints from their inverse.  That is keyed by class name, so a copy of
# this module whose value classes are rebound prints with them too.
CLOSERS = {"[": "]", "{": "}"}
VALUE_COLLECTIONS = {"[": VList, "{": VSet}
_BRACKETS = {cls.__name__: (o, CLOSERS[o]) for o, cls in VALUE_COLLECTIONS.items()}


def _int_text(i: int) -> str:
    """The decimal digits of ``i``.  Past the host's limit on converting an
    int to a string, ``Decimal`` gives the same digits without a limit."""
    try:
        return str(i)
    except ValueError:
        import decimal  # only for such integers, so not at start-up

        return str(decimal.Decimal(i))


def basic_text(x: int | str) -> str:
    """Source text of a basic value: a quoted, escaped string or the
    integer's decimal digits."""
    return '"' + x.translate(_ESCAPE) + '"' if isinstance(x, str) else _int_text(x)


def render_value(v: Value) -> str:
    """Deterministic text form of a value.  The parser reads it back to an
    equal value, except that the tokenizer refuses an integer literal past
    the host's limit on converting a string to an int (4300 digits by
    default), as a ``ParseError``: that limit guards the parser against
    quadratic-time conversion."""
    if isinstance(v, Basic):
        return basic_text(v.val)
    if isinstance(v, VCons):
        return v.name + "(" + ", ".join([render_value(a) for a in v.args]) + ")"
    if isinstance(v, (VList, VSet)):
        opener, closer = _BRACKETS[v.__class__.__name__]
        return opener + ", ".join([render_value(x) for x in v.items]) + closer
    if isinstance(v, VMap):
        inner = ", ".join([
            render_value(k) + " : " + render_value(x) for k, x in v.pairs
        ])
        return "(" + inner + ")"
    return "<undefined>"


def value_to_tree(v: Value):
    """Machine-readable tree form of a value (plain dicts/lists/strings)."""
    if isinstance(v, Basic):
        if isinstance(v.val, str):
            return {"kind": "str", "value": v.val}
        return {"kind": "int", "value": _int_text(v.val)}
    if isinstance(v, VCons):
        return {
            "kind": "cons",
            "name": v.name,
            "args": [value_to_tree(a) for a in v.args],
        }
    if isinstance(v, (VList, VSet)):
        kind = "list" if v.__class__ is VList else "set"
        return {"kind": kind, "items": [value_to_tree(x) for x in v.items]}
    if isinstance(v, VMap):
        return {
            "kind": "map",
            "entries": [
                {"key": value_to_tree(k), "value": value_to_tree(x)}
                for k, x in v.pairs
            ],
        }
    return {"kind": "undefined"}


def result_to_tree(r: Result):
    """Tree form of an evaluation result, with a format version field."""
    node: dict = {"version": 1, "result": result_kind(r)}
    if isinstance(r, (Success, Return, Throw)):
        node["value"] = value_to_tree(r.value)
    return node
