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

from bisect import bisect_left
from functools import cmp_to_key
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


class VList(Value):
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
        return f"VList({self.items!r})"


class VSet(Value):
    """A set value; items are kept sorted and duplicate-free."""

    __slots__ = ("items", "_typed")

    def __init__(self, items: tuple[Value, ...]):
        self.items = items
        self._typed = None
        self.__post_init__()

    def __post_init__(self) -> None:
        self.items = canonical_items(self.items)

    def contains(self, v: Value) -> bool:
        items = self.items
        i = _bisect(items, v, VALUE_KEY)
        return i < len(items) and items[i] == v

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self) -> str:
        return f"VSet({self.items!r})"


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

    def keys(self) -> tuple[Value, ...]:
        return tuple(k for k, _ in self.pairs)

    def lookup(self, key: Value) -> Value | None:
        pairs = self.pairs
        i = _bisect(pairs, key, _pair_key)
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

_KIND_RANK = {Basic: 0, VCons: 1, VList: 2, VSet: 3, VMap: 4, Undefined: 5}


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


def _cmp_seq(xs: tuple[Value, ...], ys: tuple[Value, ...]) -> int:
    for x, y in zip(xs, ys):
        c = value_order(x, y)
        if c != 0:
            return c
    return _cmp(len(xs), len(ys))


def value_order(v1: Value, v2: Value) -> int:
    """Total order on values: -1, 0, or 1.

    Kind tag first (basic < constructor < list < set < map < undefined),
    then lexicographically on contents.  Consistent with structural
    equality; used to canonicalize sets and maps.
    """
    r1, r2 = _KIND_RANK[type(v1)], _KIND_RANK[type(v2)]
    if r1 != r2:
        return _cmp(r1, r2)
    if isinstance(v1, Basic):
        b1, b2 = (isinstance(v1.val, str), isinstance(v2.val, str))
        if b1 != b2:
            return _cmp(b1, b2)  # ints before strings
        return _cmp(v1.val, v2.val)
    if isinstance(v1, VCons):
        if v1.name != v2.name:
            return _cmp(v1.name, v2.name)
        return _cmp_seq(v1.args, v2.args)
    if isinstance(v1, VList):
        return _cmp_seq(v1.items, v2.items)
    if isinstance(v1, VSet):
        return _cmp_seq(v1.items, v2.items)
    if isinstance(v1, VMap):
        flat1 = tuple(x for kv in v1.pairs for x in kv)
        flat2 = tuple(x for kv in v2.pairs for x in kv)
        return _cmp_seq(flat1, flat2)
    return 0  # both Undefined


VALUE_KEY = cmp_to_key(value_order)


def canonical_items(items: Iterable[Value]) -> tuple[Value, ...]:
    """Sort under the value order and drop duplicates."""
    out: list[Value] = []
    for v in sorted(items, key=VALUE_KEY):
        if not out or value_order(out[-1], v) != 0:
            out.append(v)
    return tuple(out)


def _pair_key(kv: tuple[Value, Value]):
    return VALUE_KEY(kv[0])


def _bisect(seq: tuple, v: Value, key, lo: int = 0) -> int:
    """Where ``v`` is, or would go, in ``seq[lo:]``, which is sorted under
    ``key`` (``VALUE_KEY`` for set items, ``_pair_key`` for map entries)."""
    return bisect_left(seq, VALUE_KEY(v), lo, key=key)


def canonical_pairs(
    pairs: Iterable[tuple[Value, Value]],
) -> tuple[tuple[Value, Value], ...]:
    """Key-sort entries; for duplicate keys the last binding wins."""
    out: list[tuple[Value, Value]] = []
    # The sort is stable, so of equal keys the last binding comes last.
    for kv in sorted(pairs, key=_pair_key):
        if out and value_order(out[-1][0], kv[0]) == 0:
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
    i = _bisect(pairs, key, _pair_key)
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
        i = _bisect(big, x, VALUE_KEY, lo)
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


def is_exres(r: Result) -> bool:
    """True for exceptional results: return, throw, break, continue, fail, error."""
    return type(r) in EXRES


def result_kind(r: Result) -> str:
    return {
        Success: "success",
        Return: "return",
        Throw: "throw",
        Break: "break",
        Continue: "continue",
        Fail: "fail",
        Error: "error",
        Timeout: "timeout",
    }[type(r)]


class TimeoutSignal(Exception):
    """Internal signal: the fuel budget is exhausted.

    Carries the store at the point of exhaustion; converted to a Timeout
    result at the evaluation boundary.
    """

    def __init__(self, store: Store):
        super().__init__("fuel exhausted")
        self.store = store


def fuel_check(n: int | None, store: Store) -> None:
    """Abort with a timeout when the budget for this derivation is zero."""
    if n == 0:
        raise TimeoutSignal(store)


def fuel_dec(n: int | None) -> int | None:
    """Budget for a recursive premise: one less, or unlimited."""
    return None if n is None else n - 1


# ---------------------------------------------------------------------------
# Rendering and serialization


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    return "".join(out)


def _int_text(i: int) -> str:
    """The decimal digits of ``i``.  Past the host's limit on converting an
    int to a string, ``Decimal`` gives the same digits without a limit."""
    try:
        return str(i)
    except ValueError:
        import decimal  # only for such integers, so not at start-up

        return str(decimal.Decimal(i))


def render_value(v: Value) -> str:
    """Deterministic text form of a value, round-trippable by the parser."""
    if isinstance(v, Basic):
        if isinstance(v.val, str):
            return '"' + _escape(v.val) + '"'
        return _int_text(v.val)
    if isinstance(v, VCons):
        return v.name + "(" + ", ".join(render_value(a) for a in v.args) + ")"
    if isinstance(v, VList):
        return "[" + ", ".join(render_value(x) for x in v.items) + "]"
    if isinstance(v, VSet):
        return "{" + ", ".join(render_value(x) for x in v.items) + "}"
    if isinstance(v, VMap):
        inner = ", ".join(
            render_value(k) + " : " + render_value(x) for k, x in v.pairs
        )
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
    if isinstance(v, VList):
        return {"kind": "list", "items": [value_to_tree(x) for x in v.items]}
    if isinstance(v, VSet):
        return {"kind": "set", "items": [value_to_tree(x) for x in v.items]}
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
