"""Slotted classes built from a field table: the syntax, type, token,
trace and result classes, and the harness's ``GenBudget`` and ``Case``.

A table is text with one row per class::

    Name(Base): field field=default | hidden _cache=default

``build`` writes the class statement of every row, with its ``__slots__``
and its ``__init__`` (the fields in order), into one source string and runs
it with one ``exec`` in the namespace of the table's module, so each class
is built once, with that module's name and its own name as qualified name.
Each class then gets the ``__eq__``, ``__hash__`` and ``__repr__`` of a
dataclass with ``unsafe_hash=True``:

- the fields before ``|`` are compared by ``==``, hashed and shown by
  ``repr``, in order; the fields after it are not (a node's ``span``);
- ``=`` gives a default, an expression without spaces that is evaluated
  once, in the module's namespace, when the class is built;
- a field whose name begins with ``_`` is a cache: no argument, it starts
  at its default and may be assigned later (``Lit._result``);
- ``:`` after a field marks it as holding nodes of the kind its letter
  names, each ``*`` after the letter one level of tuples (``args:E*``);
  ``MARKS`` records the marks, for the table module's walks to read;
- a line without ``:``, or a comment, is a statement, run where it
  stands.

A class written out by hand under a row's name and passed to ``build`` is
that row's body: its attributes join the built class.  A method that the
body or the row's base defines is not added (``__hash__ = None`` keeps a
class unhashable), and a field the body defines (a property) is read, not
stored.
"""

from operator import attrgetter

# What a class statement defines on its own, so a body does not pass it on.
_OWN = {"__module__", "__qualname__", "__dict__", "__weakref__", "__firstlineno__", "__static_attributes__"}

# Each built class -> (its arguments in order, the fields that ``==``,
# ``hash`` and ``repr`` read), and -> the ``(field, mark)`` pairs of its
# marked fields, in order.
TABLE: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {}
MARKS: dict[type, tuple[tuple[str, str], ...]] = {}


def _fields(part: str) -> list[tuple[str, str]]:
    """``(name, default)`` of each field written in ``part``; the default
    is empty where there is none.  A mark is not part of the name."""
    return [field.partition(":")[0].partition("=")[::2] for field in part.split()]


def _class_source(name: str, base: str, stored, args) -> str:
    """The class statement of one row: its slots and its ``__init__``."""
    params = "".join(f", {n}={d}" if d else f", {n}" for n, d in stored if n in args)
    return "\n".join([
        f"class {name}({base}):",
        f"    __slots__ = {tuple(n for n, _ in stored)!r}",
        f"    def __init__(self{params}):",
        *([f"        self.{n} = {n if n in args else d}" for n, d in stored] or ["        pass"]),
    ])


def _compared(seen: tuple[str, ...]):
    """``__eq__``, ``__hash__`` and ``__repr__`` over the fields ``seen``:
    they compare, hash and show the tuple of those fields.  A field compared
    alone is compared as a tuple compares it, by identity first."""
    if len(seen) == 1:
        get = attrgetter(*seen)

        def key(obj):
            return (get(obj),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                a, b = get(self), get(other)
                return a is b or a == b
            return NotImplemented

    else:
        key = attrgetter(*seen) if seen else lambda obj: ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, seen, key(self)))})"

    return __eq__, __hash__, __repr__


def build(namespace: dict, table: str, *bodies: type) -> None:
    """Define the classes of ``table`` in ``namespace``, a module's globals,
    each with the attributes of the one of ``bodies`` of its name."""
    hand = {body.__name__: vars(body) for body in bodies}
    source, rows = [], []
    for line in table.strip().splitlines():
        head, colon, rest = line.partition(":")
        if not colon or head.lstrip().startswith("#"):
            source.append(line)
            continue
        name, _, base = head.strip().rstrip(")").partition("(")
        marks = tuple(field.partition(":")[::2] for field in rest.split() if ":" in field)
        compared, _, hidden = rest.partition("|")
        shown = _fields(compared)
        defined = set(hand.get(name, ())) | set(vars(namespace[base]) if base else ())
        stored = [f for f in shown + _fields(hidden) if f[0] not in defined]
        args = tuple(n for n, _ in stored if not n.startswith("_"))
        source.append(_class_source(name, base, stored, args))
        rows.append((name, args, tuple(n for n, _ in shown), defined, marks))
    exec(compile("\n".join(source), f"<field table of {namespace['__name__']}>", "exec", dont_inherit=True), namespace)
    for name, args, seen, defined, marks in rows:
        cls = namespace[name]
        cls.__match_args__ = args
        for method in _compared(seen):
            if method.__name__ not in defined:
                method.__qualname__ = f"{name}.{method.__name__}"
                setattr(cls, method.__name__, method)
        for attr, value in hand.get(name, {}).items():
            if attr not in _OWN:
                setattr(cls, attr, value)
        TABLE[cls] = (args, seen)
        MARKS[cls] = marks


def fields(cls: type) -> tuple[str, ...]:
    """The arguments of a built class, in order."""
    return TABLE[cls][0]


def replace(node, **changes):
    """``node`` built again with the fields ``changes`` names replaced."""
    return type(node)(**{**{name: getattr(node, name) for name in TABLE[type(node)][0]}, **changes})
