"""Backtracking pattern matching, produced lazily.

``match`` is a generator of the candidate environments of a pattern
against a value: the paper's list of successes, drawn on demand, so a
construct that takes the first candidate whose body does not fail (a
``switch`` or visit case) builds only the candidates it tries.  List and
set element sequences go through ``match_all``.  Matching never touches
the store it reads.

The enumeration order is part of the semantics:

* constructor arguments, and a typed pattern's label with its inner
  pattern, combine in left-to-right product order, consistent pairs only;
* a list star takes prefixes by increasing length, and an ordinary list
  element takes the head;
* an ordinary set element picks each element in canonical order;
* a set star takes subsets largest first: by descending size, and in
  reverse canonical-lexicographic order within one size;
* ``/p`` yields the matches at the value itself, then those inside each
  child in order.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping

from . import syntax as sx
from .types import Type, has_type
from .values import (
    Basic,
    Env,
    Store,
    Value,
    VCons,
    VList,
    VSet,
    children,
)

ValueSeq = tuple[Value, ...]


# ---------------------------------------------------------------------------
# Environment merging


def merge_pair(a: Env, b: Env) -> Env | None:
    """Union of two bindings if they agree on shared variables, else None."""
    for x, v in a.items():
        if x in b and b[x] != v:
            return None
    out = dict(a)
    out.update(b)
    return out


def _product(left: Iterable[Env], right: Iterable[Env]) -> Iterator[Env]:
    """The paper's merge of two environment sequences: ``merge_pair(a, b)``
    for each consistent pair, in left-to-right product order.  ``right`` is
    run once, as far as the first ``a`` needs it, and what it yields is kept
    for the next ``a``, so each operand is matched at most once."""
    kept: list[Env] = []
    source = right
    for a in left:
        for b in source:
            if source is right:
                kept.append(b)
            m = merge_pair(a, b)
            if m is not None:
                yield m
        source = kept


# ---------------------------------------------------------------------------
# Matching


def match(
    p: sx.Pattern,
    v: Value,
    store: Store,
    constructors: Mapping[str, tuple[str, tuple[Type, ...]]],
) -> Iterator[Env]:
    """The candidate environments for pattern ``p`` against value ``v``.

    The store is consulted for variables that already have values (those
    match by equality instead of binding); it is never modified.  Yielding
    nothing means no match; an empty environment means a match that binds
    nothing.
    """
    if isinstance(p, sx.LitPat):
        if v == Basic(p.value):
            yield {}
    elif isinstance(p, sx.VarPat):
        if p.name not in store:
            yield {p.name: v}
        elif store.get(p.name) == v:
            yield {}
    elif isinstance(p, sx.ConsPat):
        if isinstance(v, VCons) and v.name == p.name and len(v.args) == len(p.args):
            arg_envs = [match(q, a, store, constructors) for q, a in zip(p.args, v.args)]
            yield from functools.reduce(_product, arg_envs) if arg_envs else ({},)
    elif isinstance(p, sx.TypedPat):
        if has_type(v, p.type, constructors):
            yield from _product(({p.name: v},), match(p.pattern, v, store, constructors))
    elif isinstance(p, (sx.ListPat, sx.SetPat)):
        ordered = p.__class__ is sx.ListPat
        if isinstance(v, VList if ordered else VSet):
            yield from match_all(p.elements, v.items, store, ordered, constructors)
    elif isinstance(p, sx.NegPat):
        # A loop, not ``next``: ``next`` would re-enter the matcher from C,
        # and from 3.12 on CPython bounds that recursion apart from the
        # recursion limit, so deeply negated patterns would exhaust it.
        for _ in match(p.pattern, v, store, constructors):
            break
        else:
            yield {}
    elif isinstance(p, sx.DeepPat):
        yield from match(p.pattern, v, store, constructors)
        for c in children(v):
            yield from match(p, c, store, constructors)
    elif isinstance(p, sx.Star):
        raise ValueError("star pattern outside a collection pattern")
    else:
        raise TypeError(f"not a pattern: {p!r}")


def match_all(
    elements: tuple[sx.Pattern, ...],
    vals: ValueSeq,
    store: Store,
    ordered: bool,
    constructors: Mapping[str, tuple[str, tuple[Type, ...]]],
) -> Iterator[Env]:
    """Match a sequence of (star) patterns against the items of a list
    (``ordered``) or of a canonical set.

    The head pattern takes each of its splits of ``vals`` in turn, in the
    order the module docstring states, and the rest match the remainder.
    No two splits select the same items: list splits differ in length, and
    the elements of a canonical set are distinct.
    """
    if not elements:
        if not vals:
            yield {}
        return
    head, rest = elements[0], elements[1:]
    if isinstance(head, sx.Star):
        if head.name in store:
            remainder = _without_bound(vals, store.get(head.name), ordered)
            if remainder is not None:
                yield from match_all(rest, remainder, store, ordered, constructors)
            return
        build = VList if ordered else VSet
        for taken, remainder in _star_splits(vals, ordered):
            tails = match_all(rest, remainder, store, ordered, constructors)
            yield from _product(({head.name: build(taken)},), tails)
        return
    if ordered:
        picks: Iterable[tuple[Value, ValueSeq]] = ((vals[0], vals[1:]),) if vals else ()
    else:
        picks = ((x, vals[:i] + vals[i + 1 :]) for i, x in enumerate(vals))
    for x, remainder in picks:
        tails = match_all(rest, remainder, store, ordered, constructors)
        yield from _product(match(head, x, store, constructors), tails)


def _star_splits(vals: ValueSeq, ordered: bool) -> Iterator[tuple[ValueSeq, ValueSeq]]:
    """The (taken, remainder) splits of ``vals`` for a star with no value."""
    n = len(vals)
    if ordered:
        for i in range(n + 1):
            yield vals[:i], vals[i:]
        return
    # Of two index sets of one size, the lexicographically smaller holds the
    # least index where they differ, which its complement lacks; so taken
    # sets in reverse lexicographic order have their complements in
    # lexicographic order, and remainders go by increasing size.
    for r in range(n + 1):
        for left in itertools.combinations(range(n), r):
            taken = tuple(x for i, x in enumerate(vals) if i not in left)
            yield taken, tuple(vals[i] for i in left)


def _without_bound(vals: ValueSeq, bound: Value, ordered: bool) -> ValueSeq | None:
    """``vals`` less the items of a star's value from the store (for a
    list, as a prefix), or None when that value is not there to take."""
    if ordered:
        if isinstance(bound, VList) and vals[: len(bound.items)] == bound.items:
            return vals[len(bound.items) :]
        return None
    if isinstance(bound, VSet) and all(x in vals for x in bound.items):
        return tuple(x for x in vals if x not in bound.items)
    return None
