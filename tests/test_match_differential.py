"""The lazy matcher against the eager one it replaced.

``patterns.match`` must yield exactly what the eager list-of-successes
matcher returned: the same environments in the same order and
multiplicity, each with the same key order.  The eager matcher is kept
below verbatim, as the reference.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import pytest

from rascal_light import patterns
from rascal_light import syntax as sx
from rascal_light.harness import GenBudget, _ModuleGen, gen_match_pair
from rascal_light.types import Type, subtype, type_of
from rascal_light.values import (
    Basic,
    Env,
    Store,
    Value,
    VCons,
    VList,
    VSet,
    children,
)

# ---------------------------------------------------------------------------
# The eager reference matcher


ValueSeq = tuple[Value, ...]


@dataclass(frozen=True)
class MatchConfig:
    """How a collection kind splits and reassembles during matching."""

    construct: Callable[[ValueSeq], Value]
    partition_one: Callable[[ValueSeq], Iterator[tuple[Value, ValueSeq]]]
    partition_sub: Callable[[ValueSeq], Iterator[tuple[ValueSeq, ValueSeq]]]
    # Splits of source into (selected, remainder) where selected is fixed;
    # None when no valid split exists.
    split_known: Callable[[ValueSeq, Value], ValueSeq | None]


def _list_partition_one(vals: ValueSeq) -> Iterator[tuple[Value, ValueSeq]]:
    # A single element composed with a remainder reassembles the list only
    # when it is the head.
    if vals:
        yield vals[0], vals[1:]


def _list_partition_sub(vals: ValueSeq) -> Iterator[tuple[ValueSeq, ValueSeq]]:
    # Prefix splits, by increasing prefix length.
    for i in range(len(vals) + 1):
        yield vals[:i], vals[i:]


def _list_split_known(vals: ValueSeq, bound: Value) -> ValueSeq | None:
    if not isinstance(bound, VList):
        return None
    k = len(bound.items)
    if vals[:k] == bound.items:
        return vals[k:]
    return None


def _set_partition_one(vals: ValueSeq) -> Iterator[tuple[Value, ValueSeq]]:
    # Single picks in canonical element order.
    for i, v in enumerate(vals):
        yield v, vals[:i] + vals[i + 1 :]


def _set_partition_sub(vals: ValueSeq) -> Iterator[tuple[ValueSeq, ValueSeq]]:
    # Subset/complement splits.  Subsets are enumerated largest-first:
    # descending size, and in reverse canonical-lexicographic order within
    # one size.  First-match constructs that scan these splits therefore
    # prefer the largest candidate subcollection.
    n = len(vals)
    indexed = list(enumerate(vals))
    subsets: list[tuple[ValueSeq, ValueSeq]] = []
    for k in range(n + 1):
        for picked in itertools.combinations(indexed, k):
            chosen = {i for i, _ in picked}
            sub = tuple(v for i, v in indexed if i in chosen)
            rest = tuple(v for i, v in indexed if i not in chosen)
            subsets.append((sub, rest))
    return iter(reversed(subsets))


def _set_split_known(vals: ValueSeq, bound: Value) -> ValueSeq | None:
    if not isinstance(bound, VSet):
        return None
    remaining = list(vals)
    for x in bound.items:
        for i, y in enumerate(remaining):
            if x == y:
                del remaining[i]
                break
        else:
            return None
    return tuple(remaining)


LIST_CONFIG = MatchConfig(
    construct=lambda vs: VList(vs),
    partition_one=_list_partition_one,
    partition_sub=_list_partition_sub,
    split_known=_list_split_known,
)

SET_CONFIG = MatchConfig(
    construct=lambda vs: VSet(vs),
    partition_one=_set_partition_one,
    partition_sub=_set_partition_sub,
    split_known=_set_split_known,
)


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


def merge2(left: list[Env], right: list[Env]) -> list[Env]:
    out: list[Env] = []
    for a in left:
        for b in right:
            m = merge_pair(a, b)
            if m is not None:
                out.append(m)
    return out


def merge(*env_seqs: Iterable[Env]) -> list[Env]:
    """Merge environment sequences into all consistent combinations.

    The empty merge yields a single empty environment; combination order is
    the left-to-right product order.
    """
    out: list[Env] = [{}]
    for seq in reversed(env_seqs):
        out = merge2(list(seq), out)
    return out


# ---------------------------------------------------------------------------
# Matching


def match(
    p: sx.Pattern,
    v: Value,
    store: Store,
    constructors: Mapping[str, tuple[str, tuple[Type, ...]]],
) -> list[Env]:
    """All candidate environments for pattern ``p`` against value ``v``.

    The store is consulted for variables that already have values (those
    match by equality instead of binding); it is never modified.  An empty
    result means no match; an empty environment means a match that binds
    nothing.
    """
    if isinstance(p, sx.LitPat):
        return [{}] if v == Basic(p.value) else []
    if isinstance(p, sx.VarPat):
        if p.name in store:
            return [{}] if store.get(p.name) == v else []
        return [{p.name: v}]
    if isinstance(p, sx.ConsPat):
        if not (isinstance(v, VCons) and v.name == p.name and len(v.args) == len(p.args)):
            return []
        arg_envs = [match(q, a, store, constructors) for q, a in zip(p.args, v.args)]
        return merge(*arg_envs)
    if isinstance(p, sx.TypedPat):
        vt = type_of(v, constructors)
        if not subtype(vt, p.type):
            return []
        inner = match(p.pattern, v, store, constructors)
        return merge([{p.name: v}], inner)
    if isinstance(p, sx.ListPat):
        if not isinstance(v, VList):
            return []
        return match_all(p.elements, v.items, store, LIST_CONFIG, constructors)
    if isinstance(p, sx.SetPat):
        if not isinstance(v, VSet):
            return []
        return match_all(p.elements, v.items, store, SET_CONFIG, constructors)
    if isinstance(p, sx.NegPat):
        inner = match(p.pattern, v, store, constructors)
        return [{}] if not inner else []
    if isinstance(p, sx.DeepPat):
        out = match(p.pattern, v, store, constructors)
        for c in children(v):
            out = out + match(p, c, store, constructors)
        return out
    if isinstance(p, sx.Star):
        raise ValueError("star pattern outside a collection pattern")
    raise TypeError(f"not a pattern: {p!r}")


def match_all(
    elements: tuple[sx.Pattern, ...],
    vals: ValueSeq,
    store: Store,
    cfg: MatchConfig,
    constructors: Mapping[str, tuple[str, tuple[Type, ...]]],
) -> list[Env]:
    """Match a sequence of (star) patterns against a value sequence.

    Results are concatenated over all partitions of ``vals`` for the head
    pattern, in the enumeration order of ``cfg``.  No partition repeats a
    selection: list splits differ in length, and the elements of a
    canonical set are distinct.
    """
    if not elements:
        return [{}] if not vals else []
    head, rest = elements[0], elements[1:]

    if isinstance(head, sx.Star):
        x = head.name
        if x in store:
            bound = store.get(x)
            remainder = cfg.split_known(vals, bound)
            if remainder is None:
                return []
            return match_all(rest, remainder, store, cfg, constructors)
        out: list[Env] = []
        for sub, remainder in cfg.partition_sub(vals):
            tail_envs = match_all(rest, remainder, store, cfg, constructors)
            out.extend(merge2([{x: cfg.construct(sub)}], tail_envs))
        return out

    out = []
    for v1, remainder in cfg.partition_one(vals):
        head_envs = match(head, v1, store, constructors)
        tail_envs = match_all(rest, remainder, store, cfg, constructors)
        out.extend(merge2(head_envs, tail_envs))
    return out


# ---------------------------------------------------------------------------
# Differential checks


def _same(p, v, store, constructors):
    lazy = list(patterns.match(p, v, store, constructors))
    eager = match(p, v, store, constructors)
    assert lazy == eager, (p, v, store)
    assert [list(env) for env in lazy] == [list(env) for env in eager], (p, v, store)


def test_lazy_equals_eager_on_generated_pairs():
    pairs = 0
    for seed in range(400):
        rng = random.Random(seed)
        gen = _ModuleGen(rng, GenBudget(seed=seed), finite=False)
        gen.build_datatypes()
        for _ in range(50):
            _same(*gen_match_pair(rng, gen), gen.constructors)
            pairs += 1
    assert pairs == 20_000


xs, ys, x = sx.Star("xs"), sx.Star("ys"), sx.VarPat("x")


@pytest.mark.parametrize(
    "pat",
    [
        sx.ListPat((xs, x, ys)),
        sx.ListPat((xs, xs)),
        sx.SetPat((xs, ys)),
        sx.SetPat((xs, x, ys)),
        sx.SetPat((x, xs, x)),
    ],
    ids=["[*xs,x,*ys]", "[*xs,*xs]", "{*xs,*ys}", "{*xs,x,*ys}", "{x,*xs,x}"],
)
def test_lazy_equals_eager_on_every_star_split(pat):
    # Every split for n <= 7, with the stars unbound and then bound to
    # a value that is there (the first half) or not (the last element
    # twice for a list, an absent element for a set).
    kind = VList if isinstance(pat, sx.ListPat) else VSet
    for n in range(8):
        items = tuple(Basic(i) for i in range(n))
        stores = [
            Store(),
            Store({"xs": kind(items[: n // 2])}),
            Store({"xs": kind(items[-1:] * 2 if kind is VList else (Basic(n),))}),
            Store({"x": Basic(n // 2)}),
        ]
        for store in stores:
            _same(pat, kind(items), store, {})
