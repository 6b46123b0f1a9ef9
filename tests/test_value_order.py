"""The sort key ``value_key`` against the comparator it replaced.

``OLD_ORDER`` is the earlier definition of the total value order, verbatim:
a recursive comparator and the adapters that turned it back into sort keys.
It is executed over the names of ``rascal_light.values`` (``old_order``), or
over a copy with other value classes (``tests/test_value_classes.py``).
The key must agree with it in sign and in equality on every ordered pair of
a corpus of generated and edge-case values.
"""

import random

from rascal_light import values
from rascal_light.harness import GenBudget, _ModuleGen, gen_any_value
from rascal_light.values import UNDEF, Basic, VCons, VList, VMap, VSet, value_key, value_order

OLD_ORDER = '''
from bisect import bisect_left
from functools import cmp_to_key

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


def _pair_key(kv: tuple[Value, Value]):
    return VALUE_KEY(kv[0])


def _bisect(seq: tuple, v: Value, key, lo: int = 0) -> int:
    """Where ``v`` is, or would go, in ``seq[lo:]``, which is sorted under
    ``key`` (``VALUE_KEY`` for set items, ``_pair_key`` for map entries)."""
    return bisect_left(seq, VALUE_KEY(v), lo, key=key)
'''


def old_order(namespace=None):
    """The names ``OLD_ORDER`` defines, executed over ``namespace`` (by
    default the names of ``rascal_light.values``)."""
    ns = dict(vars(values) if namespace is None else namespace)
    exec(compile(OLD_ORDER, "<old value order>", "exec"), ns)
    return ns


def b(x):
    return Basic(x)


def edge_values():
    big = 7**6000  # past the host's 4300-digit limit on int-string conversion
    leaves = [b(0), b(-1), b(-(10**30)), b(big), b(-big), b(big + 1),
              b(""), b("a"), b("é"), b("日本"), b("á"), b("\U0001f600")]
    return leaves + [
        UNDEF,
        VList(()), VSet(()), VMap(()),
        VList((b(1), b(2))), VList((b(1),)), VList((b(1), b(2), b(3))),
        VSet((b(1), b(2))), VSet((b(1),)),
        VMap(((b(1), b(2)),)), VMap(((b(1), b(3)),)),
        VMap(((b(1), b(2)), (b(3), b(4)))), VMap(((b(1), b(2)), (b(3), b(5)))),
        VMap(((b(1), b(2)), (b(4), b(4)))),
        VCons("k", ()), VCons("l", ()), VCons("k", (b(1),)), VCons("l", (b(1),)),
        VCons("k", (b(1), b(2))), VCons("k", (b(2),)), VCons("", ()),
        VList((UNDEF,)), VSet((UNDEF, b(""))), VMap(((UNDEF, VList(())),)),
        VList((VMap(((b("x"), b(1)),)), VSet((VCons("k", ()),)))),
    ]


def corpus(seeds=range(75), per_seed=30):
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        gen = _ModuleGen(rng, GenBudget(seed=seed), finite=False)
        gen.build_datatypes()
        out += [gen_any_value(rng, gen.cons_by_type, 2) for _ in range(per_seed)]
    out += edge_values()
    # Random draws are rarely equal: add an equal copy, built afresh (a set
    # from its items reversed, a map from its entries reversed), of some.
    return out + [_rebuilt(v) for v in out[::7]]


def _rebuilt(v):
    if isinstance(v, Basic):
        return Basic(v.val)
    if isinstance(v, VCons):
        return VCons(v.name, tuple(map(_rebuilt, v.args)))
    if isinstance(v, VList):
        return VList(tuple(map(_rebuilt, v.items)))
    if isinstance(v, VSet):
        return VSet(tuple(map(_rebuilt, reversed(v.items))))
    if isinstance(v, VMap):
        return VMap(tuple((_rebuilt(k), _rebuilt(x)) for k, x in reversed(v.pairs)))
    return UNDEF


def test_key_agrees_with_the_old_comparator_on_all_pairs():
    vs = corpus()
    assert len(vs) >= 2500
    old = old_order()["value_order"]
    keys = [value_key(v) for v in vs]
    equal = 0
    for i, (a, ka) in enumerate(zip(vs, keys)):
        want = [old(a, x) for x in vs]
        assert [(ka > k) - (ka < k) for k in keys] == want, i
        equal += want.count(0)
    assert equal > 2 * len(vs)  # equal pairs beyond each value with itself
    # Equal keys exactly for equal values: both split the corpus alike.
    by_key, by_value = {}, {}
    for i, (v, k) in enumerate(zip(vs, keys)):
        by_key.setdefault(k, []).append(i)
        by_value.setdefault(v, []).append(i)
    assert sorted(by_key.values()) == sorted(by_value.values())


def test_value_order_is_the_order_of_the_keys():
    old = old_order()["value_order"]
    vs = edge_values()
    for a in vs:
        for x in vs:
            assert value_order(a, x) == old(a, x)


def test_canonicalisation_and_search_match_the_old_order():
    ns = old_order()
    vs = corpus(seeds=range(8))
    ordered = sorted(vs, key=ns["VALUE_KEY"])
    assert values.canonical_items(vs) == tuple(
        v for i, v in enumerate(ordered) if i == 0 or ns["value_order"](ordered[i - 1], v)
    )
    s = VSet(tuple(vs))
    m = VMap(tuple((v, b(i)) for i, v in enumerate(vs)))
    for v in vs + [b(10**6), VCons("zz", ())]:
        i = ns["_bisect"](s.items, v, ns["VALUE_KEY"])
        assert s.contains(v) == (i < len(s.items) and s.items[i] == v)
        j = ns["_bisect"](m.pairs, v, ns["_pair_key"])
        found = m.pairs[j][1] if j < len(m.pairs) and m.pairs[j][0] == v else None
        assert m.lookup(v) == found
