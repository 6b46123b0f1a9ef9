import itertools
import sys

from hypothesis import given, strategies as st

from rascal_light.values import (
    Basic,
    Store,
    UNDEF,
    VCons,
    VList,
    VMap,
    VSet,
    canonical_items,
    canonical_pairs,
    canonical_set,
    children,
    last,
    map_update,
    render_value,
    set_union,
    value_order,
)
from rascal_light.interp import apply_binary
from rascal_light.parser import parse_value
from test_value_order import old_order


def b(x):
    return Basic(x)


TRUE = VCons("true", ())
FALSE = VCons("false", ())

# A fixed 20-value corpus covering every kind and some nesting.
CORPUS = [
    b(0), b(1), b(-2), b("a"), b(""),
    TRUE, FALSE, VCons("pair", (b(1), b(2))), VCons("pair", (b(1), b(3))),
    VList(()), VList((b(1),)), VList((b(1), b(2))),
    VSet(()), VSet((b(1),)), VSet((b(2), b(1))),
    VMap(()), VMap(((b(1), b(2)),)), VMap(((b(1), b(2)), (b(3), b(4)))),
    UNDEF, VList((VSet((b(1),)), UNDEF)),
]


def test_order_examples():
    assert value_order(b(1), b(2)) < 0
    assert value_order(TRUE, TRUE) == 0
    assert value_order(VList((b(1),)), VSet((b(1),))) < 0  # list kind before set kind


def test_order_total_antisymmetric_transitive():
    # Exhaustive pairwise check over the corpus.
    for x, y in itertools.product(CORPUS, repeat=2):
        cxy, cyx = value_order(x, y), value_order(y, x)
        assert cxy in (-1, 0, 1)
        assert cxy == -cyx
        assert (cxy == 0) == (x == y)
    for x, y, z in itertools.product(CORPUS, repeat=3):
        if value_order(x, y) <= 0 and value_order(y, z) <= 0:
            assert value_order(x, z) <= 0


def test_canonical_set():
    assert canonical_set([b(1), b(2), b(1)]) == VSet((b(1), b(2)))
    assert canonical_set([]) == VSet(())
    assert canonical_set([b(3), b(1), b(2)]).items == (b(1), b(2), b(3))
    # Idempotent.
    s = canonical_set([b(2), b(1), b(2)])
    assert canonical_set(s.items) == s


def test_set_and_map_canonicalize_at_construction():
    assert VSet((b(2), b(1), b(2))).items == (b(1), b(2))
    assert VMap(((b(3), b(0)), (b(1), b(2)), (b(3), b(9)))).pairs == (
        (b(1), b(2)),
        (b(3), b(9)),
    )


def _value_key_calls(build):
    """How many times ``value_key`` is called during ``build()``."""
    from rascal_light import values

    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is values.value_key.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
    return calls


def _singleton_set_nest(depth):
    v = VSet(())
    for _ in range(depth):
        v = VSet((v,))
    return v


def _singleton_map_nest(depth):
    # Nested through the keys: each level is the one key of the next.
    v = VMap(((b(1), b(1)),))
    for _ in range(depth):
        v = VMap(((v, b(1)),))
    return v


def test_singleton_nests_build_in_linear_key_work():
    # A key walks its whole value, so keying each level of a nest would
    # make building it cost the square of its depth.
    for nest in (_singleton_set_nest, _singleton_map_nest):
        counts = [_value_key_calls(lambda: nest(depth)) for depth in (1000, 2000)]
        assert counts[0] <= 1000 and counts[1] <= 2 * counts[0] + 2, (nest, counts)
    text = "{" * 2000 + "}" * 2000
    assert _value_key_calls(lambda: parse_value(text)) <= 2000
    # Walked by a loop: deep equality recurses through C, which CPython
    # bounds apart from the recursion limit from 3.12 on.
    v, depth = parse_value(text), 0
    while v.items:
        v, depth = v.items[0], depth + 1
    assert depth == 1999


def test_map_update():
    assert map_update(VMap(((b(1), b(2)),)), b(1), b(3)) == VMap(((b(1), b(3)),))
    assert map_update(VMap(()), b(1), b(2)) == VMap(((b(1), b(2)),))
    assert map_update(VMap(((b(1), b(2)), (b(5), b(6)))), b(3), b(4)).pairs == (
        (b(1), b(2)),
        (b(3), b(4)),
        (b(5), b(6)),
    )
    # Updating the same key twice keeps the last value.
    m = map_update(map_update(VMap(()), b(1), b(2)), b(1), b(7))
    assert m == VMap(((b(1), b(7)),))


def test_last():
    assert last([b(1), b(2), b(3)]) == b(3)
    assert last([]) == UNDEF
    assert last([UNDEF]) == UNDEF


def test_children():
    plus = VCons("plus", (VCons("intlit", (b(0),)), VCons("intlit", (b(1),))))
    assert children(plus) == plus.args
    assert children(b(42)) == ()
    assert children(UNDEF) == ()
    assert children(VList((b(1), b(2)))) == (b(1), b(2))
    # Map children: all keys first, then all values.
    m = VMap(((b(1), b(2)), (b(3), b(4))))
    assert children(m) == (b(1), b(3), b(2), b(4))


values_strategy = st.recursive(
    st.one_of(
        st.integers(-5, 9).map(Basic),
        st.sampled_from(["", "a", "b"]).map(Basic),
        st.just(UNDEF),
        st.just(TRUE),
        st.just(FALSE),
    ),
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=3).map(lambda xs: VList(tuple(xs))),
        st.lists(leaf, max_size=3).map(lambda xs: VSet(tuple(xs))),
        st.lists(st.tuples(leaf, leaf), max_size=2).map(lambda ps: VMap(tuple(ps))),
        st.lists(leaf, min_size=2, max_size=2).map(
            lambda xs: VCons("pair", tuple(xs))
        ),
    ),
    max_leaves=12,
)


@given(values_strategy, values_strategy)
def test_order_consistent_with_equality(x, y):
    assert (value_order(x, y) == 0) == (x == y)


@given(values_strategy, values_strategy, values_strategy)
def test_order_transitive_randomized(x, y, z):
    if value_order(x, y) <= 0 and value_order(y, z) <= 0:
        assert value_order(x, z) <= 0


@given(st.lists(st.tuples(values_strategy, values_strategy), max_size=5))
def test_map_keys_always_distinct_and_sorted(pairs):
    m = VMap(tuple(pairs))
    keys = [k for k, _ in m.pairs]
    for a, b_ in zip(keys, keys[1:]):
        assert value_order(a, b_) < 0


@given(values_strategy)
def test_children_strictly_smaller(v):
    def size(x):
        return 1 + sum(size(c) for c in children(x))

    for c in children(v):
        assert size(c) < size(v)


def test_store_functional_updates():
    s = Store({"x": b(1)})
    s2 = s.updated("y", b(2))
    assert "y" not in s and s2.get("y") == b(2)
    s3 = s2.without(["y"])
    assert s3 == s
    s4 = s2.extended({"z": b(3)})
    assert s4.get("z") == b(3) and s2 != s4
    assert s.changed(s2) == ("y",)


def test_render_value_text():
    assert render_value(UNDEF) == "<undefined>"
    assert render_value(VSet((b(2), b(1)))) == "{1, 2}"
    assert render_value(VMap(((b(1), b(2)),))) == "(1 : 2)"
    assert render_value(b('a"b\n')) == '"a\\"b\\n"'


# ---------------------------------------------------------------------------
# Sorted maps and sets against the quadratic and linear versions


_OLD_KEY = old_order()["VALUE_KEY"]  # cmp_to_key over the old comparator


def _seed_canonical_pairs(pairs):
    """Canonical map entries as first built: a quadratic last-wins dedupe,
    then a key sort under the comparator that first defined the order."""
    by_key = []
    for k, v in pairs:
        for i, (k0, _) in enumerate(by_key):
            if k0 == k:
                by_key[i] = (k, v)
                break
        else:
            by_key.append((k, v))
    return tuple(sorted(by_key, key=lambda kv: _OLD_KEY(kv[0])))


def _scan_lookup(pairs, key):
    for k, v in pairs:
        if k == key:
            return v
    return None


# Keys drawn from a small pool, so that duplicates are common.
keys_strategy = st.one_of(st.integers(0, 4).map(Basic), values_strategy)
pairs_strategy = st.lists(st.tuples(keys_strategy, values_strategy), max_size=8)


@given(pairs_strategy)
def test_canonical_pairs_matches_quadratic_dedupe(pairs):
    assert canonical_pairs(pairs) == _seed_canonical_pairs(pairs)
    assert VMap(tuple(pairs)).pairs == _seed_canonical_pairs(pairs)


@given(pairs_strategy, keys_strategy, values_strategy)
def test_lookup_update_and_in_match_linear_scans(pairs, key, val):
    m = VMap(tuple(pairs))
    want = _scan_lookup(m.pairs, key)
    assert m.lookup(key) == want
    assert (apply_binary("in", key, m).value == TRUE) == (want is not None)
    for k, v in m.pairs:
        assert m.lookup(k) is v
    out = map_update(m, key, val)
    assert out.pairs == _seed_canonical_pairs(m.pairs + ((key, val),))
    assert out == VMap(m.pairs + ((key, val),))
    assert out.lookup(key) is val


@given(st.lists(keys_strategy, max_size=8), keys_strategy)
def test_set_in_matches_linear_scan(items, x):
    s = VSet(tuple(items))
    want = any(x == y for y in s.items)
    assert s.contains(x) == want
    assert (apply_binary("in", x, s).value == TRUE) == want
    assert all(s.contains(y) for y in items)


@given(st.lists(keys_strategy, max_size=8), st.lists(keys_strategy, max_size=8))
def test_set_union_matches_sort_and_dedupe(xs, ys):
    s1, s2 = VSet(tuple(xs)), VSet(tuple(ys))
    want = canonical_items(s1.items + s2.items)
    out = set_union(s1, s2)
    assert out.items == want
    # Of two equal items the left operand's is kept, as the stable sort keeps it.
    assert all(a is w for a, w in zip(out.items, want))
    assert out == VSet(s1.items + s2.items)
    assert apply_binary("+", s1, s2).value.items == want
