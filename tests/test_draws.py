"""The generator's draws against the standard library's.

``harness`` draws through its own helpers: ``_randint`` and ``_choice``
read the random stream as ``Random.randint`` and ``Random.choice`` read it
(CPython's ``_randbelow_with_getrandbits``: ``k = n.bit_length()``, drawn
again while ``r >= n``), and ``_weighted`` reads it as
``Random.choices(population, weights=...)`` does.  The tests below run each
helper and its standard-library counterpart on twin ``random.Random``
objects and compare the draws and the final states.

``suite_stream_digests.json`` pins the cases the suites draw: the rendered
module, the function and the sorted store of ``_draw_case`` for seeds
0-199 of each subset, and every triple ``suite_purity``'s loop draws at
one seed, with the datatypes it draws them over.  It was recorded before
the helpers replaced the standard library's draws, so a cheaper draw must
reproduce it exactly.

This file does not need pytest, so other Pythons can run it:
``PYTHONPATH=src python tests/test_draws.py`` runs every test here, and
``--record`` records ``suite_stream_digests.json`` afresh.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from rascal_light import harness
from rascal_light import syntax as sx
from rascal_light.render import render

SUITE_STREAM_DIGESTS = os.path.join(os.path.dirname(__file__), "suite_stream_digests.json")
PURITY_SEED = 1
PURITY_CASES = 200
SEEDS = (0, 1, 7, 2024)
# Range and sequence sizes: 1 to 70 holds every 2^k and 2^k +- 1 up to 65,
# where the number of bits drawn changes.
SIZES = range(1, 71)


def _twins(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


def _raised(fn, *args):
    """The class of the exception ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc)
    return None


def test_randint_draws_what_random_randint_draws():
    for seed in SEEDS:
        ours, theirs = _twins(seed)
        for n in SIZES:
            for a in (-3, 0, 1):
                b = a + n - 1
                assert [harness._randint(ours, a, b) for _ in range(12)] == [
                    theirs.randint(a, b) for _ in range(12)
                ]
        # _draw_case's generator seed, which it once drew by randrange.
        assert [harness._randint(ours, 0, (1 << 30) - 1) for _ in range(50)] == [
            theirs.randrange(1 << 30) for _ in range(50)
        ]
        assert ours.getstate() == theirs.getstate()


def test_choice_draws_what_random_choice_draws():
    for seed in SEEDS:
        ours, theirs = _twins(seed)
        for n in SIZES:
            for seq in (tuple(range(n)), [str(i) for i in range(n)]):
                assert [harness._choice(ours, seq) for _ in range(12)] == [
                    theirs.choice(seq) for _ in range(12)
                ]
        assert ours.getstate() == theirs.getstate()


def test_the_form_draw_is_what_random_choices_draws():
    for finite in (False, True):
        pairs = [(f, w) for f, w in harness._FORMS if not (finite and f in harness._FINITE_EXCLUDED)]
        names, weights = [f for f, _ in pairs], [w for _, w in pairs]
        table = harness._FORM_DRAWS[finite]
        assert list(table[0]) == names
        assert finite == ("while" not in names)
        for seed in SEEDS:
            ours, theirs = _twins(seed)
            assert [harness._weighted(ours, table) for _ in range(2000)] == [
                theirs.choices(names, weights=weights)[0] for _ in range(2000)
            ]
            assert ours.getstate() == theirs.getstate()


def test_empty_draws_raise_as_the_standard_library_does():
    ours, theirs = _twins(0)
    state = ours.getstate()
    for a, b in ((0, -1), (5, 4), (5, 3)):
        assert _raised(harness._randint, ours, a, b) is _raised(theirs.randint, a, b) is ValueError
    for seq in ((), [], ""):
        assert _raised(harness._choice, ours, seq) is _raised(theirs.choice, seq) is IndexError
    # Nothing was drawn.
    assert ours.getstate() == theirs.getstate() == state


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _case_text(case: harness.Case) -> str:
    return f"{render(case.module)}\n{case.function}\n{sorted(case.store.items())!r}"


def _purity_draws(seed: int, cases: int) -> tuple[list, list]:
    """The generators and the triples ``suite_purity(cases, seed)`` draws,
    in order."""
    gens, triples = [], []
    draw = harness.gen_cases_triple

    def recording(rng, gen):
        triple = draw(rng, gen)
        gens.append(gen)
        triples.append(triple)
        return triple

    harness.gen_cases_triple = recording
    try:
        harness.suite_purity(cases, seed)
    finally:
        harness.gen_cases_triple = draw
    return gens, triples


def suite_stream_digests() -> dict:
    """sha256 digests of the cases the suites draw (see the module's
    docstring)."""
    cases = {
        subset: [_sha(_case_text(harness._draw_case(random.Random(s), subset))) for s in range(200)]
        for subset in ("all", "finite")
    }
    gens, triples = _purity_draws(PURITY_SEED, PURITY_CASES)
    (gen,) = set(gens)
    rendered = [render(sx.ModuleDef(datatypes=tuple(gen.datatypes)))]
    rendered += [
        render(sx.Switch(harness.value_to_expr(v), cs)) + f" {sorted(store.items())!r}"
        for cs, v, store in triples
    ]
    return {
        "cases": cases,
        "purity": {
            "seed": PURITY_SEED,
            "cases": PURITY_CASES,
            "draws": len(triples),
            "digest": _sha("\n".join(rendered)),
        },
    }


def test_suites_draw_the_recorded_cases():
    with open(SUITE_STREAM_DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert suite_stream_digests() == recorded


if __name__ == "__main__":
    sys.setrecursionlimit(12_000)
    if sys.argv[1:] == ["--record"]:
        with open(SUITE_STREAM_DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(suite_stream_digests(), fh, indent=1)
            fh.write("\n")
    else:
        for name, test in list(globals().items()):
            if name.startswith("test_"):
                test()
                print("passed", name)
