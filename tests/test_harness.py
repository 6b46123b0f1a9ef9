import hashlib
import json
import os
import random
import re
import sys

import pytest

from rascal_light import interp
from rascal_light import syntax as sx
from rascal_light.cli import main
from rascal_light.interp import Evaluator
from rascal_light.harness import (
    Case,
    GenBudget,
    _ModuleGen,
    _case_artifact,
    _draw_case,
    _shrink,
    artifact_case,
    check_progress,
    check_purity,
    check_termination,
    check_typing,
    env_set,
    gen_any_value,
    gen_cases_triple,
    gen_match_pair,
    gen_program,
    literal_value,
    oracle_match,
    run_suite,
    shrink_module,
    suite_progress,
    suite_purity,
    suite_termination,
    suite_typing,
    value_to_expr,
)
from rascal_light.parser import parse_expr, parse_module
from rascal_light.patterns import match
from rascal_light.render import render
from rascal_light.syntax import constructor_table, is_finite_subset, validate_module, walk_exprs
from rascal_light.values import FAIL, UNDEF, Basic, Fail, Store, Throw, TimeoutSignal, VCons, VList, VMap, VSet

CONS = constructor_table(parse_module("data P = pair(int a, int b);"))
GENERATOR_DIGESTS = os.path.join(os.path.dirname(__file__), "generator_digests.json")


def b(x):
    return Basic(x)


def test_gen_program_contracts():
    for seed in range(60):
        m = gen_program(GenBudget(seed=seed), "all")
        assert validate_module(m) == []
        f = gen_program(GenBudget(seed=seed), "finite")
        assert validate_module(f) == []
        assert all(is_finite_subset(fn.body) for fn in f.functions)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def generator_digests() -> dict:
    """sha256 digests of what the generators draw: the rendered module of
    each seed in 0-199 for both subsets, and all rendered draws of
    ``gen_cases_triple`` and then ``gen_match_pair`` from one seeded
    generator (they share its name counter)."""
    programs = {
        subset: [_sha(render(gen_program(GenBudget(max_depth=4, seed=s), subset))) for s in range(200)]
        for subset in ("all", "finite")
    }
    rng = random.Random(7)
    gen = _ModuleGen(rng, GenBudget(seed=7), finite=False)
    gen.build_datatypes()
    triples, pairs = [], []
    for _ in range(500):
        cases, v, store = gen_cases_triple(rng, gen)
        triples.append(render(sx.Switch(value_to_expr(v), cases)) + f" {sorted(store.items())!r}")
    for _ in range(500):
        pat, v, store = gen_match_pair(rng, gen)
        pairs.append(f"{render(pat)} {render(v)} {sorted(store.items())!r}")
    return {
        "programs": programs,
        "cases_triples": _sha("\n".join(triples)),
        "match_pairs": _sha("\n".join(pairs)),
    }


def test_generator_streams_match_the_recorded_digests():
    # Refactoring the generator must not change what it draws: the suites'
    # seeds, the dispatch digests and the bench workloads depend on it.
    with open(GENERATOR_DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert generator_digests() == recorded


def test_oracle_star_counts():
    envs = oracle_match(
        sx.SetPat((sx.Star("xs"), sx.Star("ys"))), VSet((b(1), b(2))), Store(), CONS
    )
    assert len(envs) == 4
    envs = oracle_match(
        sx.ListPat((sx.Star("xs"), sx.Star("ys"))), VList((b(1), b(2))), Store(), CONS
    )
    assert len(envs) == 3


def test_oracle_nonlinear_inconsistent():
    pat = sx.ConsPat("pair", (sx.VarPat("x"), sx.VarPat("x")))
    assert oracle_match(pat, VCons("pair", (b(1), b(2))), Store(), CONS) == set()
    assert oracle_match(pat, VCons("pair", (b(1), b(1))), Store(), CONS) == {
        frozenset({("x", b(1))})
    }


def test_oracle_agrees_with_match_on_spot_corpus():
    from rascal_light.types import type_of

    rng = random.Random(11)
    gen = _ModuleGen(rng, GenBudget(seed=11), finite=False)
    gen.build_datatypes()
    checked = 0
    for _ in range(400):
        pat, v, store = gen_match_pair(rng, gen)
        expected = oracle_match(pat, v, store, gen.constructors)
        envs = list(match(pat, v, store, gen.constructors))
        assert env_set(envs) == expected, (pat, v)
        # Every value a match binds is itself typeable.
        for env in envs:
            for bound in env.values():
                type_of(bound, gen.constructors)
        checked += 1
    assert checked == 400


def test_match_duplicates_are_kept_but_sets_agree():
    # The rule-level matcher may return duplicate environments (they drive
    # backtracking counts); as sets they agree with the oracle.
    pat = sx.DeepPat(sx.VarPat("x"))
    v = VList((b(1), b(1)))
    envs = list(match(pat, v, Store(), CONS))
    assert len(envs) == 3  # the list, then each equal element
    assert env_set(envs) == oracle_match(pat, v, Store(), CONS)


def test_gen_cases_triple_runs():
    rng = random.Random(5)
    gen = _ModuleGen(rng, GenBudget(seed=5), finite=False)
    gen.build_datatypes()
    fails = 0
    for _ in range(100):
        cases, v, store = gen_cases_triple(rng, gen)
        assert isinstance(cases, tuple) and cases
        fails += 1
    assert fails == 100


def test_shrink_preserves_failing_property():
    def has_while(mod):
        return any(
            isinstance(e, sx.While) for f in mod.functions for e in walk_exprs(f.body)
        )

    m = None
    for seed in range(2000):
        cand = gen_program(GenBudget(max_depth=5, seed=seed))
        if has_while(cand):
            m = cand
            break
    assert m is not None
    small = shrink_module(m, has_while)
    assert validate_module(small) == []
    assert has_while(small)
    size = lambda mod: sum(1 for f in mod.functions for _ in walk_exprs(f.body))
    assert size(small) <= size(m)


def test_suites_small_scale():
    for fn, n in (
        (suite_purity, 120),
        (suite_typing, 120),
        (suite_progress, 120),
        (suite_termination, 40),
    ):
        rep = fn(n, seed=1)
        assert rep.ok, rep.format()
        assert rep.total == n


def test_run_suite_does_not_depend_on_the_callers_recursion_limit():
    # Case 195 of this run is deep enough to overflow Python's default
    # limit of 1000 frames when the suite runs on the calling thread.
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        rep = run_suite("typing", cases=400, seed=1)
    finally:
        sys.setrecursionlimit(limit)
    assert rep.ok, rep.format()
    assert rep.total == 400


def test_run_suite_takes_its_default_only_for_none(monkeypatch):
    from rascal_light import harness

    seen = []
    monkeypatch.setitem(harness._SUITES, "typing", (lambda cases, *_: seen.append(cases), 77))
    run_suite("typing")
    run_suite("typing", cases=1)
    for few in (0, -3):
        with pytest.raises(ValueError, match="at least 1 case"):
            run_suite("typing", cases=few)
    assert seen == [77, 1]


def test_generator_covers_every_expression_form():
    # If the generator stops producing a form, the metatheorem suites lose
    # their teeth; require every expression variant over a seed sweep.
    seen = set()
    for seed in range(400):
        m = gen_program(GenBudget(max_depth=4, seed=seed))
        for f in m.functions:
            for e in walk_exprs(f.body):
                seen.add(type(e).__name__)
    expected = {
        "Lit", "Var", "Unary", "Binary", "Cons", "ListExpr", "SetExpr",
        "MapExpr", "Lookup", "Update", "Call", "ReturnExpr", "Assign", "If",
        "Switch", "Visit", "BreakExpr", "ContinueExpr", "FailExpr", "Block",
        "For", "While", "Solve", "ThrowExpr", "TryCatch", "TryFinally",
    }
    assert expected <= seen, expected - seen


def test_suite_rule_coverage():
    # One bounded trace over many generated programs should visit a broad
    # slice of the rule inventory, including exception propagation rules.
    from rascal_light.fuel import eval_expr_fuel
    from rascal_light.interp import Evaluator

    fired = set()
    rng = random.Random(64)
    for _ in range(600):
        m = gen_program(GenBudget(max_depth=4, seed=rng.randrange(1 << 30)))
        ev = Evaluator(m, trace=lambda t: fired.add(t.rule))
        from rascal_light.harness import gen_store

        fd = m.functions[rng.randrange(len(m.functions))]
        store = gen_store(rng, m, fd.params)
        eval_expr_fuel(ev, fd.body, store, 3000)
    must_fire = {
        "E-Val", "E-Var-Sucs", "E-Var-Err", "E-Bin-Sucs", "E-Bin-Exc1",
        "E-Bin-Exc2", "E-Cons-Sucs", "E-Cons-Err", "E-Cons-Exc",
        "E-List-Sucs", "E-Set-Sucs", "E-Map-Sucs", "E-Lookup-Sucs",
        "E-Lookup-NoKey", "E-Lookup-Err", "E-Update-Sucs", "E-Call-Sucs",
        "E-Call-Res-Err2", "E-Ret-Sucs", "E-Asgn-Sucs", "E-Asgn-Err",
        "E-If-True", "E-If-False", "E-If-Err", "E-Switch-Sucs",
        "E-Switch-Fail", "E-Visit-Sucs", "E-Visit-Fail", "E-Break",
        "E-Continue", "E-Fail", "E-Block-Sucs", "E-Block-Exc", "E-For-Sucs",
        "E-While-False", "E-Solve-Eq", "E-Thr-Sucs", "E-Fin-Sucs",
        "E-Try-Catch", "E-Try-Ord", "ES-Exc1", "ES-Exc2", "ECS-Emp",
        "ECS-More-Ord", "EC-More-Ord", "EE-Emp", "EE-More-Sucs",
        "G-Enum-List", "G-Enum-Err", "G-Pat-Sucs", "EV-BU", "EV-TD",
        "EBU-Fail-Sucs", "EBUS-Emp", "ETVS-Emp",
    }
    assert must_fire <= fired, sorted(must_fire - fired)


def test_oracle_agrees_with_bound_stars():
    rng = random.Random(21)
    gen = _ModuleGen(rng, GenBudget(seed=21), finite=False)
    gen.build_datatypes()
    from rascal_light.harness import gen_any_value

    for i in range(250):
        kind = rng.choice([VList, VSet])
        items = tuple(gen_any_value(rng, gen.cons_by_type, 1) for _ in range(rng.randint(0, 4)))
        v = kind(items)
        take = rng.randint(0, len(v.items))
        prefix = v.items[:take] if kind is VList else tuple(
            x for j, x in enumerate(v.items) if j % 2 == 0
        )
        store = Store({"bound": kind(prefix)})
        pat_cls = sx.ListPat if kind is VList else sx.SetPat
        pat = pat_cls((sx.Star("bound"), sx.Star(f"rest{i}")))
        expected = oracle_match(pat, v, store, gen.constructors)
        got = env_set(match(pat, v, store, gen.constructors))
        assert got == expected, (pat, v, store)


def test_suite_artifacts_written_on_failure(tmp_path, monkeypatch):
    # Force a failure by corrupting the typing check through a monkeypatched
    # checker, then confirm an artifact lands on disk.
    import rascal_light.harness as hz

    monkeypatch.setattr(hz, "_check_typed", lambda *a: "forced failure")
    rep = hz.suite_typing(3, seed=0, artifacts_dir=str(tmp_path))
    assert not rep.ok
    assert rep.artifacts and all(p.endswith(".rsl") for p in rep.artifacts)
    for p in rep.artifacts:
        assert validate_module(parse_module(open(p).read())) == []


# Three injected evaluator bugs, one per suite.  Each wraps a rule group,
# so ``_install`` puts it in both rule tables, the traced ``_RULES`` and its
# untraced twin ``_TWINS``, for every evaluator until the test ends.


def _install(mp, form, mutation) -> None:
    """Replace ``form``'s rule group by its ``mutation`` in both tables."""
    for table in (interp._RULES, interp._TWINS):
        mp.setitem(table, form, mutation(table[form]))


def _cons_dropping_last_arg(rule):
    """E-Cons builds a constructor of two or more fields without its last one."""

    def mutant(self, e, store, n):
        res, out = rule(self, e, store, n)
        if type(res) is VCons and len(res.args) > 1:
            res = VCons(res.name, res.args[:-1])
        return res, out

    return mutant


def _lookup_raising_keyerror(rule):
    """A missing map key raises a Python KeyError instead of throwing nokey."""

    def mutant(self, e, store, n):
        res, out = rule(self, e, store, n)
        if type(res) is Throw and type(res.value) is VCons and res.value.name == "nokey":
            raise KeyError(res.value.args[0])
        return res, out

    return mutant


def _lit_growing_with_fuel(rule):
    """An integer literal evaluated with more than 16 units of fuel left
    comes out one larger, so a result changes as the budget grows."""

    def mutant(self, e, store, n):
        res, out = rule(self, e, store, n)
        if n > 16 and type(res.val) is int:
            res = Basic(res.val + 1)
        return res, out

    return mutant


# Each suite must fail for the bug injected, not for a fault of the mutant
# itself (an AttributeError in the wrapper would be caught as well).
@pytest.mark.parametrize(
    "suite, form, mutation, check, subsets, reason",
    [
        ("typing", sx.Cons, _cons_dropping_last_arg, check_typing, ("all",), r"constructor 'c\d+' expects"),
        ("progress", sx.Lookup, _lookup_raising_keyerror, check_progress, ("finite", "all", "all"), r"KeyError\("),
        ("termination", sx.Lit, _lit_growing_with_fuel, check_termination, ("finite",), r"not monotone$"),
    ],
    ids=["typing", "progress", "termination"],
)
def test_artifacts_replay_the_case_that_failed(
    tmp_path, monkeypatch, suite, form, mutation, check, subsets, reason
):
    cases, art = 300, str(tmp_path)
    # The cases the suite draws (progress draws fewer, after its adversarial
    # snippets), so each artifact can be held to the case it names.
    rng = random.Random(0)
    drawn = [_draw_case(rng, subsets[i % len(subsets)]) for i in range(cases)]
    with monkeypatch.context() as mp:
        _install(mp, form, mutation)
        rep = run_suite(suite, cases=cases, seed=0, artifacts_dir=art)
    assert rep.failures and len(rep.artifacts) >= 6
    assert all(re.search(reason, f.partition(": ")[2]) for f in rep.failures), rep.failures
    for path in rep.artifacts:
        text = open(path, encoding="utf-8").read()
        i = int(os.path.basename(path)[len(suite) + 1 : -len(".rsl")])
        assert text.startswith(f"// {suite} case {i}: ")
        m = parse_module(text)
        assert validate_module(m) == []
        case = drawn[i]
        call = next(f for f in m.functions if f.name == "check").body
        assert isinstance(call, sx.Call) and call.name == case.function
        inner = artifact_case(m)
        assert inner.function == case.function
        for name in [p.name for p in case.fundef.params] + [g.name for g in m.globals]:
            assert inner.store.get(name) == case.store.get(name)
        replays = [inner]
        # The artifact's own check() entry point replays the case too, except
        # for termination: a call lies outside the finite subset it checks.
        # Its store is built by the correct evaluator: the bug may break the
        # literals that spell it.
        if suite != "termination":
            replays.append(Case(m, "check", Evaluator(m).init_globals()))
        for replay in replays:
            assert check(replay) is None, (i, replay.function)
            with monkeypatch.context() as mp:
                _install(mp, form, mutation)
                assert check(replay) is not None, (path, replay.function)
        assert main(["run", path, "--call", "check()"]) in (0, 2, 3, 4)


def _eval_cases_keeping_bindings(self, cases, v, store, n, span):
    """``Evaluator.eval_cases`` with one bug: after a failing case, the next
    starts from the store extended by the failed case's first candidate
    binding, rather than from the initial store."""
    for cs in cases:
        if n == 0:
            raise TimeoutSignal(store)
        n -= 1
        envs = list(match(cs.pattern, v, store, self.constructors))
        r, s2 = self.eval_case(envs, cs.body, store, n, cs.span)
        if type(r) is not Fail:
            return self.fire("ECS-More-Ord", cs.span, store, r, s2)
        self.fire("ECS-More-Fail", cs.span, store, FAIL, store)
        if envs:
            store = store.extended(envs[0])
    if n == 0:
        raise TimeoutSignal(store)
    return self.fire("ECS-Emp", span, store, FAIL, store)


def test_purity_artifacts_replay_the_failure(tmp_path, monkeypatch):
    # The call boundary keeps only globals, so `check()` through the CLI
    # cannot show a store that leaks across cases; `check_purity` reruns
    # the artifact's cases from its store.
    with monkeypatch.context() as mp:
        for cls in (Evaluator, interp._UntracedEvaluator):
            mp.setattr(cls, "eval_cases", _eval_cases_keeping_bindings)
        rep = run_suite("purity", cases=50, seed=0, artifacts_dir=str(tmp_path))
        assert rep.failures and len(rep.artifacts) >= 6
        texts = [open(path, encoding="utf-8").read() for path in rep.artifacts]
        replays = [artifact_case(parse_module(text)) for text in texts]
        for text, case in zip(texts, replays):
            assert text.startswith("// purity seed=0 case=")
            assert case.function == "check" and validate_module(case.module) == []
            assert check_purity(case) == "store changed across failing cases"
    for case in replays:
        assert check_purity(case) is None
        assert dict(case.store.items()) == dict(Evaluator(case.module).init_globals().items())


def test_artifact_case_rejects_an_argument_that_is_not_a_value():
    m = parse_module("int f(int x) = x; int check() = f((1: 2)[3]);")
    with pytest.raises(ValueError, match="argument x of f"):
        artifact_case(m)
    assert artifact_case(parse_module("int f(int x) = x; int check() = f(1);")).store.get("x") == b(1)


def test_artifact_case_reads_the_store_without_the_evaluator(monkeypatch):
    # The E-Cons bug breaks every constructor literal the evaluator builds,
    # so the store must come from the literals themselves.
    m = parse_module(
        "data D = c(int a, int b); global D g = c(1, 2); global value u = 0;"
        "int f(D x, list<D> ys, map<int, set<D>> zs) = 0;"
    )
    store = Store(
        {
            "g": VCons("c", (b(1), b(2))),
            "u": UNDEF,
            "x": VCons("c", (b(-3), b(4))),
            "ys": VList((VCons("c", (b(5), b(6))),)),
            "zs": VMap(((b(7), VSet((VCons("c", (b(8), b(9))),))),)),
        }
    )
    art = parse_module(render(_case_artifact(Case(m, "f", store))))
    _install(monkeypatch, sx.Cons, _cons_dropping_last_arg)
    case = artifact_case(art)
    assert case.function == "f"
    assert dict(case.store.items()) == dict(store.items())


def test_literal_value_inverts_value_to_expr():
    gen = _ModuleGen(random.Random(5), GenBudget(seed=5), finite=False)
    gen.build_datatypes()
    rng = random.Random(5)
    for _ in range(300):
        v = gen_any_value(rng, gen.cons_by_type, 3)
        assert literal_value(value_to_expr(v)) == v
    for text in ("x", "f(1)", "-(1 + 2)", "switch (1) { }", "[1][0]"):
        with pytest.raises(ValueError, match="not a value literal"):
            literal_value(parse_expr(text))


def test_a_shrunk_case_keeps_the_store_its_artifact_replays(monkeypatch):
    # While the global g is declared, the pattern g tests equality with its
    # value 3 and the second case builds the (mutated) constructor.  Once
    # g is dropped, the pattern binds and the first case answers 0, so the
    # shrinker must check a module without g on a store without g.
    m = parse_module(
        "data D = c(int a, int b); global int g = 3;"
        "value f() = switch (4) { case g => 0 case x => c(x, x) };"
    )
    _install(monkeypatch, sx.Cons, _cons_dropping_last_arg)
    case = Case(m, "f", Evaluator(m).init_globals())
    assert check_typing(case) is not None
    art = parse_module(render(_case_artifact(_shrink(case, check_typing))))
    assert check_typing(Case(art, "check", Evaluator(art).init_globals())) is not None


if __name__ == "__main__":
    # Records generator_digests.json afresh: PYTHONPATH=src python tests/test_harness.py
    sys.setrecursionlimit(12_000)
    with open(GENERATOR_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(generator_digests(), fh, indent=1)
        fh.write("\n")
