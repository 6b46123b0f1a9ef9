import random

from rascal_light import syntax as sx
from rascal_light.harness import (
    GenBudget,
    _ModuleGen,
    env_set,
    gen_cases_triple,
    gen_match_pair,
    gen_program,
    oracle_match,
    run_suite,
    shrink_module,
    suite_progress,
    suite_purity,
    suite_termination,
    suite_typing,
)
from rascal_light.parser import parse_module
from rascal_light.patterns import match
from rascal_light.syntax import (
    ModuleDef,
    constructor_table,
    is_finite_subset,
    validate_module,
    walk_exprs,
)
from rascal_light.values import Basic, Store, VCons, VList, VSet

CONS = constructor_table(parse_module("data P = pair(int a, int b);"))


def b(x):
    return Basic(x)


def test_gen_program_contracts():
    for seed in range(60):
        m = gen_program(GenBudget(seed=seed), "all")
        assert validate_module(m) == []
        f = gen_program(GenBudget(seed=seed), "finite")
        assert validate_module(f) == []
        assert all(is_finite_subset(fn.body) for fn in f.functions)


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
        envs = match(pat, v, store, gen.constructors)
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
    envs = match(pat, v, Store(), CONS)
    assert len(envs) == 3  # the list, then each equal element
    assert env_set(envs) == oracle_match(pat, v, Store(), CONS)


def test_gen_cases_triple_runs():
    rng = random.Random(5)
    gen = _ModuleGen(rng, GenBudget(seed=5), finite=False)
    gen.build_datatypes()
    module = ModuleDef(datatypes=tuple(gen.datatypes))
    fails = 0
    for _ in range(100):
        cases, v, store = gen_cases_triple(rng, gen, module)
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
        from rascal_light.harness import _cons_by_type, gen_store

        fd = m.functions[rng.randrange(len(m.functions))]
        store = gen_store(rng, m, _cons_by_type(m), fd.params)
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
