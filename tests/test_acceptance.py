"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in
failure output) and enforces the criterion's scale and tolerance: the
metatheorem suites at 10,000/10,000/10,000/1,000 cases with zero
tolerance, the golden example programs, oracle equivalence, fuel
conservativity, and the round-trip laws.
"""

import itertools
import random
import time

from rascal_light import syntax as sx
from rascal_light.fuel import call_with_stack, eval_expr_fuel, min_sufficient_fuel
from rascal_light.harness import (
    GenBudget,
    _ModuleGen,
    env_set,
    gen_match_pair,
    gen_program,
    gen_store,
    oracle_match,
    suite_progress,
    suite_purity,
    suite_termination,
    suite_typing,
    BudgetExceeded,
)
from rascal_light.interp import Evaluator, TraceEntry
from rascal_light.parser import load_module, parse_module, parse_value
from rascal_light.patterns import match
from rascal_light.render import render
from rascal_light.syntax import validate_module
from rascal_light.traversal import reconstruct
from rascal_light.values import (
    Basic,
    Success,
    TIMEOUT,
    VCons,
    VSet,
    children,
)

from conftest import program_path


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_backtracking_purity():
    t0 = time.time()
    rep = call_with_stack(suite_purity, 10_000, seed=101)
    elapsed = time.time() - t0
    report(
        "criterion 1: backtracking purity, 10000 failing case evaluations",
        rep.ok and elapsed < 60,
        f"{rep.passed}/{rep.total} in {elapsed:.1f}s; failures={rep.failures[:3]}",
    )


def test_criterion_2_strong_typing():
    rep = call_with_stack(suite_typing, 10_000, seed=202)
    report(
        "criterion 2: strong typing on 10000 generated programs at fuel 10^4",
        rep.ok,
        f"{rep.passed}/{rep.total}; failures={rep.failures[:3]}",
    )


def test_criterion_3_partial_progress():
    rep = call_with_stack(suite_progress, 10_000, seed=303)
    report(
        "criterion 3: partial progress at fuels {0, 1, 7, 1000}",
        rep.ok,
        f"{rep.passed}/{rep.total}; failures={rep.failures[:3]}",
    )


def test_criterion_4_termination_of_finite_subset():
    rep = call_with_stack(suite_termination, 1_000, seed=404)
    report(
        "criterion 4: termination with minimal sufficient fuel on 1000 programs",
        rep.ok,
        f"{rep.passed}/{rep.total}; failures={rep.failures[:3]}",
    )


# -- criterion 5: the example programs as golden tests -------------------------


def _intlit(n):
    return VCons("intlit", (Basic(n),))


def _plus(a, b):
    return VCons("plus", (a, b))


def _rewrite_to_normal_form(v):
    """Independent oracle: exhaustively rewrite additions of zero anywhere
    until no redex remains."""

    def step(x):
        if isinstance(x, VCons) and x.name == "plus":
            lop, rop = x.args
            if lop == _intlit(0):
                return rop, True
            if rop == _intlit(0):
                return lop, True
            l2, ch1 = step(lop)
            r2, ch2 = step(rop)
            return VCons("plus", (l2, r2)), ch1 or ch2
        return x, False

    changed = True
    while changed:
        v, changed = step(v)
    return v


def _count_nodes(v):
    return (1 if isinstance(v, VCons) else 0) + sum(_count_nodes(c) for c in children(v))


def test_criterion_5_golden_examples():
    t0 = time.time()

    # Example: the simplifier fully reduces a 15-node expression.
    simplifier = Evaluator(load_module(program_path("simplifier.rsl")))
    store = simplifier.init_globals()
    subject = _plus(
        _plus(_intlit(0), _plus(_intlit(0), _intlit(5))),
        _plus(
            _plus(_intlit(3), _intlit(0)),
            _plus(_intlit(0), _plus(_intlit(7), _intlit(0))),
        ),
    )
    assert _count_nodes(subject) == 15
    expected = _rewrite_to_normal_form(subject)
    res, _ = simplifier.call_function("simplify", (subject,), store)
    ok1 = res == Success(expected) and expected == _plus(
        _intlit(5), _plus(_intlit(3), _intlit(7))
    )

    # Example: solve climbs the chain 0 -> 1 -> 2 -> 3 and stops at 3.
    trace: list[TraceEntry] = []
    fixpoint = Evaluator(load_module(program_path("fixpoint.rsl")), trace=trace.append)
    res, _ = fixpoint.call_function("fix", (), fixpoint.init_globals())
    neqs = sum(1 for t in trace if t.rule == "E-Solve-Neq")
    eqs = sum(1 for t in trace if t.rule == "E-Solve-Eq")
    ok2 = res == Success(Basic(3)) and neqs == 3 and eqs == 1

    # Example: knapsack returns the brute-force-optimal subset.
    knapsack = Evaluator(load_module(program_path("knapsack.rsl")))
    items = [(1, 60), (2, 100), (3, 120)]
    best = max(
        (
            sub
            for r in range(len(items) + 1)
            for sub in itertools.combinations(items, r)
            if sum(w for w, _ in sub) <= 5
        ),
        key=lambda sub: sum(v for _, v in sub),
    )
    expected_set = VSet(tuple(VCons("item", (Basic(w), Basic(v))) for w, v in best))
    arg = VSet(tuple(VCons("item", (Basic(w), Basic(v))) for w, v in items))
    res, _ = knapsack.call_function(
        "slowknapsack", (arg, Basic(5)), knapsack.init_globals()
    )
    ok3 = res == Success(expected_set) and expected_set == parse_value(
        "{item(2, 100), item(3, 120)}"
    )

    # Example: early return short-circuits the product.
    prod = Evaluator(load_module(program_path("prod.rsl")))
    pstore = prod.init_globals()
    ok4 = prod.call_function("prod", (parse_value("[1, 2, 0, 3]"),), pstore)[
        0
    ] == Success(Basic(0)) and prod.call_function(
        "prod", (parse_value("[1, 2, 3]"),), pstore
    )[0] == Success(Basic(6))

    elapsed = time.time() - t0
    report(
        "criterion 5: golden example programs (simplifier, solve, knapsack, prod)",
        ok1 and ok2 and ok3 and ok4 and elapsed < 5,
        f"simplifier={ok1} solve={ok2} knapsack={ok3} prod={ok4} in {elapsed:.2f}s",
    )


def test_criterion_6_oracle_equivalence():
    def run():
        rng = random.Random(606)
        gen = _ModuleGen(rng, GenBudget(seed=606), finite=False)
        gen.build_datatypes()
        compared = 0
        mismatches = []
        attempts = 0
        while compared < 5_000 and attempts < 50_000:
            attempts += 1
            pat, v, store = gen_match_pair(rng, gen)
            try:
                expected = oracle_match(pat, v, store, gen.constructors, budget=4)
            except BudgetExceeded:
                continue
            got = env_set(match(pat, v, store, gen.constructors))
            compared += 1
            if got != expected:
                mismatches.append((pat, v))
                if len(mismatches) > 3:
                    break
        return compared, mismatches

    compared, mismatches = call_with_stack(run)
    report(
        "criterion 6: matcher agrees with the exhaustive oracle on 5000 pairs",
        compared == 5_000 and not mismatches,
        f"compared={compared} mismatches={len(mismatches)}",
    )


def test_criterion_7_fuel_conservativity_and_monotonicity():
    def run():
        rng = random.Random(707)
        bad = []
        checked = 0
        attempts = 0
        while checked < 2_000 and attempts < 4_000:
            attempts += 1
            subset = "finite" if attempts % 2 == 0 else "all"
            module = gen_program(GenBudget(max_depth=3, seed=rng.randrange(1 << 30)), subset)
            ev = Evaluator(module)
            fd = module.functions[rng.randrange(len(module.functions))]
            store = gen_store(rng, module, fd.params)
            sufficient = 10_000
            res_n, st_n = eval_expr_fuel(ev, fd.body, store, sufficient)
            if res_n == TIMEOUT:
                if subset == "finite":
                    sufficient = min_sufficient_fuel(ev, fd.body, store)
                    res_n, st_n = eval_expr_fuel(ev, fd.body, store, sufficient)
                else:
                    continue  # not observed terminating; outside the criterion
            checked += 1
            free, free_store = ev.evaluate(fd.body, store, None)
            if not (free == res_n and free_store == st_n):
                bad.append(f"attempt {attempts}: fueled and unfueled disagree")
                continue
            for extra in (1, 13):
                up, up_st = eval_expr_fuel(ev, fd.body, store, sufficient + extra)
                if up == TIMEOUT or up != res_n or up_st != st_n:
                    bad.append(f"attempt {attempts}: not upward-closed")
                    break
        return checked, bad

    checked, bad = call_with_stack(run)
    report(
        "criterion 7: fuel conservativity and monotonicity on 2000 terminating programs",
        checked == 2_000 and not bad,
        f"checked={checked} violations={bad[:3]}",
    )


def test_criterion_8_roundtrips():
    def run():
        rng = random.Random(808)
        bad = []
        for i in range(2_000):
            m = gen_program(
                GenBudget(max_depth=4, seed=rng.randrange(1 << 30)),
                "finite" if i % 4 == 0 else "all",
            )
            if validate_module(m):
                bad.append(f"module {i}: generated module invalid")
                continue
            if parse_module(render(m)) != m:
                bad.append(f"module {i}: parse/render round-trip broke")

        gen = _ModuleGen(rng, GenBudget(seed=808), finite=False)
        gen.build_datatypes()
        module = sx.ModuleDef(datatypes=tuple(gen.datatypes))
        cons = Evaluator(module).constructors
        from rascal_light.harness import gen_any_value

        for i in range(5_000):
            v = gen_any_value(rng, gen.cons_by_type, 3)
            if reconstruct(v, children(v), cons) != Success(v):
                bad.append(f"value {i}: reconstruct/children round-trip broke")
        return bad

    bad = call_with_stack(run)
    report(
        "criterion 8: parse-render and reconstruct-children round-trips",
        not bad,
        f"violations={bad[:3]}",
    )
