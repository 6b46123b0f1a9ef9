from rascal_light import syntax as sx
from rascal_light.parser import parse_expr, parse_module
from rascal_light.syntax import is_finite_subset, validate_module
from rascal_light.types import BaseType

INT = BaseType("int")


def fn(name, body, params=()):
    return sx.FunDef(name, INT, params, body)


def test_duplicate_function_names():
    m = sx.ModuleDef(functions=(fn("f", sx.Lit(1)), fn("f", sx.Lit(2))))
    errs = validate_module(m)
    assert any(e.kind == "duplicate-name" and e.name == "f" for e in errs)


def test_undefined_function():
    m = sx.ModuleDef(functions=(fn("f", sx.Call("g", ())),))
    errs = validate_module(m)
    assert any(e.kind == "undefined-function" and e.name == "g" for e in errs)


def test_simplifier_module_is_well_formed(simplifier_module):
    assert validate_module(simplifier_module) == []


def test_validation_is_deterministic():
    m = sx.ModuleDef(
        functions=(
            fn("f", sx.Call("g", ())),
            fn("f", sx.Var("zz")),
        )
    )
    assert validate_module(m) == validate_module(m)


def test_undefined_variable_and_constructor():
    m = sx.ModuleDef(functions=(fn("f", sx.Binary(sx.Var("x"), "+", sx.Cons("mk", ()))),))
    kinds = {e.kind for e in validate_module(m)}
    assert "undefined-variable" in kinds and "undefined-constructor" in kinds


def test_arity_mismatch():
    m = parse_module("data D = mk(int a);\nint f() = 1;")
    bad = sx.ModuleDef(
        datatypes=m.datatypes,
        functions=(fn("g", sx.Cons("mk", ())), fn("h", sx.Call("g", (sx.Lit(1),)))),
    )
    kinds = [e.kind for e in validate_module(bad)]
    assert kinds.count("arity-mismatch") == 2


def test_shadowing_rejected():
    text = """
    global int g = 1;
    int f(int g) = g;
    """
    errs = validate_module(parse_module(text))
    assert any(e.kind == "shadowing" for e in errs)

    text2 = "int f(int x) = local int x in x end;"
    errs2 = validate_module(parse_module(text2))
    assert any(e.kind == "shadowing" and e.name == "x" for e in errs2)


def test_catch_variable_shadowing_rejected():
    text = "int f(int x) = try 1 catch x => 2;"
    errs = validate_module(parse_module(text))
    assert any(e.kind == "shadowing" for e in errs)


def test_assignment_targets_must_be_local_or_global():
    text = "int f(int x) = x = 1;"
    errs = validate_module(parse_module(text))
    assert any(e.kind == "not-assignable" for e in errs)

    text2 = "int f() = switch (1) { case y => y = 2 };"
    errs2 = validate_module(parse_module(text2))
    assert any(e.kind == "not-assignable" for e in errs2)


def test_pattern_variable_unification_is_not_shadowing():
    # A pattern variable naming an existing declaration is an equality
    # check at match time, not a new binding; it must validate.
    text = "int f(int x) = switch (1) { case x => 2 };"
    assert validate_module(parse_module(text)) == []


def test_solve_targets_must_resolve():
    text = "int f() = solve (q) 1;"
    errs = validate_module(parse_module(text))
    assert any(e.kind == "undefined-variable" and e.name == "q" for e in errs)


def test_builtin_names_reserved():
    text = "data Bool = mk();"
    errs = validate_module(parse_module(text))
    assert any(e.kind == "duplicate-name" and e.name == "Bool" for e in errs)


def test_finite_subset_examples():
    assert is_finite_subset(parse_expr("1 + 2"))
    assert not is_finite_subset(parse_expr("while (true()) 1"))
    td = parse_expr("top-down visit (1) { case x => x }")
    bu = parse_expr("bottom-up visit (1) { case x => x }")
    assert not is_finite_subset(td)
    assert is_finite_subset(bu)
    assert is_finite_subset(parse_expr("bottom-up-break visit (1) { case x => x }"))
    assert not is_finite_subset(parse_expr("solve (x) 1"))


def test_finite_subset_monotone_under_containment():
    bad = parse_expr("[1, while (true()) 1]")
    assert not is_finite_subset(bad)
    deeper = sx.ListExpr((sx.Lit(0), bad))
    assert not is_finite_subset(deeper)
    wrapped = parse_expr("if true() then 1 else local int z in z = 2; while (false()) z end")
    assert not is_finite_subset(wrapped)


def test_finite_subset_covers_case_bodies_and_generators():
    inside_case = parse_expr("switch (1) { case x => while (true()) 1 }")
    assert not is_finite_subset(inside_case)
    inside_gen = parse_expr("for (z <- [while (false()) 1]) z")
    assert not is_finite_subset(inside_gen)


def test_validation_reports_stack_exhaustion_as_the_host_stack_guard():
    # Parsed on a large-stack worker, validated on the calling thread at
    # Python's default recursion limit.
    import sys

    import pytest

    from rascal_light.fuel import HostStackGuard, call_with_stack

    m = call_with_stack(parse_module, "int f() = " + "-(" * 3000 + "1" + ")" * 3000 + ";")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(HostStackGuard, match="^host stack exhausted$"):
            validate_module(m)
    finally:
        sys.setrecursionlimit(limit)
