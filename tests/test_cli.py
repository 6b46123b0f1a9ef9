import json
import random
import subprocess
import sys
import threading
import time

import pytest

from rascal_light import cli, fuel, interp
from rascal_light.cli import main
from rascal_light.harness import GenBudget, _ModuleGen, gen_any_value
from rascal_light.values import Throw, result_to_tree, value_to_tree

from conftest import program_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_call_simplifier(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        program_path("simplifier.rsl"),
        "--call",
        "simplify(plus(intlit(0), intlit(5)))",
    )
    assert code == 0
    assert out.strip() == "intlit(5)"


def test_run_call_prod(capsys):
    code, out, _ = run_cli(
        capsys, "run", program_path("prod.rsl"), "--call", "prod([1, 2, 0, 3])"
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(
        capsys, "run", program_path("prod.rsl"), "--call", "prod([1, 2, 3])"
    )
    assert code == 0 and out.strip() == "6"


def test_run_fixpoint(capsys):
    code, out, _ = run_cli(capsys, "run", program_path("fixpoint.rsl"), "--call", "fix()")
    assert code == 0 and out.strip() == "3"


def test_run_knapsack(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        program_path("knapsack.rsl"),
        "--call",
        "slowknapsack({item(1, 60), item(2, 100), item(3, 120)}, 5)",
    )
    assert code == 0
    assert out.strip() == "{item(2, 100), item(3, 120)}"


def test_run_infincrement_times_out(capsys):
    # The succ-rewrite grows its own children forever under top-down; any
    # succ-containing argument exhausts whatever fuel it is given.
    code, out, _ = run_cli(
        capsys,
        "run",
        program_path("infincrement.rsl"),
        "--call",
        "infincrement(succ(zero()))",
        "--fuel",
        "10000",
    )
    assert code == 4
    assert out.strip() == "timeout"


def test_run_infincrement_zero_terminates(capsys):
    # On zero() the rewrite never fires, so the traversal fails everywhere
    # and the visit returns the scrutinee unchanged.
    code, out, _ = run_cli(
        capsys,
        "run",
        program_path("infincrement.rsl"),
        "--call",
        "infincrement(zero())",
        "--fuel",
        "10000",
    )
    assert code == 0
    assert out.strip() == "zero()"


def test_eval_snippets(capsys):
    code, out, _ = run_cli(capsys, "run", "--eval", "1 + 2")
    assert code == 0 and out.strip() == "3"

    code, out, _ = run_cli(capsys, "run", "--eval", "(1 : 2)[3]")
    assert code == 2 and out.strip() == "throw nokey(3)"

    code, out, err = run_cli(capsys, "run", "--eval", "x")
    assert code == 5 and "x" in err

    code, out, _ = run_cli(capsys, "run", "--eval", "1 / 0")
    assert code == 3 and out.strip() == "error"

    # Boundary conversion: return becomes success, stray break is an error.
    code, out, _ = run_cli(capsys, "run", "--eval", "return 41 + 1")
    assert code == 0 and out.strip() == "42"
    code, out, _ = run_cli(capsys, "run", "--eval", "break")
    assert code == 3 and out.strip() == "error"


def test_eval_in_module_scope(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        program_path("simplifier.rsl"),
        "--eval",
        "simplify(plus(intlit(0), plus(intlit(5), intlit(0))))",
    )
    assert code == 0 and out.strip() == "intlit(5)"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rsl"
    bad.write_text("data D = k(;")
    code, _, err = run_cli(capsys, "run", str(bad), "--eval", "1")
    assert code == 5
    assert "bad.rsl:1:" in err


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rsl"
    bad.write_text("int f() = g();")
    code, _, err = run_cli(capsys, "run", str(bad), "--eval", "1")
    assert code == 5 and "g" in err


def test_unknown_function_and_arity(capsys):
    code, _, err = run_cli(capsys, "run", program_path("prod.rsl"), "--call", "nope()")
    assert code == 5
    code, _, err = run_cli(capsys, "run", program_path("prod.rsl"), "--call", "prod()")
    assert code == 5 and "expects" in err


def test_print_globals(tmp_path, capsys):
    mod = tmp_path / "g.rsl"
    mod.write_text("global int g = 1;\nint setg(int n) = g = n;\n")
    code, out, _ = run_cli(capsys, "run", str(mod), "--call", "setg(9)", "--print-globals")
    assert code == 0
    assert out.splitlines() == ["9", "global g = 9"]


def test_tree_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--eval", "{2, 1}", "--format", "tree")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["result"] == "success"
    assert doc["value"] == {
        "kind": "set",
        "items": [{"kind": "int", "value": "1"}, {"kind": "int", "value": "2"}],
    }


@pytest.mark.parametrize(
    "snippet, tree",
    [
        ('"a"', {"kind": "str", "value": "a"}),
        (
            '(2 : "b", 1 : "a")',
            {
                "kind": "map",
                "entries": [
                    {"key": {"kind": "int", "value": "1"}, "value": {"kind": "str", "value": "a"}},
                    {"key": {"kind": "int", "value": "2"}, "value": {"kind": "str", "value": "b"}},
                ],
            },
        ),
        ("switch (0) { }", {"kind": "undefined"}),
    ],
    ids=["str", "map", "undefined"],
)
def test_tree_format_of_other_kinds(capsys, snippet, tree):
    code, out, _ = run_cli(capsys, "run", "--eval", snippet, "--format", "tree")
    assert (code, json.loads(out)) == (0, {"version": 1, "result": "success", "value": tree})


def test_tree_format_with_globals(tmp_path, capsys):
    mod = tmp_path / "g.rsl"
    mod.write_text("global int g = 2;\nint f() = g * 3;\n")
    code, out, _ = run_cli(
        capsys, "run", str(mod), "--call", "f()", "--format", "tree", "--print-globals"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["globals"] == {"g": {"kind": "int", "value": "2"}}
    assert doc["value"] == {"kind": "int", "value": "6"}


def test_tree_format_throw(capsys):
    code, out, _ = run_cli(capsys, "run", "--eval", "throw [1]", "--format", "tree")
    assert code == 2
    doc = json.loads(out)
    assert doc["result"] == "throw"
    assert doc["value"]["kind"] == "list"


def test_trace_records_propagation_rules(capsys):
    code, _, err = run_cli(capsys, "run", "--eval", "(throw 1) + 2", "--trace")
    assert code == 2
    rules = [line.split(" ")[0] for line in err.strip().splitlines()]
    assert "E-Thr-Sucs" in rules
    assert "E-Bin-Exc1" in rules


def test_trace_shows_store_deltas(capsys):
    code, _, err = run_cli(
        capsys, "run", "--eval", "local int q in q = 7 end", "--trace"
    )
    assert code == 0
    assert any("E-Asgn-Sucs" in line and "[q]" in line for line in err.splitlines())


def test_deterministic_output(capsys):
    args = (
        "run",
        program_path("knapsack.rsl"),
        "--call",
        "slowknapsack({item(1, 60), item(2, 100), item(3, 120)}, 5)",
        "--trace",
        "--format",
        "tree",
    )
    a = run_cli(capsys, *args)
    b = run_cli(capsys, *args)
    assert a == b


def test_fuel_env_var(capsys, monkeypatch):
    monkeypatch.setenv("RASCAL_LIGHT_FUEL", "3")
    code, out, _ = run_cli(capsys, "run", "--eval", "1 + 2 + 3 + 4")
    assert code == 4 and out.strip() == "timeout"
    monkeypatch.setenv("RASCAL_LIGHT_FUEL", "1000")
    code, out, _ = run_cli(capsys, "run", "--eval", "1 + 2 + 3 + 4")
    assert code == 0 and out.strip() == "10"
    monkeypatch.setenv("RASCAL_LIGHT_FUEL", "abc")
    assert run_cli(capsys, "run", "--eval", "1") == (5, "", "invalid RASCAL_LIGHT_FUEL value\n")


def test_init_timeout_exit_code(tmp_path, capsys):
    mod = tmp_path / "slow.rsl"
    mod.write_text("global int g = local int i in i = 0; while (i < 100) i = i + 1; i end;\n")
    code, _, err = run_cli(capsys, "run", str(mod), "--eval", "g", "--fuel", "5")
    assert code == 4 and "timeout" in err


def test_negative_fuel_is_bad_input(capsys, monkeypatch):
    # Run unbounded, this call never ends.
    argv = ("run", program_path("infincrement.rsl"), "--call", "infincrement(succ(zero()))")
    for extra, env in ((("--fuel", "-1"), None), ((), "-1"), ((), "-5")):
        if env is None:
            monkeypatch.delenv("RASCAL_LIGHT_FUEL", raising=False)
        else:
            monkeypatch.setenv("RASCAL_LIGHT_FUEL", env)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, *extra)
        assert time.perf_counter() - start < 1
        assert (code, out) == (5, "")
        assert err == f"invalid fuel {extra[1] if extra else env}: fuel must be a natural number\n"


def test_parse_errors_at_the_end_of_input_name_it(capsys):
    code, _, err = run_cli(capsys, "run", program_path("prod.rsl"), "--call", "prod")
    assert (code, err) == (5, "offset 4: bad --call: expected '(', found end of input\n")
    code, _, err = run_cli(capsys, "run", "--eval", "1 +")
    assert (code, err) == (5, "offset 3: parse error in --eval: expected an expression, found end of input\n")


def test_trace_streams_through_failed_initialization(tmp_path, capsys):
    mod = tmp_path / "bad.rsl"
    mod.write_text("global int g = 1 / 0;\n")
    code, out, err = run_cli(capsys, "run", str(mod), "--eval", "1", "--trace")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "E-Val @ 15-16 -> success",
        "E-Val @ 19-20 -> success",
        "E-Bin-Sucs @ 15-20 -> error",
        "module initialization failed at global 'g'",
    ]
    mod.write_text("global int g = 1 + (2 + 3);\n")
    code, out, err = run_cli(capsys, "run", str(mod), "--eval", "g", "--trace", "--fuel", "2")
    assert (code, out) == (4, "")
    assert err.splitlines() == ["E-Val @ 15-16 -> success", "timeout during module initialization"]


def test_init_error_exit_code(tmp_path, capsys):
    mod = tmp_path / "bad.rsl"
    mod.write_text("global int g = 1 / 0;\n")
    code, _, err = run_cli(capsys, "run", str(mod), "--eval", "1")
    assert code == 3 and "g" in err


def test_module_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "rascal_light.cli", "run", "--eval", "2 * 21"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "42"


def test_harness_subcommand(capsys):
    code, out, _ = run_cli(capsys, "harness", "--suite", "purity", "--cases", "50", "--seed", "3")
    assert code == 0
    assert "suite purity: 50/50 passed" in out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_harness_needs_at_least_one_case(capsys, cases):
    # Zero or fewer cases would pass vacuously.
    code, out, err = run_cli(capsys, "harness", "--suite", "typing", "--cases", cases)
    assert (code, out) == (5, "")
    assert err.startswith("usage: rascal-light harness ")
    assert err.endswith(f"rascal-light harness: error: argument --cases: must be at least 1, not {cases}\n")


def test_exit_codes_are_total_over_results():
    from rascal_light.cli import _exit_code
    from rascal_light.values import (
        BREAK,
        CONTINUE,
        ERROR,
        FAIL,
        Basic,
        Return,
        Success,
        Throw,
        TIMEOUT,
    )

    table = {
        Success(Basic(1)): 0,
        Throw(Basic(1)): 2,
        Return(Basic(1)): 3,
        BREAK: 3,
        CONTINUE: 3,
        FAIL: 3,
        ERROR: 3,
        TIMEOUT: 4,
    }
    for res, code in table.items():
        assert _exit_code(res) == code


SIBLING_BLOCKS = (
    'int f() = local int r in r = 0; (local int a in a = 1 end); (local str a in a = "x" end); r end;\n',
    'int f() = local int r in r = 0; (local str a in a = "x" end); (local int a in a = 1 end); r end;\n',
)


@pytest.mark.parametrize("text", SIBLING_BLOCKS, ids=("int-first", "str-first"))
def test_sibling_blocks_declare_one_name_at_two_types(tmp_path, capsys, text):
    mod = tmp_path / "siblings.rsl"
    mod.write_text(text)
    code, out, _ = run_cli(capsys, "run", str(mod), "--call", "f()")
    assert code == 0 and out == "0\n"


def test_run_eval_analyses_the_module_once(capsys, monkeypatch):
    from rascal_light import syntax

    runs = []
    analyse = syntax._Validator.run

    def counted(self):
        runs.append(self.module)
        return analyse(self)

    monkeypatch.setattr(syntax._Validator, "run", counted)
    code, out, _ = run_cli(
        capsys, "run", program_path("simplifier.rsl"), "--eval", "simplify(plus(intlit(0), intlit(5)))"
    )
    assert code == 0 and out == "intlit(5)\n"
    assert len(runs) == 1


NAT = (
    "data Nat = zero() | succ(Nat pred);\n"
    "Nat nat(int n) = if n == 0 then zero() else succ(nat(n - 1));\n"
)


def _run_at_default_limit(capsys, argv):
    # A plain `rascal-light` run starts at Python's default recursion limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return run_cli(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)


def test_deep_result_renders_in_both_formats(tmp_path, capsys):
    # Rendering needs the worker's stack.
    mod = tmp_path / "nat.rsl"
    mod.write_text(NAT)
    text = _run_at_default_limit(capsys, ["run", str(mod), "--call", "nat(1500)"])
    tree = _run_at_default_limit(capsys, ["run", str(mod), "--call", "nat(1500)", "--format", "tree"])
    assert text == (0, "succ(" * 1500 + "zero()" + ")" * 1500 + "\n", "")
    value = '{"kind": "cons", "name": "zero", "args": []}'
    for _ in range(1500):
        value = '{"kind": "cons", "name": "succ", "args": [' + value + "]}"
    assert tree == (0, '{"version": 1, "result": "success", "value": ' + value + "}\n", "")


def test_tree_text_is_the_text_of_json_dumps():
    # The CLI prints a tree walking it with a stack of its own, since a deep
    # tree exhausts the C stack that json.dumps recurses on (the
    # tree-of-deep-list row of ADVERSARIAL); where json.dumps can print a
    # tree, the two texts are the same.
    gen = _ModuleGen(random.Random(3), GenBudget(seed=3), finite=False)
    gen.build_datatypes()
    rng = random.Random(3)
    for _ in range(300):
        v = gen_any_value(rng, gen.cons_by_type, 4)
        doc = {"version": 1, **result_to_tree(Throw(v)), "globals": {"g": value_to_tree(v), "s": "\u00e9\"\\\n"}}
        assert cli._json_text(doc) == json.dumps(doc)


# -- exit-code contract ------------------------------------------------------

CONTRACT_CODES = {0, 2, 3, 4, 5, 70}
DEEP = 3000


def _nested(opener: str, inner: str, closer: str, depth: int = DEEP) -> str:
    return opener * depth + inner + closer * depth


def _program_text(name: str) -> str:
    with open(program_path(name), encoding="utf-8") as fh:
        return fh.read()


PROD, SIMPLIFIER = _program_text("prod.rsl"), _program_text("simplifier.rsl")

# (module text or bytes, run arguments, expected exit code)
ADVERSARIAL = {
    "parens": (f"int f() = {_nested('(', '1', ')')};", ["--call", "f()"], 0),
    "binary-chain-module": ("int f() = " + " + ".join(["1"] * 20000) + ";", ["--call", "f()"], 0),
    "binary-chain-eval": (None, ["--eval", " + ".join(["1"] * 20000)], 0),
    "call-value": (NAT + "Nat id(Nat n) = n;", ["--call", f"id({_nested('succ(', 'zero()', ')', 5000)})"], 0),
    "call-list-value": ("int f(list<value> x) = 1;", ["--call", f"f({_nested('[', '', ']', 5000)})"], 0),
    # A set or map of one element computes no key for it, so a nest of
    # singletons builds in time linear in its depth; keying every level
    # cost the square of the depth (7-12 s at 5000 levels), and a
    # value_key that called itself through C exited 70 on Python 3.12.
    "call-set-value": ("int f(value x) = 1;", ["--call", f"f({_nested('{', '', '}', 5000)})"], 0),
    "call-map-value": ("int f(value x) = 1;", ["--call", f"f({_nested('(', '1', ': 1)', 5000)})"], 0),
    # json.dumps would recurse through C over the tree: exit 70 on 3.12+.
    "tree-of-deep-list": (
        "value g(value x) = x;",
        ["--call", f"g({_nested('[', '', ']', 6000)})", "--format", "tree"],
        0,
    ),
    "pattern": (
        NAT + f"int f() = switch (zero()) {{ case {_nested('succ(', 'zero()', ')')} => 1 case _ => 0 }};",
        ["--call", "f()"],
        0,
    ),
    "negated-pattern": (f"int f() = switch (1) {{ case {_nested('!', '2', '')} => 1 }};", ["--call", "f()"], 0),
    "type": (f"int f({_nested('list<', 'int', '>')} x) = 1;", ["--call", "f([])"], 0),
    "blocks": (f"int f() = {_nested('local in ', '1', ' end')};", ["--call", "f()"], 0),
    "huge-int-module": ("int f() = " + "7" * 6000 + ";", ["--call", "f()"], 5),
    "huge-int-eval": (None, ["--eval", "7" * 6000], 5),
    "huge-int-call": (NAT + "int g(int n) = n;", ["--call", "g(" + "7" * 6000 + ")"], 5),
    "malformed-utf8": (b"int f() = 1;\xff\n", ["--call", "f()"], 5),
    "empty-call": (NAT, ["--call", ""], 5),
    "call-trailing-input": (PROD, ["--call", "prod(1) x"], 5),
    "call-undeclared-constructor": (PROD, ["--call", "prod(foo(1))"], 5),
    "call-wrong-field-type": (SIMPLIFIER, ["--call", 'simplify(intlit("a"))'], 5),
    "call-wrong-arity": (SIMPLIFIER, ["--call", "simplify(intlit(1, 2))"], 5),
    "call-undefined-inside": (SIMPLIFIER, ["--call", "simplify(plus(intlit(0), <undefined>))"], 5),
    "call-undefined-in-list": (PROD, ["--call", "prod([1, <undefined>])"], 5),
    "call-undefined-whole": (SIMPLIFIER, ["--call", "simplify(<undefined>)"], 0),
    "empty-eval": (None, ["--eval", ""], 5),
    "call-with-eval": (PROD, ["--call", "prod([1, 2])", "--eval", "3"], 5),
    "fuel-not-a-number": (None, ["--eval", "1", "--fuel", "abc"], 5),
    "unknown-format": (None, ["--eval", "1", "--format", "xml"], 5),
    "unknown-command": (None, ["bogus"], 5),
    "cases-not-a-number": (None, ["harness", "--suite", "typing", "--cases", "abc"], 5),
}


def _module_argv(tmp_path, text, args):
    if text is None:
        # Options are given to `run`; a bare word is the command itself.
        return ["run", *args] if args[0].startswith("-") else args
    mod = tmp_path / "adversarial.rsl"
    if isinstance(text, bytes):
        mod.write_bytes(text)
    else:
        mod.write_text(text + "\n")
    return ["run", str(mod), *args]


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_input_exits_with_a_contract_code(tmp_path, capsys, name):
    text, args, expected = ADVERSARIAL[name]
    code, _, err = _run_at_default_limit(capsys, _module_argv(tmp_path, text, args))
    assert code in CONTRACT_CODES and code == expected, err[-500:]
    assert "Traceback" not in err


def test_malformed_utf8_is_unreadable_input(tmp_path, capsys):
    text, args, _ = ADVERSARIAL["malformed-utf8"]
    code, _, err = run_cli(capsys, *_module_argv(tmp_path, text, args))
    assert code == 5
    assert err.startswith(f"cannot read {tmp_path / 'adversarial.rsl'}: 'utf-8' codec can't decode")


def test_trailing_input_after_a_call_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "run", program_path("prod.rsl"), "--call", "prod(1) x")
    assert (code, out, err) == (5, "", "offset 8: bad --call: trailing input after call\n")


def test_ill_formed_call_value_names_the_argument(capsys):
    code, out, err = run_cli(capsys, "run", program_path("simplifier.rsl"), "--call", 'simplify(intlit("a"))')
    assert (code, out) == (5, "")
    assert err == "bad --call: argument 1 (e) of 'simplify': field of 'intlit' has type str, expected int\n"


def test_usage_errors_exit_5_with_argparse_usage(capsys):
    code, out, err = run_cli(capsys, "run", "--eval", "1", "--fuel", "abc")
    assert (code, out) == (5, "")
    assert err.startswith("usage: rascal-light run ")
    assert err.endswith("rascal-light run: error: argument --fuel: invalid int value: 'abc'\n")
    code, out, err = run_cli(capsys, "bogus")
    assert (code, out) == (5, "")
    assert err.startswith("usage: rascal-light ") and "invalid choice: 'bogus'" in err
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: rascal-light ")


# -- one argument parser for every call ------------------------------------


def test_a_traced_run_leaves_no_trace_on_the_next(capsys):
    argv = ("run", program_path("prod.rsl"), "--call", "prod([1, 2, 3])")
    code, out, err = run_cli(capsys, *argv, "--trace")
    assert (code, out) == (0, "6\n") and "E-Call" in err
    assert run_cli(capsys, *argv) == (0, "6\n", "")


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    code, out, err = run_cli(capsys, "run", "--eval", "1", "--fuel", "abc")
    assert (code, out) == (5, "") and "invalid int value: 'abc'" in err
    assert run_cli(capsys, "run", "--eval", "1") == (0, "1\n", "")
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: rascal-light ")


class _PerCallerStream:
    """Text written for each calling thread, kept apart: a worker writes
    for the thread whose job it runs (``_on_behalf``)."""

    def __init__(self):
        self.texts = {}
        self.lock = threading.Lock()

    def write(self, text):
        key = getattr(_on_behalf, "caller", threading.get_ident())
        with self.lock:
            self.texts[key] = self.texts.get(key, "") + text
        return len(text)

    def flush(self):
        pass


_on_behalf = threading.local()


def _tagged_call_with_stack(go):
    caller = threading.get_ident()

    def job():
        _on_behalf.caller = caller
        try:
            return go()
        finally:
            del _on_behalf.caller

    return fuel.call_with_stack(job)


CONCURRENT_ARGV = (
    ("run", program_path("prod.rsl"), "--call", "prod([1, 2, 3])", "--trace"),
    ("run", program_path("knapsack.rsl"), "--call", "slowknapsack({item(1, 60), item(2, 100)}, 3)"),
    ("run", program_path("infincrement.rsl"), "--call", "infincrement(succ(zero()))", "--fuel", "300"),
    ("run", "--eval", "1", "--fuel", "abc"),
    ("--help",),
)


def _written(calls):
    """``calls()``'s result and, for each calling thread that wrote, its
    stdout and stderr (sorted)."""
    out, err = _PerCallerStream(), _PerCallerStream()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        result = calls()
    finally:
        sys.stdout, sys.stderr = saved
    callers = set(out.texts) | set(err.texts)
    return result, sorted((out.texts.get(t, ""), err.texts.get(t, "")) for t in callers)


def test_concurrent_calls_print_what_sequential_ones_do(monkeypatch):
    # The calls share the parser and the parked worker; each call's
    # output is told apart by the thread that made it.
    monkeypatch.setattr(cli, "call_with_stack", _tagged_call_with_stack)
    codes, outputs = [], []
    for argv in CONCURRENT_ARGV:
        code, written = _written(lambda: main(list(argv)))
        codes.append(code)
        outputs += written
    assert codes == [0, 0, 4, 5, 0] and len(outputs) == len(CONCURRENT_ARGV)

    def concurrent():
        got = [None] * len(CONCURRENT_ARGV)
        barrier = threading.Barrier(len(CONCURRENT_ARGV))

        def call(i):
            barrier.wait(timeout=60)
            got[i] = main(list(CONCURRENT_ARGV[i]))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(CONCURRENT_ARGV))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            assert _written(concurrent) == (codes, sorted(outputs))
    finally:
        sys.setswitchinterval(interval)


def test_nesting_beyond_the_guard_exits_70(tmp_path, capsys, monkeypatch):
    # A small worker recursion limit stands in for input nested deeper than
    # the real guard allows; parsing alone exhausts it.
    monkeypatch.setattr(fuel, "_RECURSION_LIMIT", 400)
    text = f"int f() = {_nested('(', '1', ')', 200)};"
    code, out, err = _run_at_default_limit(capsys, _module_argv(tmp_path, text, ["--call", "f()"]))
    assert (code, out) == (70, "")
    assert err == "resource limit: host stack exhausted\n"


def _out_of_memory(v1, v2):
    raise MemoryError


@pytest.mark.parametrize(
    "text, args",
    [
        (None, ["--eval", "1 + 1"]),
        (None, ["--eval", "1 + 1", "--trace"]),
        ("global int g = 1 + 1;", ["--eval", "g"]),
    ],
)
def test_running_out_of_memory_exits_70(tmp_path, capsys, monkeypatch, text, args):
    # `+` raising MemoryError stands in for a value grown past the host's
    # memory; the traced and untraced tables read the same operator table.
    monkeypatch.setitem(interp._BINARY, "+", _out_of_memory)
    code, out, err = run_cli(capsys, *_module_argv(tmp_path, text, args))
    assert (code, out) == (70, "")
    assert err.splitlines()[-1] == "resource limit: out of memory"
    assert "Traceback" not in err and "initialization" not in err


def _decimal_digits(n: int) -> str:
    # Exact, and free of the host's limit on int-to-str conversion.
    chunks = []
    while n:
        n, r = divmod(n, 10**1000)
        chunks.append(r)
    return str(chunks[-1]) + "".join(str(c).zfill(1000) for c in reversed(chunks[:-1]))


def test_integers_past_the_host_digit_limit_print_exactly(capsys):
    # Thirteen squarings of 7 give 7^8192, which has 6923 digits.
    snippet = "local int x in x = 7; " + "x = x * x; " * 13 + "x end"
    digits = _decimal_digits(7**8192)
    assert len(digits) > sys.get_int_max_str_digits() > 0
    assert run_cli(capsys, "run", "--eval", snippet) == (0, digits + "\n", "")
    code, out, err = run_cli(capsys, "run", "--eval", snippet, "--format", "tree")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "version": 1, "result": "success", "value": {"kind": "int", "value": digits}
    }


def test_small_fuel_keeps_set_matching_small(tmp_path, capsys, monkeypatch):
    # At fuel 3 the case body is never reached, so the matcher builds only
    # the first candidate; building every split first builds 2^18 sets.
    from rascal_light.values import VSet

    mod = tmp_path / "pick.rsl"
    mod.write_text("int pick(set<int> s) = switch (s) { case {*xs, x} => x };\n")
    built = 0
    init = VSet.__init__

    def counted(self, items):
        nonlocal built
        built += 1
        init(self, items)

    monkeypatch.setattr(VSet, "__init__", counted)
    elems = ", ".join(str(i) for i in range(18))
    code, out, _ = run_cli(capsys, "run", str(mod), "--call", f"pick({{{elems}}})", "--fuel", "3")
    assert code == 4 and out.strip() == "timeout"
    assert 0 < built <= 10
