"""Seeded task lists for the four workloads, each task with a reference.

A task runs one piece of work through the library's public API and
compares the output with a reference computed here in plain Python (or,
for the matcher, with ``harness.oracle_match``), never with an earlier
output of the interpreter.  The comparison is part of the task, so it runs
on the worker thread ``call_with_stack`` starts: equality on a deep value
recurses once per level.

Sizes are fixed per workload; the seed picks the contents (list and map
elements, item sets, random terms, generator seeds) and the task order.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import os
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from rascal_light import Evaluator, load_module
from rascal_light.harness import BudgetExceeded, GenBudget, _ModuleGen, env_set
from rascal_light.values import Basic, Success, Timeout, VCons, VList, VMap, VSet

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAMS = os.path.join(ROOT, "programs")
KERNELS = os.path.join(HERE, "rsl")

# A budget no scalar task comes near: fueled runs must equal unbounded ones.
SUFFICIENT_FUEL = 1_000_000


class Lib:
    """The library entry points tasks call.

    Tasks look them up here at call time, so the span instrumentation can
    swap in wrapped versions for a traced pass.
    """

    def __init__(self):
        from rascal_light import cli, fuel, harness, parser, patterns, syntax

        render_mod = importlib.import_module("rascal_light.render")
        self.call_with_stack = fuel.call_with_stack
        self.cli_main = cli.main
        self.run_suite = harness.run_suite
        self.gen_program = harness.gen_program
        self.gen_match_pair = harness.gen_match_pair
        self.oracle_match = harness.oracle_match
        self.match = patterns.match
        self.parse_module = parser.parse_module
        self.validate_module = syntax.validate_module
        self.render = render_mod.render


@dataclass
class Task:
    kind: str
    size: int
    inputs: str  # a digest of the task's inputs, to compare task lists
    fn: Callable[[], bool]  # runs the work and checks it; True when it matches
    own_stack: bool = False  # cli.main runs its own worker thread


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    # Evaluators the tasks share, so a counting trace can be attached.
    evaluators: list = field(default_factory=list)

    def describe(self) -> list[tuple[str, int, str]]:
        return [(t.kind, t.size, t.inputs) for t in self.tasks]


def digest(*parts) -> str:
    # zlib rather than hashlib: hashlib loads libcrypto, several MB of RSS.
    text = repr(parts).encode()
    return f"{zlib.crc32(text):08x}{zlib.adler32(text):08x}"


def ints(*xs: int) -> tuple[Basic, ...]:
    return tuple(Basic(x) for x in xs)


def _evaluator(path: str):
    ev = Evaluator(load_module(path))
    return ev, ev.init_globals()


def call_task(ev, store, kind, size, fname, args, check, fuel=None) -> Task:
    def fn():
        res, _ = ev.call_function(fname, args, store, fuel)
        return check(res)

    return Task(kind, size, digest(fname, args, fuel), fn)


def equals(expected):
    return lambda res: isinstance(res, Success) and res.value == expected


def contents_equal(cls, want):
    """The result is a ``cls`` collection whose items (or map pairs) are
    ``want``, compared as built, without canonicalising ``want`` through the
    value layer under test."""
    attr = "pairs" if cls is VMap else "items"
    return lambda res: isinstance(res, Success) and isinstance(res.value, cls) and getattr(res.value, attr) == want


def _cli_task(lib, kind, size, argv, expected_out) -> Task:
    def fn():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli_main(argv)
        return code == 0 and out.getvalue() == expected_out

    return Task(kind, size, digest(argv), fn, own_stack=True)


# ---------------------------------------------------------------------------
# scalar: rule dispatch and the store


# Each size is one task per fuel mode (a sufficient budget, and unbounded).
SCALAR_SIZES = {
    "full": {
        "fib": tuple(range(7, 17)),
        "loop": tuple(range(40, 401, 40)),
        "prod": tuple(range(20, 201, 20)),
        "cli_prod": tuple(range(10, 101, 10)),
    },
    "tiny": {"fib": (5, 7), "loop": (10, 20), "prod": (5, 10), "cli_prod": (3,)},
}


def fib_value(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _factors(rng: random.Random, n: int, zero_last: bool) -> list[int]:
    xs = [rng.choice((-9, -7, -5, -3, -2, 2, 3, 5, 7, 9)) for _ in range(n)]
    if zero_last:
        xs[-1] = 0
    return xs


def build_scalar(lib: Lib, rng: random.Random, scale: str) -> Workload:
    sizes = SCALAR_SIZES[scale]
    ev, st = _evaluator(os.path.join(KERNELS, "scalar.rsl"))
    pev, pst = _evaluator(os.path.join(PROGRAMS, "prod.rsl"))
    fev, fst = _evaluator(os.path.join(PROGRAMS, "fixpoint.rsl"))
    prod_path = os.path.join(PROGRAMS, "prod.rsl")
    fix_path = os.path.join(PROGRAMS, "fixpoint.rsl")
    tasks: list[Task] = []
    for fuel in (SUFFICIENT_FUEL, None):
        tag = "" if fuel is None else "@fuel"
        fuel_argv = [] if fuel is None else ["--fuel", str(fuel)]
        for n in sizes["fib"]:
            tasks.append(call_task(ev, st, "fib" + tag, n, "fib", ints(n), equals(Basic(fib_value(n))), fuel))
        for n in sizes["loop"]:
            k = rng.randrange(1, 4)
            m = n + k  # the seed shifts the loop bound a little
            sumto = sum(i * i for i in range(m))
            trysum = sum(-i if i % 3 == 0 else i for i in range(m))
            tasks.append(call_task(ev, st, "sumto" + tag, n, "sumto", ints(m), equals(Basic(sumto)), fuel))
            tasks.append(call_task(ev, st, "trysum" + tag, n, "trysum", ints(m), equals(Basic(trysum)), fuel))
        for i, n in enumerate(sizes["prod"]):
            xs = _factors(rng, n, zero_last=i == 0)
            arg = (VList(ints(*xs)),)
            tasks.append(call_task(pev, pst, "prod" + tag, n, "prod", arg, equals(Basic(math.prod(xs))), fuel))
        tasks.append(call_task(fev, fst, "fix" + tag, 1, "fix", (), equals(Basic(3)), fuel))
        for n in sizes["cli_prod"]:
            xs = _factors(rng, n, zero_last=False)
            call = "prod([" + ", ".join(map(str, xs)) + "])"
            argv = ["run", prod_path, "--call", call, *fuel_argv]
            tasks.append(_cli_task(lib, "cli.prod" + tag, n, argv, f"{math.prod(xs)}\n"))
        tasks.append(_cli_task(lib, "cli.fix" + tag, 1, ["run", fix_path, "--call", "fix()", *fuel_argv], "3\n"))
    rng.shuffle(tasks)
    return Workload("scalar", tasks, [ev, pev, fev])


# ---------------------------------------------------------------------------
# build: value construction, typing and traversal


# Doubling sizes, each repeated; every visit depth runs all six strategies.
BUILD_SIZES = {
    "full": {
        "nat": (16, 32, 64, 128, 256) * 3,
        "list": (32, 64, 128, 256, 512) * 3,
        "map": (16, 32, 64, 128) * 3,
        "tree": (2, 3, 4, 5, 6, 7) * 2,
        "visit": (4, 5, 6),
        "simplify": (8, 16, 32, 64) * 5,
        "infinc": (100, 200, 400, 800) * 2,
    },
    "tiny": {
        "nat": (5, 10),
        "list": (5, 10),
        "map": (3, 6),
        "tree": (2,),
        "visit": (2,),
        "simplify": (3,),
        "infinc": (20,),
    },
}

STRATEGIES = ("vtd", "vbu", "vtdb", "vbub", "vim", "vom")


def nat_value(n: int):
    v = VCons("zero", ())
    for _ in range(n):
        v = VCons("succ", (v,))
    return v


def tree_value(leaves: list[int]):
    """A complete binary tree over the leaf values, left to right."""
    level = [VCons("leaf", (Basic(x),)) for x in leaves]
    while len(level) > 1:
        level = [VCons("node", (level[i], level[i + 1])) for i in range(0, len(level), 2)]
    return level[0]


def visited_leaves(strategy: str, leaves: list[int]) -> list[int]:
    """Leaves after one visit with ``case leaf(x) => x > 0 ? leaf(x - 1) : fail``."""
    if strategy in ("vtd", "vbu"):
        return [x - 1 if x > 0 else x for x in leaves]
    if strategy in ("vtdb", "vbub"):
        out = list(leaves)
        for i, x in enumerate(out):
            if x > 0:
                out[i] = x - 1
                break
        return out
    return [0] * len(leaves)  # innermost / outermost run to the fixed point


def _random_term(rng: random.Random, plus_nodes: int):
    """A random Expr term with the given number of plus nodes, as nested
    tuples ("plus", l, r) / ("lit", v); literals are 0 with probability 0.4."""
    if plus_nodes == 0:
        return ("lit", 0 if rng.random() < 0.4 else rng.randint(1, 5))
    left = rng.randint(0, plus_nodes - 1)
    return ("plus", _random_term(rng, left), _random_term(rng, plus_nodes - 1 - left))


def _simplify(t):
    """simplifier.rsl's bottom-up rewrite: drop additions of zero."""
    if t[0] == "lit":
        return t
    a, b = _simplify(t[1]), _simplify(t[2])
    if a == ("lit", 0):
        return b
    if b == ("lit", 0):
        return a
    return ("plus", a, b)


def term_value(t):
    if t[0] == "lit":
        return VCons("intlit", (Basic(t[1]),))
    return VCons("plus", (term_value(t[1]), term_value(t[2])))


def _is_timeout(res) -> bool:
    return isinstance(res, Timeout)


def build_build(lib: Lib, rng: random.Random, scale: str) -> Workload:
    sizes = BUILD_SIZES[scale]
    ev, st = _evaluator(os.path.join(KERNELS, "build.rsl"))
    sev, sst = _evaluator(os.path.join(PROGRAMS, "simplifier.rsl"))
    iev, ist = _evaluator(os.path.join(PROGRAMS, "infincrement.rsl"))
    tasks: list[Task] = []
    for n in sizes["nat"]:
        tasks.append(call_task(ev, st, "nat", n, "nat", ints(n), equals(nat_value(n))))
    for n in sizes["list"]:
        k = rng.randint(-50, 50)
        want = ints(*(i * k for i in range(n)))
        tasks.append(call_task(ev, st, "list", n, "mklist", ints(n, k), contents_equal(VList, want)))
    for n in sizes["map"]:
        k = rng.randint(-50, 50)
        want = tuple((Basic(i), Basic(i + k)) for i in range(n))
        tasks.append(call_task(ev, st, "map", n, "mkmap", ints(n, k), contents_equal(VMap, want)))
    for d in sizes["tree"]:
        k = rng.randrange(4)
        want = tree_value([(j + k) % 4 for j in range(2**d)])
        tasks.append(call_task(ev, st, "tree", 2 ** (d + 1) - 1, "tree", ints(d, 0, k), equals(want)))
    for d in sizes["visit"]:
        leaves = [rng.randrange(4) for _ in range(2**d)]
        subject = tree_value(leaves)
        for s in STRATEGIES:
            want = tree_value(visited_leaves(s, leaves))
            tasks.append(call_task(ev, st, "visit." + s, 2 ** (d + 1) - 1, s, (subject,), equals(want)))
    for n in sizes["simplify"]:
        term = _random_term(rng, n)
        want = term_value(_simplify(term))
        tasks.append(call_task(sev, sst, "simplify", 2 * n + 1, "simplify", (term_value(term),), equals(want)))
    for fuel in sizes["infinc"]:
        arg = (nat_value(rng.randint(1, 3)),)
        tasks.append(call_task(iev, ist, "infincrement@fuel", fuel, "infincrement", arg, _is_timeout, fuel))
    rng.shuffle(tasks)
    return Workload("build", tasks, [ev, sev, iev])




# ---------------------------------------------------------------------------
# match: the backtracking matcher


MATCH_SIZES = {
    "full": {
        "knapsack": (3, 4, 5, 6, 7) * 8,
        "setpick": (8, 9, 10, 11, 12, 13, 14),
        "listfind": tuple(range(10, 101, 10)) * 2,
        "firstdup": tuple(range(8, 33, 4)) * 2,
        "leafsum": (3, 4, 5, 6, 7, 8, 9, 10) * 2,
        "pairs": (12, 10, 10),  # batches x generators per batch x pairs each
    },
    "tiny": {
        "knapsack": (2, 3),
        "setpick": (3,),
        "listfind": (4,),
        "firstdup": (4,),
        "leafsum": (2,),
        "pairs": (2, 1, 3),
    },
}


def subset_order(n: int) -> list[tuple[int, ...]]:
    """Subsets of n canonically ordered elements in the matcher's documented
    order for ``{*xs, ...}``: largest first, reverse lexicographic within a
    size."""
    return [p for k in range(n, -1, -1) for p in reversed(list(itertools.combinations(range(n), k)))]


def knapsack_reference(items: list[tuple[int, int]], max_weight: int) -> list[tuple[int, int]]:
    """knapsack.rsl's answer: the first subset in matcher order whose weight
    fits.  Later solve iterations only confirm it."""
    canon = sorted(items)
    for picked in subset_order(len(canon)):
        if sum(canon[i][0] for i in picked) <= max_weight:
            return [canon[i] for i in picked]
    raise ValueError("negative weight limit")


def _item(w: int, v: int):
    return VCons("item", (Basic(w), Basic(v)))


def build_match(lib: Lib, rng: random.Random, scale: str) -> Workload:
    sizes = MATCH_SIZES[scale]
    ev, st = _evaluator(os.path.join(KERNELS, "match.rsl"))
    kev, kst = _evaluator(os.path.join(PROGRAMS, "knapsack.rsl"))
    tasks: list[Task] = []
    # Items of one weight: the answer is the first n // 2 items in matcher
    # order, at the same place on every seed, so every seed does the same
    # amount of backtracking.
    for n in sizes["knapsack"]:
        w = rng.randint(1, 20)
        items = [(w, v) for v in sorted(rng.sample(range(1, 100), n))]
        limit = w * (n // 2)
        want = tuple(_item(*item) for item in knapsack_reference(items, limit))
        arg = (VSet(tuple(_item(*item) for item in items)), Basic(limit))
        tasks.append(call_task(kev, kst, "knapsack", n, "slowknapsack", arg, contents_equal(VSet, want)))
    # Each search succeeds at a fixed place (the middle pick or position), so
    # a matcher that stops early does the same work on every seed.
    for n in sizes["setpick"]:
        xs = rng.sample(range(-100, 100), n)
        t = sorted(xs)[n // 2 - 1]
        want = Basic(min(x for x in xs if x > t))
        tasks.append(call_task(ev, st, "setpick", n, "setpick", (VSet(ints(*xs)), Basic(t)), equals(want)))
    for n in sizes["listfind"]:
        xs = rng.sample(range(1000), n)
        mid = n // 2
        top = max(range(mid + 1), key=lambda i: xs[i])
        xs[top], xs[mid] = xs[mid], xs[top]
        t = max(xs[:mid])
        want = Basic(xs[mid])
        tasks.append(call_task(ev, st, "listfind", n, "listfind", (VList(ints(*xs)), Basic(t)), equals(want)))
    for n in sizes["firstdup"]:
        xs = rng.sample(range(1000), n - 1)
        xs.insert(3 * n // 4, xs[n // 4])
        want = Basic(next(x for i, x in enumerate(xs) if x in xs[i + 1 :]))
        tasks.append(call_task(ev, st, "firstdup", n, "firstdup", (VList(ints(*xs)),), equals(want)))
    for d in sizes["leafsum"]:
        leaves = [rng.randrange(10) for _ in range(2**d)]
        tasks.append(
            call_task(ev, st, "leafsum", 2 ** (d + 1) - 1, "leafsum", (tree_value(leaves),), equals(Basic(sum(leaves))))
        )
    batches, generators, per_generator = sizes["pairs"]
    for _ in range(batches):
        batch = []
        # Each generator's random datatypes shape all its pairs, so a batch
        # draws from several generators.
        for _ in range(generators):
            gen_seed = rng.randrange(1 << 30)
            gen_rng = random.Random(gen_seed)
            gen = _ModuleGen(gen_rng, GenBudget(seed=gen_seed), finite=False)
            gen.build_datatypes()
            found = 0
            while found < per_generator:
                pat, v, store = lib.gen_match_pair(gen_rng, gen)
                try:
                    want = lib.oracle_match(pat, v, store, gen.constructors, budget=4)
                except BudgetExceeded:
                    continue
                batch.append((pat, v, store, gen.constructors, want))
                found += 1
        inputs = digest([(pat, v, store) for pat, v, store, _, _ in batch])
        tasks.append(Task("match.pairs", len(batch), inputs, _match_batch(lib, batch)))
    rng.shuffle(tasks)
    return Workload("match", tasks, [ev, kev])


def _match_batch(lib: Lib, batch):
    def fn():
        ok = True
        for pat, v, store, constructors, want in batch:
            ok = env_set(lib.match(pat, v, store, constructors)) == want and ok
        return ok

    return fn


# ---------------------------------------------------------------------------
# meta: many small generated programs


META_SIZES = {
    # suite -> cases per batch (progress always runs its 20 fixed programs);
    # batches of each kind per pass; programs per round-trip batch.  Typing
    # batches stay small: about one generated program in a thousand holds
    # several MB while it runs, and with 400 typing cases a pass a quarter
    # of the seeds met one, which made peak RSS depend on the seed.
    "full": {"suites": {"purity": 40, "typing": 5, "progress": 40, "termination": 10}, "batches": 20, "roundtrip": 8},
    "tiny": {"suites": {"purity": 3, "typing": 2, "progress": 21, "termination": 1}, "batches": 1, "roundtrip": 1},
}


def _suite_task(lib: Lib, suite: str, cases: int, seed: int) -> Task:
    def fn():
        rep = lib.run_suite(suite, cases=cases, seed=seed)
        return rep.ok and rep.total == cases and rep.passed == cases

    return Task("suite." + suite, cases, digest(suite, cases, seed), fn)


def _roundtrip_task(lib: Lib, seeds: list[int]) -> Task:
    def fn():
        ok = True
        for i, s in enumerate(seeds):
            m = lib.gen_program(GenBudget(max_depth=4, seed=s), "finite" if i % 4 == 0 else "all")
            ok = not lib.validate_module(m) and lib.parse_module(lib.render(m)) == m and ok
        return ok

    return Task("roundtrip", len(seeds), digest(seeds), fn)


def build_meta(lib: Lib, rng: random.Random, scale: str) -> Workload:
    sizes = META_SIZES[scale]
    tasks: list[Task] = []
    for _ in range(sizes["batches"]):
        for suite, cases in sizes["suites"].items():
            tasks.append(_suite_task(lib, suite, cases, rng.randrange(1 << 30)))
        tasks.append(_roundtrip_task(lib, [rng.randrange(1 << 30) for _ in range(sizes["roundtrip"])]))
    rng.shuffle(tasks)
    return Workload("meta", tasks)


BUILDERS = {"scalar": build_scalar, "build": build_build, "match": build_match, "meta": build_meta}
WORKLOADS = tuple(BUILDERS)


def build_workload(name: str, seed: int, scale: str = "full", lib: Lib | None = None) -> Workload:
    """The workload's task list for ``seed``: same seed, same tasks."""
    return BUILDERS[name](lib or Lib(), random.Random(f"{name}:{seed}"), scale)
