"""Per-layer probes and scaling series.

Each probe drives one layer through its public functions on seeded inputs
and checks the outputs.  Rates and costs per node are timed without
instrumentation and scaled to nominal machine speed (see ``calib``); a ``*.self_s`` figure is the self time of one span name
(see ``spans``) while the probe runs with the span wrappers installed.
Every scaling series runs three doubling points and reports each point's
seconds plus the power-law exponent between the first and last point
(1 is linear, 2 quadratic; exponential growth shows as a large number).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import statistics
from time import perf_counter

from rascal_light import Evaluator, load_module, syntax as sx
from rascal_light.harness import BudgetExceeded, GenBudget, _ModuleGen
from rascal_light.parser import tokenize
from rascal_light.types import INT, STR, VALUE, VOID, DataType, ListType, MapType, SetType
from rascal_light.values import Basic, Store, Success, Timeout, VList, VMap, VSet, children

import spans
from calib import calibration, nominal
from workloads import KERNELS, PROGRAMS, STRATEGIES, Lib, fib_value, nat_value, tree_value, visited_leaves

SCALES = {
    "full": {
        "fib": 15,
        "loop": 400,
        "globals": 300,
        "type_values": {"nat": 400, "list": 2000, "tree": 9, "set": 500, "map": 300},
        "type_reps": 2000,
        "sets": (20, 400),
        "map_keys": 200,
        "store_ops": 20000,
        "visit_depth": 8,
        "reconstruct_depth": 9,
        "first_pick": 11,
        "dup_list": 24,
        "deep_tree": 7,
        "pairs": 200,
        "timeout_fuel": 300,
        "timeout_pick": 12,
        "modules": 40,
        "suites": {"purity": 200, "typing": 100, "progress": 200, "termination": 40},
        "series": {
            "values.list_append_series": (250, 500, 1000),
            "values.map_update_series": (50, 100, 200),
            "types.nat_series": (125, 250, 500),
            "patterns.first_pick_series": (3, 6, 12),
            "interp.fib_series": (4, 8, 16),
            "traversal.tree_visit_series": (8, 10, 12),
        },
        "min_time": 0.05,
    },
    "tiny": {
        "fib": 5,
        "loop": 10,
        "globals": 5,
        "type_values": {"nat": 5, "list": 5, "tree": 2, "set": 5, "map": 5},
        "type_reps": 5,
        "sets": (2, 5),
        "map_keys": 5,
        "store_ops": 50,
        "visit_depth": 2,
        "reconstruct_depth": 2,
        "first_pick": 3,
        "dup_list": 4,
        "deep_tree": 2,
        "pairs": 3,
        "timeout_fuel": 20,
        "timeout_pick": 3,
        "modules": 2,
        "suites": {"purity": 2, "typing": 2, "progress": 21, "termination": 1},
        "series": {
            "values.list_append_series": (2, 4, 8),
            "values.map_update_series": (2, 4, 8),
            "types.nat_series": (2, 4, 8),
            "patterns.first_pick_series": (2, 3, 4),
            "interp.fib_series": (2, 3, 4),
            "traversal.tree_visit_series": (1, 2, 3),
        },
        "min_time": 0.0,
    },
}

GOLDEN = {
    # program -> (call, extra flags, expected stdout, expected exit code)
    "prod": ("prod([1, 2, 3, 4])", (), "24\n", 0),
    "fixpoint": ("fix()", (), "3\n", 0),
    "knapsack": ("slowknapsack({item(1, 60), item(2, 100), item(3, 120)}, 5)", (), "{item(2, 100), item(3, 120)}\n", 0),
    "simplifier": ("simplify(plus(intlit(0), intlit(5)))", (), "intlit(5)\n", 0),
    "infincrement": ("infincrement(succ(zero()))", ("--fuel", "1000"), "timeout\n", 4),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [
        ("interp.rule_firings", "count"),
        ("interp.fn_calls", "count"),
        ("interp.ns_per_firing", "ns"),
        ("interp.trace_on_ratio", "ratio"),
        ("interp.call_function.self_s", "s"),
        ("interp.init_globals.self_s", "s"),
        ("types.type_of.ns_per_node", "ns"),
        ("types.subtype.ns_per_op", "ns"),
        ("types.lub_seq.ns_per_op", "ns"),
        ("values.canonical_set.self_s", "s"),
        ("values.map_update.ns_per_key", "ns"),
        ("values.store_updated.ns_per_op", "ns"),
    ]
    out += [(f"traversal.eval_visit.{s.value}.ns_per_node", "ns") for s in sx.Strategy]
    out += [
        ("traversal.reconstruct.ns_per_node", "ns"),
        ("patterns.match.first_env_ms", "ms"),
        ("patterns.match.all_envs_ms", "ms"),
        ("patterns.match.envs", "count"),
        ("patterns.oracle_match.self_s", "s"),
        ("fuel.timeout.host_ms", "ms"),
        ("fuel.call_with_stack.overhead_ms", "ms"),
    ]
    out += [(f"cli.main.{p}.ms", "ms") for p in GOLDEN]
    out += [
        ("parser.tokenize.tokens_per_s", "tokens/s"),
        ("parser.parse_module.chars_per_s", "chars/s"),
        ("syntax.validate_module.self_s", "s"),
        ("syntax.analyze.self_s", "s"),
        ("render.render.chars_per_s", "chars/s"),
    ]
    out += [(f"harness.{s}.cases_per_s", "cases/s") for s in SCALES["full"]["suites"]]
    for series, sizes in SCALES["full"]["series"].items():
        out += [(f"{series}.n{i + 1}_s", "s") for i in range(len(sizes))]
        out.append((f"{series}.exponent", "exponent"))
    out.append(("bench.trace_overhead_ratio", "ratio"))
    return out


def measure(fn, min_time: float):
    """Median seconds per call, scaled to nominal machine speed (see
    ``calib``), repeating until ``min_time`` has passed; and the last call's
    result."""
    times = []
    cals = [calibration()]
    while not times or (sum(times) < min_time and len(times) < 200):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
        cals.append(calibration())
    return nominal(statistics.median(times), cals), out


def node_count(v) -> int:
    count, todo = 0, [v]
    while todo:
        x = todo.pop()
        count += 1
        todo.extend(children(x))
    return count


class Probes:
    """Runs every probe for one seed; ``failures`` counts wrong outputs."""

    def __init__(self, lib: Lib, seed: int, scale: str):
        self.lib = lib
        self.rng = random.Random(f"probes:{seed}")
        self.cfg = SCALES[scale]
        self.min_time = self.cfg["min_time"]
        self.metrics: dict[str, float] = {}
        self.checks = 0
        self.failures = 0
        self.build_ev = Evaluator(load_module(os.path.join(KERNELS, "build.rsl")))
        self.match_ev = Evaluator(load_module(os.path.join(KERNELS, "match.rsl")))
        self.scalar_ev = Evaluator(load_module(os.path.join(KERNELS, "scalar.rsl")))

    def check(self, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1

    def stack(self, fn):
        return self.lib.call_with_stack(fn)

    def timed(self, fn, check=None) -> float:
        """Median seconds per call of ``fn`` on a large stack; ``check``
        judges the last result."""
        t, out = self.stack(lambda: measure(fn, self.min_time))
        if check is not None:
            self.check(self.stack(lambda: check(out)))
        return t

    def traced_self(self, fn, name: str) -> float:
        """Self seconds of the spans called ``name`` while ``fn`` runs
        instrumented."""
        rec = spans.SpanRecorder()
        with spans.Instrumentation(rec, self.lib):
            self.stack(fn)
        return rec.self_by_name().get(name, 0) / 1e9

    def run(self) -> dict[str, float]:
        for step in (
            self.interp,
            self.types,
            self.values,
            self.traversal,
            self.patterns,
            self.fuel,
            self.cli,
            self.front_end,
            self.harness,
            self.series,
        ):
            step()
        return self.metrics

    # -- interp --------------------------------------------------------

    def interp(self):
        ev, cfg = self.scalar_ev, self.cfg
        st = ev.init_globals()
        n, m = cfg["fib"], cfg["loop"]

        def calls():
            for fname, arg in (("fib", n), ("sumto", m), ("trysum", m)):
                res, _ = ev.call_function(fname, (Basic(arg),), st)
                self.check(isinstance(res, Success))

        self.metrics["interp.call_function.self_s"] = self.traced_self(calls, "interp.Evaluator.call_function")

        g = cfg["globals"]
        lines = ["global int g0 = 1;"] + [f"global int g{i} = g{i - 1} * 3 % 1000 + {i};" for i in range(1, g)]
        gev = Evaluator(self.lib.parse_module("\n".join(lines)))
        want = 1
        for i in range(1, g):
            want = want * 3 % 1000 + i

        def init():
            self.check(gev.init_globals().get(f"g{g - 1}") == Basic(want))

        self.metrics["interp.init_globals.self_s"] = self.traced_self(init, "interp.Evaluator.init_globals")

    # -- types ---------------------------------------------------------

    def types(self):
        from rascal_light.types import lub_seq, subtype, type_of

        cfg, rng = self.cfg, self.rng
        tv = cfg["type_values"]
        cons = self.build_ev.constructors
        values = [
            nat_value(tv["nat"]),
            VList(tuple(Basic(rng.randrange(1000)) for _ in range(tv["list"]))),
            tree_value([rng.randrange(4) for _ in range(2 ** tv["tree"])]),
            VSet(tuple(Basic(rng.randrange(10**6)) for _ in range(tv["set"]))),
            VMap(tuple((Basic(i), VList((Basic(i),))) for i in range(tv["map"]))),
        ]
        nodes = sum(node_count(v) for v in values)
        want = [DataType("Nat"), ListType(INT), DataType("Tree"), SetType(INT), MapType(INT, ListType(INT))]
        t = self.timed(lambda: [type_of(v, cons) for v in values], lambda out: out == want)
        self.metrics["types.type_of.ns_per_node"] = t * 1e9 / nodes

        nat = DataType("Nat")
        pairs = [
            (ListType(SetType(MapType(INT, nat))), ListType(SetType(MapType(INT, VALUE))), True),
            (ListType(SetType(MapType(INT, nat))), ListType(SetType(MapType(STR, nat))), False),
            (MapType(ListType(INT), SetType(VOID)), MapType(ListType(INT), SetType(STR)), True),
            (SetType(ListType(ListType(nat))), SetType(ListType(ListType(nat))), True),
            (INT, VALUE, True),
            (nat, DataType("Tree"), False),
        ]
        reps = cfg["type_reps"]
        self.check(all(subtype(a, b) == expected for a, b, expected in pairs))

        def subtypes():
            for _ in range(reps):
                for a, b, _ in pairs:
                    subtype(a, b)

        t = self.timed(subtypes)
        self.metrics["types.subtype.ns_per_op"] = t * 1e9 / (reps * len(pairs))

        kinds = [ListType(INT), ListType(VOID), SetType(nat), VOID, MapType(INT, STR), ListType(ListType(INT))]
        seqs = [[rng.choice(kinds) for _ in range(rng.randint(1, 12))] for _ in range(20)]
        rounds = max(1, reps // 20)

        def lubs():
            for _ in range(rounds):
                for s in seqs:
                    lub_seq(s)

        t = self.timed(lubs)
        self.metrics["types.lub_seq.ns_per_op"] = t * 1e9 / (rounds * len(seqs))

    # -- values --------------------------------------------------------

    def values(self):
        from rascal_light.values import canonical_set, map_update

        cfg, rng = self.cfg, self.rng
        count, size = cfg["sets"]
        inputs = []
        for i in range(count):
            if i % 2:
                xs = [Basic(rng.randrange(size)) for _ in range(size)]
            else:
                xs = [tree_value([rng.randrange(4) for _ in range(4)]) for _ in range(size)]
            inputs.append(xs)

        def canon():
            for xs in inputs:
                canonical_set(xs)

        self.metrics["values.canonical_set.self_s"] = self.traced_self(canon, "values.VSet.__post_init__")

        n = cfg["map_keys"]
        keys = list(range(n))
        rng.shuffle(keys)

        def build_map():
            m = VMap(())
            for k in keys:
                m = map_update(m, Basic(k), Basic(-k))
            return m

        want = tuple((Basic(k), Basic(-k)) for k in range(n))
        t = self.timed(build_map, lambda m: m.pairs == want)
        self.metrics["values.map_update.ns_per_key"] = t * 1e9 / n

        store = Store({f"x{i}": Basic(i) for i in range(20)})
        ops = cfg["store_ops"]
        names = [f"x{i % 20}" for i in range(ops)]

        def updates():
            s = store
            for i, name in enumerate(names):
                s = s.updated(name, Basic(i))
            return s

        t = self.timed(updates, lambda s: s.get(names[-1]) == Basic(ops - 1))
        self.metrics["values.store_updated.ns_per_op"] = t * 1e9 / ops

    # -- traversal -----------------------------------------------------

    def traversal(self):
        from rascal_light import traversal
        from rascal_light.traversal import reconstruct

        ev, rng, cfg = self.build_ev, self.rng, self.cfg
        d = cfg["visit_depth"]
        leaves = [rng.randrange(4) for _ in range(2**d)]
        subject = tree_value(leaves)
        nodes = node_count(subject)
        for name in STRATEGIES:
            visit = ev.functions[name].body
            want = tree_value(visited_leaves(name, leaves))
            t = self.timed(
                lambda: traversal.eval_visit(ev, visit.strategy, visit.cases, subject, Store(), None, visit.span),
                lambda out: out[0] == Success(want),
            )
            self.metrics[f"traversal.eval_visit.{visit.strategy.value}.ns_per_node"] = t * 1e9 / nodes

        tree = tree_value([rng.randrange(4) for _ in range(2 ** cfg["reconstruct_depth"])])
        all_nodes = []
        todo = [tree]
        while todo:
            x = todo.pop()
            all_nodes.append((x, children(x)))
            todo.extend(children(x))
        t = self.timed(
            lambda: [reconstruct(x, kids, ev.constructors) for x, kids in all_nodes],
            lambda out: out == [Success(x) for x, _ in all_nodes],
        )
        self.metrics["traversal.reconstruct.ns_per_node"] = t * 1e9 / len(all_nodes)

    # -- patterns ------------------------------------------------------

    def patterns(self):
        cfg, rng = self.cfg, self.rng
        cons = self.match_ev.constructors
        n = cfg["first_pick"]
        dup = rng.sample(range(1000), cfg["dup_list"] - 1)
        dup.append(dup[rng.randrange(len(dup))])
        fixed = [
            (sx.SetPat((sx.Star("xs"), sx.VarPat("x"))), VSet(tuple(Basic(x) for x in rng.sample(range(1000), n)))),
            (sx.SetPat((sx.Star("xs"), sx.Star("ys"))), VSet(tuple(Basic(x) for x in rng.sample(range(1000), n - 3)))),
            (
                sx.ListPat((sx.Star("a"), sx.VarPat("x"), sx.Star("b"), sx.VarPat("x"), sx.Star("c"))),
                VList(tuple(Basic(x) for x in dup)),
            ),
            (
                sx.DeepPat(sx.ConsPat("leaf", (sx.VarPat("v"),))),
                tree_value([rng.randrange(10) for _ in range(2 ** cfg["deep_tree"])]),
            ),
        ]
        empty = Store()
        lib = self.lib
        j = dup.index(dup[-1])
        want_first = [
            {"xs": fixed[0][1].items[1:], "x": fixed[0][1].items[0]},
            {"xs": fixed[1][1].items, "ys": ()},
            {"a": tuple(Basic(x) for x in dup[:j]), "x": Basic(dup[j]), "b": tuple(Basic(x) for x in dup[j + 1 : -1]), "c": ()},
            {"v": _leftmost_leaf(fixed[3][1])},
        ]
        want_counts = [n, 2 ** (n - 3), 1, 2 ** cfg["deep_tree"]]

        def plain(env):
            return {k: getattr(v, "items", v) for k, v in env.items()}

        def first():
            return [next(iter(lib.match(p, v, empty, cons))) for p, v in fixed]

        def every():
            return [list(lib.match(p, v, empty, cons)) for p, v in fixed]

        self.metrics["patterns.match.first_env_ms"] = 1e3 * self.timed(
            first, lambda out: [plain(e) for e in out] == want_first
        )
        self.metrics["patterns.match.all_envs_ms"] = 1e3 * self.timed(
            every, lambda out: [len(envs) for envs in out] == want_counts
        )

        gen_seed = rng.randrange(1 << 30)
        gen_rng = random.Random(gen_seed)
        gen = _ModuleGen(gen_rng, GenBudget(seed=gen_seed), finite=False)
        gen.build_datatypes()
        pairs = [lib.gen_match_pair(gen_rng, gen) for _ in range(cfg["pairs"])]

        def count_envs():
            return sum(len(envs) for envs in every()) + sum(
                len(list(lib.match(p, v, s, gen.constructors))) for p, v, s in pairs
            )

        self.metrics["patterns.match.envs"] = self.stack(count_envs)

        def oracle():
            for p, v, s in pairs:
                try:
                    lib.oracle_match(p, v, s, gen.constructors, budget=4)
                except BudgetExceeded:
                    pass

        self.metrics["patterns.oracle_match.self_s"] = self.traced_self(oracle, "harness.oracle_match")

    # -- fuel ----------------------------------------------------------

    def fuel(self):
        cfg = self.cfg
        iev = Evaluator(load_module(os.path.join(PROGRAMS, "infincrement.rsl")))
        n = cfg["timeout_pick"]
        pick_arg = (VSet(tuple(Basic(i) for i in range(n))), Basic(n))

        def timeouts():
            a, _ = iev.call_function("infincrement", (nat_value(1),), Store(), cfg["timeout_fuel"])
            b, _ = self.match_ev.call_function("setpick", pick_arg, Store(), 3)
            return a, b

        both_timeout = lambda out: all(isinstance(r, Timeout) for r in out)  # noqa: E731
        self.metrics["fuel.timeout.host_ms"] = 1e3 * self.timed(timeouts, both_timeout)
        t, _ = measure(lambda: self.stack(int), self.min_time)
        self.metrics["fuel.call_with_stack.overhead_ms"] = 1e3 * t

    # -- cli -----------------------------------------------------------

    def cli(self):
        for prog, (call, flags, want_out, want_code) in GOLDEN.items():
            argv = ["run", os.path.join(PROGRAMS, prog + ".rsl"), "--call", call, *flags]

            def run_cli(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.lib.cli_main(argv)
                return code, out.getvalue()

            t, out = measure(run_cli, self.min_time)
            self.check(out == (want_code, want_out))
            self.metrics[f"cli.main.{prog}.ms"] = 1e3 * t

    # -- parser, syntax, render ----------------------------------------

    def front_end(self):
        lib, rng = self.lib, self.rng
        generated = [
            lib.gen_program(GenBudget(max_depth=4, seed=rng.randrange(1 << 30)), "all")
            for _ in range(self.cfg["modules"])
        ]
        texts = [lib.render(m) for m in generated]
        for d in (PROGRAMS, KERNELS):
            for f in sorted(os.listdir(d)):
                with open(os.path.join(d, f), encoding="utf-8") as fh:
                    texts.append(fh.read())
        chars = sum(len(t) for t in texts)
        t, toks = measure(lambda: [tokenize(t) for t in texts], self.min_time)
        self.metrics["parser.tokenize.tokens_per_s"] = sum(map(len, toks)) / t
        t, parsed = self.stack(lambda: measure(lambda: [lib.parse_module(t) for t in texts], self.min_time))
        self.check(parsed[: len(generated)] == generated)
        self.metrics["parser.parse_module.chars_per_s"] = chars / t
        t, rendered = self.stack(lambda: measure(lambda: [lib.render(m) for m in generated], self.min_time))
        self.check(rendered == texts[: len(generated)])
        self.metrics["render.render.chars_per_s"] = sum(map(len, rendered)) / t

        def validate():
            self.check(not any(lib.validate_module(m) for m in parsed))

        self.metrics["syntax.validate_module.self_s"] = self.traced_self(validate, "syntax.validate_module")

        def analyze():
            for m in parsed:
                Evaluator(m)

        self.metrics["syntax.analyze.self_s"] = self.traced_self(analyze, "syntax.analyze_module")

    # -- harness -------------------------------------------------------

    def harness(self):
        for suite, cases in self.cfg["suites"].items():
            seed = self.rng.randrange(1 << 30)
            t = self.timed(
                lambda: self.lib.run_suite(suite, cases=cases, seed=seed),
                lambda rep: rep.ok and rep.total == cases,
            )
            self.metrics[f"harness.{suite}.cases_per_s"] = cases / t

    # -- scaling series ------------------------------------------------

    def series(self):
        from rascal_light import traversal

        ev, cons = self.build_ev, self.build_ev.constructors
        st = Store()
        pick = sx.SetPat((sx.Star("xs"), sx.VarPat("x")))
        vbu = ev.functions["vbu"].body

        def call(e, fname, *args):
            return lambda: e.call_function(fname, tuple(Basic(a) for a in args), st)[0]

        def list_append(n):
            want = tuple(Basic(i) for i in range(n))
            return call(ev, "mklist", n, 1), n, lambda r: r.value.items == want

        def map_update(n):
            want = tuple((Basic(i), Basic(i + 1)) for i in range(n))
            return call(ev, "mkmap", n, 1), n, lambda r: r.value.pairs == want

        def nat(n):
            return call(ev, "nat", n), n, lambda r: r == Success(nat_value(n))

        def first_pick(n):
            subject = VSet(tuple(Basic(i) for i in range(n)))
            return lambda: next(iter(self.lib.match(pick, subject, st, cons))), n, lambda env: env["x"] == Basic(0)

        def fib(n):
            return call(self.scalar_ev, "fib", n), n, lambda r: r == Success(Basic(fib_value(n)))

        def tree_visit(d):
            leaves = [i % 4 for i in range(2**d)]
            subject, want = tree_value(leaves), tree_value(visited_leaves("vbu", leaves))
            run = lambda: traversal.eval_visit(ev, vbu.strategy, vbu.cases, subject, st, None, vbu.span)  # noqa: E731
            return run, 2 ** (d + 1) - 1, lambda out: out[0] == Success(want)

        makers = {
            "values.list_append_series": list_append,
            "values.map_update_series": map_update,
            "types.nat_series": nat,
            "patterns.first_pick_series": first_pick,
            "interp.fib_series": fib,
            "traversal.tree_visit_series": tree_visit,
        }
        for series, sizes in self.cfg["series"].items():
            points = []
            for i, n in enumerate(sizes):
                fn, work, check = makers[series](n)
                t = self.timed(fn, check)
                self.metrics[f"{series}.n{i + 1}_s"] = t
                points.append((work, t))
            (w0, t0), (w1, t1) = points[0], points[-1]
            self.metrics[f"{series}.exponent"] = math.log(t1 / t0) / math.log(w1 / w0)


def _leftmost_leaf(tree):
    while tree.name == "node":
        tree = tree.args[0]
    return tree.args[0]
