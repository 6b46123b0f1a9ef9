"""Benchmark of the rascal-light interpreter.

    python3 bench/run.py --workload {scalar,build,match,meta} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the interpreter is imported from ``src/``.
Each workload is a closed loop with one client: the seeded task list (see
``workloads.py``) runs pass after pass, each task only after the previous
one returned and its output was checked against its reference.

``--trace 0`` reports the end-to-end metrics of an untraced run: set-up
time (median of several fresh-process set-ups), throughput, p50/p90 task
latency, the share of tasks that matched their reference, and peak RSS.
Times are wall times scaled to nominal machine speed (see ``calib.py``).
``--trace 1`` reports the per-layer metrics: one untraced pass, one pass
with a counting ``Evaluator`` trace, one pass with spans at every layer
boundary (written to ``bench/out/``), then the layer probes and scaling
series of ``probes.py``.  The last line of standard output is the JSON
result; the lines before it are a readable report.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from calib import calibration, nominal  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPS = 4  # fresh-process set-ups per run, besides the run's own
MIN_PASSES = 5  # timings per task, of which the median counts
CALL_RULES = ("E-Call-Sucs", "E-Call-Res-Err1", "E-Call-Res-Exc", "E-Call-Res-Err2")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "tasks/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def import_interpreter():
    """Import ``rascal_light`` from this checkout's ``src/``, or exit."""
    sys.path.insert(0, SRC)
    try:
        import rascal_light
    except ImportError as exc:
        sys.exit(f"cannot import the interpreter from {SRC}: {exc}")
    if not os.path.abspath(rascal_light.__file__).startswith(SRC + os.sep):
        sys.exit(f"rascal_light was imported from {rascal_light.__file__}, not from {SRC}")
    return rascal_light


class Outcome:
    """Tasks attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def run_pass(lib, wl, outcome: Outcome, rec=None) -> tuple[list[float], list[float]]:
    """Run every task once, in order.  Returns each task's latency in
    seconds, from submission until its output has been checked, as measured
    and scaled to nominal speed by the calibration loop run between tasks."""
    raw = []
    cals = [calibration()]
    root = rec.name_id("bench.task") if rec is not None else None
    for task in wl.tasks:
        # Every task starts with empty young generations, so the collections
        # it triggers depend on its own allocations, not on its neighbours'.
        gc.collect()
        span = None
        if rec is not None:
            rec.task_id += 1
            span = rec.begin(root)
        t0 = time.perf_counter()
        try:
            ok = task.fn() if task.own_stack else lib.call_with_stack(task.fn)
            message = "output differs from its reference"
        except Exception as exc:  # noqa: BLE001 - a raising task is a failed task
            ok, message = False, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        if span is not None:
            rec.finish(span)
        outcome.record(bool(ok), f"{task.kind}({task.size}): {message}")
        raw.append(dt)
        cals.append(calibration())
    return raw, [nominal(dt, cals) for dt in raw]


def setup_seconds() -> float:
    """This process's set-up time so far, scaled to nominal speed by the
    calibration loop run right after it."""
    elapsed = time.perf_counter() - START
    return nominal(elapsed, [calibration() for _ in range(5)])


def setup_sample(workload: str, seed: int, scale: str) -> float:
    """Set-up time of a fresh process: imports through input generation."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--scale", scale]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(rl, args, wl, scale: str) -> dict:
    return {
        "rascal_light_version": rl.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "tasks_per_pass": len(wl.tasks),
        "task_kinds": dict(collections.Counter(t.kind for t in wl.tasks)),
    }


class RuleCounter:
    """An ``Evaluator`` trace hook that only counts rule firings."""

    def __init__(self):
        self.rules: collections.Counter = collections.Counter()

    def __call__(self, entry) -> None:
        self.rules[entry.rule] += 1

    @contextlib.contextmanager
    def attached(self, evaluators):
        """Trace the workload's evaluators, and every evaluator created
        meanwhile (by ``cli.main`` and the harness) that has no trace."""
        from rascal_light.interp import Evaluator

        orig_init = Evaluator.__init__
        counter = self

        def init(ev, module, trace=None):
            orig_init(ev, module, trace if trace is not None else counter)

        saved = [(ev, ev.trace) for ev in evaluators]
        Evaluator.__init__ = init
        for ev in evaluators:
            ev.trace = self
        try:
            yield self
        finally:
            Evaluator.__init__ = orig_init
            for ev, trace in saved:
                ev.trace = trace


def hd_quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density.  Each
    task's latency carries its own measurement noise; this estimate
    averages the tasks around the quantile instead of trusting one."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each order statistic's interval
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def settle() -> None:
    """Move everything alive after set-up and warm-up (inputs, references,
    module tables) out of the garbage collector's view, so collections
    during the timed passes scan only what the tasks allocate."""
    gc.collect()
    gc.freeze()


def end_to_end(wl, lib, seconds: float, outcome: Outcome, setup: list[float]) -> tuple[dict, list[str], dict]:
    """Passes over the task list until ``seconds`` have passed, and at least
    MIN_PASSES.  A task's latency is the median of its scaled timings."""
    run_pass(lib, wl, outcome)  # warm-up: caches fill before timing
    settle()
    raw: list[list[float]] = []
    norm: list[list[float]] = []
    t_start = time.perf_counter()
    while len(norm) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        r, n = run_pass(lib, wl, outcome)
        raw.append(r)
        norm.append(n)
    best = [statistics.median(ts) * 1e3 for ts in zip(*norm)]
    by_kind = collections.defaultdict(list)
    for task, ms in zip(wl.tasks, best):
        by_kind[task.kind].append(ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": len(best) / (sum(best) / 1e3),
        "latency_p50_ms": hd_quantile(best, 0.5),
        "latency_p90_ms": hd_quantile(best, 0.9),
        "success_ratio": 1 - outcome.failed / outcome.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = [statistics.median(ts) * 1e3 for ts in zip(*raw)]
    report = [
        f"# {len(norm)} timed passes of {len(best)} tasks; a task's latency is the median of its"
        f" {len(norm)} scaled timings; {len(best) - int(0.9 * len(best))} tasks beyond p90",
        f"# set-up samples (s): {', '.join(f'{x:.3f}' for x in setup)}",
        f"# unscaled wall time: {len(best) / (sum(wall) / 1e3):.2f} tasks/s, p50 {statistics.median(wall):.3f} ms,"
        f" p90 {statistics.quantiles(wall, n=10)[-1]:.3f} ms",
    ]
    detail = {
        "latency_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "latency_ms_by_task": sorted(([t.kind, t.size, ms] for t, ms in zip(wl.tasks, best)), key=lambda r: r[2]),
    }
    return metrics, report, detail


def per_layer(wl, lib, seed: int, scale: str, outcome: Outcome, out_dir: str) -> tuple[dict, list[str], dict]:
    import probes
    import spans

    run_pass(lib, wl, outcome)  # warm-up
    settle()
    untraced = sum(run_pass(lib, wl, outcome)[1])

    counter = RuleCounter()
    with counter.attached(wl.evaluators):
        counted = sum(run_pass(lib, wl, outcome)[1])
    firings = sum(counter.rules.values())

    rec = spans.SpanRecorder()
    with spans.Instrumentation(rec, lib):
        spanned = sum(run_pass(lib, wl, outcome, rec)[1])

    p = probes.Probes(lib, seed, scale)
    metrics = dict(p.run())
    outcome.attempted += p.checks
    outcome.failed += p.failures
    if p.failures:
        outcome.messages.append(f"{p.failures} probe outputs differ from their references")
    metrics.update(
        {
            "interp.rule_firings": firings,
            "interp.fn_calls": sum(counter.rules[r] for r in CALL_RULES),
            "interp.ns_per_firing": untraced * 1e9 / max(firings, 1),
            "interp.trace_on_ratio": counted / untraced,
            "bench.trace_overhead_ratio": spanned / untraced,
        }
    )

    counts = rec.count_by_name()
    by_name = {n: ns for n, ns in rec.self_by_name().items() if counts[n]}
    layers = rec.self_by_layer()
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl.name}-s{seed}")
    rec.write_tsv(stem + ".spans.tsv")
    trace = {
        "pass_seconds": {"untraced": untraced, "rule_counting": counted, "spans": spanned},
        "spans": len(rec),
        "self_s_by_layer": layers,
        "self_s_by_span": {n: ns / 1e9 for n, ns in sorted(by_name.items(), key=lambda kv: -kv[1])},
        "span_counts": {n: c for n, c in counts.items() if c},
        "rule_firings": dict(counter.rules.most_common()),
    }
    share = sum(layers.values()) or 1.0
    report = [
        f"# passes (scaled s): untraced {untraced:.3f}, rule counting {counted:.3f}, spans {spanned:.3f}"
        f" ({len(rec)} spans, written to {stem}.spans.tsv)",
        "# self time by layer in the span pass: "
        + ", ".join(f"{k} {v:.4f} s ({100 * v / share:.1f}%)" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])),
    ]
    return metrics, report, trace


def run_benchmark(args, scale: str = "full", out_dir: str = OUT_DIR, setup_reps: int = SETUP_REPS, wl=None):
    """One run; returns the result object and the report lines before it."""
    rl = import_interpreter()
    import probes
    import workloads

    lib = workloads.Lib()
    if wl is None:
        wl = workloads.build_workload(args.workload, args.seed, scale, lib)
    own_setup = setup_seconds()
    meta = metadata(rl, args, wl, scale)
    outcome = Outcome()
    if args.trace:
        values, report, detail = per_layer(wl, lib, args.seed, scale, outcome, out_dir)
        units = dict(probes.per_layer_names())
    else:
        setup = [own_setup] + [setup_sample(args.workload, args.seed, scale) for _ in range(setup_reps)]
        values, report, detail = end_to_end(wl, lib, args.seconds, outcome, setup)
        units = dict(END_TO_END)
    gc.unfreeze()
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    meta["tasks_attempted"] = outcome.attempted
    lines = [f"# meta {json.dumps(meta, sort_keys=True)}"] + report
    lines.append(
        f"# failed_ratio {outcome.failed / outcome.attempted:.6f} ({outcome.failed} of {outcome.attempted})"
    )
    lines += [f"#   {m}" for m in outcome.messages]
    lines += [f"# {name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{wl.name}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "failures": outcome.messages, "detail": detail}, fh, indent=1)
    return result, lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="rascal-light benchmark")
    ap.add_argument("--workload", required=True, choices=("scalar", "build", "match", "meta"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        import_interpreter()
        import workloads

        workloads.build_workload(args.workload, args.seed, args.scale)
        print(json.dumps({"setup_s": setup_seconds()}))
        return 0
    result, lines = run_benchmark(args, args.scale)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
