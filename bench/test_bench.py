"""Self-test of the benchmark at tiny scale.

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a wrong reference shows up as a failure, and that a seed fixes the
task list and the exact counts.  Run with ``python -m pytest bench``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from rascal_light.values import Basic  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(tmp_path, workload, trace, seed=3, wl=None):
    args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    return run.run_benchmark(args, scale="tiny", out_dir=str(tmp_path), setup_reps=1, wl=wl)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload):
    declared = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = bench(tmp_path, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
            assert any(line.startswith(f"# {name} = ") for line in lines), name


def test_wrong_reference_shows_in_failed_ratio(tmp_path):
    lib = workloads.Lib()
    wl = workloads.build_workload("scalar", 3, "tiny", lib)
    ev = wl.evaluators[0]
    # fib(10) is 55, not 56.
    wrong = workloads.call_task(ev, ev.init_globals(), "fib.wrong", 10, "fib", workloads.ints(10), workloads.equals(Basic(56)))
    wl.tasks.append(wrong)
    result, lines = bench(tmp_path, "scalar", 0, wl=wl)
    passes = result["attempted"] // len(wl.tasks)
    assert result["attempted"] == passes * len(wl.tasks)
    assert result["failed"] == passes and not result["correct"]
    ratio = result["metrics"]["success_ratio"]["value"]
    assert ratio == pytest.approx(1 - 1 / len(wl.tasks))
    assert any("fib.wrong(10): output differs" in line for line in lines)


def test_seed_fixes_tasks_and_exact_counts(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build_workload(name, 5, "tiny")
        b = workloads.build_workload(name, 5, "tiny")
        c = workloads.build_workload(name, 6, "tiny")
        assert a.describe() == b.describe()
        assert a.describe() != c.describe()
    counts = ("interp.rule_firings", "interp.fn_calls", "patterns.match.envs")
    for name in ("match", "meta"):
        first, _ = bench(tmp_path, name, 1, seed=5)
        again, _ = bench(tmp_path, name, 1, seed=5)
        for metric in counts:
            assert first["metrics"][metric]["value"] == again["metrics"][metric]["value"] > 0, metric
