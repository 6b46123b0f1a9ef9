"""``tools/bench_pair.py``'s no-regression check on synthetic runs."""

from __future__ import annotations

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pair.py")
_spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "success_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def _run(seed: int, setup_s: float, success_ratio: float) -> dict:
    return {
        "seed": seed,
        "attempted": 100,
        "failed": round(100 * (1 - success_ratio)),
        "metrics": {"setup_s": setup_s, "success_ratio": success_ratio},
    }


def _summary(setup_factor: float, success_ratio: float) -> dict:
    # Ten pairs whose base spreads a little around 0.1 s, the change a
    # fixed factor off each pair's base.
    pairs = []
    for k in range(10):
        base = 0.1 * (1 + (k - 4.5) / 100)
        pairs.append((_run(k + 1, base, 1.0), _run(k + 1, base * setup_factor, success_ratio)))
    return bench_pair.summarise(pairs, METRICS)


def test_a_metric_worse_than_its_bound_is_flagged():
    out = _summary(1.3, 0.98)
    assert abs(out["setup_s"]["worse_by"] - 0.3) < 1e-9
    assert out["setup_s"]["within_bound"] is False
    assert abs(out["success_ratio"]["worse_by"] - 0.02) < 1e-9
    assert out["success_ratio"]["within_bound"] is False
    lines = bench_pair.outside_bound({"build": {"metrics": out}})
    assert lines == ["build setup_s: worse by 30.0%, bound 25%", "build success_ratio: worse by 2.0%, bound 1%"]


def test_a_metric_within_its_bound_is_not_flagged():
    out = _summary(1.1, 1.0)
    assert abs(out["setup_s"]["worse_by"] - 0.1) < 1e-9
    assert out["setup_s"]["within_bound"] is True
    assert out["success_ratio"]["worse_by"] == 0 and out["success_ratio"]["within_bound"] is True
    # Better is negative, and within any bound; 20% faster in every pair
    # is a resolved gain, 10% slower is not.
    better = _summary(0.8, 1.0)["setup_s"]
    assert better["worse_by"] < 0 and better["within_bound"] is True
    assert better["gain_resolved"] is True and out["setup_s"]["gain_resolved"] is False
    assert bench_pair.outside_bound({"build": {"metrics": out}}) == []


def test_a_change_without_a_successful_run_is_flagged():
    pairs = [(_run(k, 0.1, 1.0), {"seed": k, "error": "exit 1"}) for k in range(1, 11)]
    out = bench_pair.summarise(pairs, METRICS)
    assert out["setup_s"]["worse_by"] is None and out["setup_s"]["within_bound"] is False
    assert bench_pair.outside_bound({"meta": {"metrics": out}})[0] == "meta setup_s: no successful run, bound 25%"
