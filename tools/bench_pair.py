"""Paired benchmark record: the committed HEAD against the working tree.

    python3 tools/bench_pair.py --number N

Runs ``python3 bench/run.py --workload W --seed SEED --seconds S --trace 0``,
S being ``run_seconds`` of ``BENCHMARK.json``, in an export of ``HEAD``
(``git archive``) and in the working tree: 10 pairs for every workload of
``BENCHMARK.json``, pair k on seed k (1 to 10).  Both sides of a pair use
the same seed, and the side that runs first alternates from pair to pair;
pairs cycle through the workloads, so slow spells of the machine spread
over all of them.

Writes ``BENCH_<N>.json`` at the repo root: for each workload and each
end-to-end metric of ``BENCHMARK.json``, the median and quartiles of each
side's successful runs, every run's value, and how many of the 10 pairs
the change won.  A run that fails loses its pair; ties, and pairs where
both runs fail, count for neither side.  A gain is resolved when the change
wins at least nine pairs in ten, the medians differ by more than the base's
interquartile range, and in no pair does the change fail a larger share of
its operations than the base (a failed run counts as failing them all).
The exported commit, the seeds, the command and the machine are recorded
with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(1, 11))


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit: str, dest: str) -> None:
    """The tree of ``commit``, unpacked into ``dest``."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run: its metric values, or why it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=10 * seconds + 120)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": "timed out"}
    if proc.returncode != 0:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def outcome(run: dict) -> dict:
    """A run without its metric values, which ``summarise`` lists per metric."""
    return {k: v for k, v in run.items() if k != "metrics"}


def failed_share(run: dict) -> float:
    return 1.0 if "error" in run else run["failed"] / max(run["attempted"], 1)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def change_wins(base: dict, change: dict, name: str, higher: bool) -> bool:
    if "error" in change:
        return False
    if "error" in base:
        return True
    b, c = base["metrics"][name], change["metrics"][name]
    return c > b if higher else c < b


def summarise(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median, quartiles and values over its
    successful runs, the pairs the change won, and whether that resolves a gain."""
    fails_more = any(failed_share(c) > failed_share(b) for b, c in runs)
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        sides = {}
        for side, idx in (("base", 0), ("change", 1)):
            xs = [pair[idx]["metrics"][name] for pair in runs if "metrics" in pair[idx]]
            if xs:
                q1, med, q3 = quartiles(xs)
                sides[side] = {"median": med, "q1": q1, "q3": q3, "values": xs}
        wins = sum(change_wins(b, c, name, higher) for b, c in runs)
        entry = {"unit": m["unit"], "better": m["better"], **sides, "pairs": len(runs), "change_won": wins}
        resolved = False
        if len(sides) == 2 and not fails_more:
            gap = sides["change"]["median"] - sides["base"]["median"]
            spread = sides["base"]["q3"] - sides["base"]["q1"]
            resolved = wins >= 0.9 * len(runs) and (gap if higher else -gap) > spread
        entry["gain_resolved"] = resolved
        out[name] = entry
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="paired benchmark record of HEAD and the working tree")
    ap.add_argument("--number", type=int, required=True, help="N of the BENCH_<N>.json written")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", "HEAD")

    runs: dict[str, list] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_dir:
        export(base_commit, base_dir)
        for k, seed in enumerate(SEEDS):
            for w in workloads:
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    got[side] = run_once(base_dir if side == "base" else ROOT, w, seed, seconds)
                runs[w].append((got["base"], got["change"]))
                print(f"pair {k + 1}/{len(SEEDS)} {w} seed {seed}: "
                      + ", ".join(
                          f"{s} {got[s]['metrics']['throughput_per_s']:.1f}/s" if "metrics" in got[s]
                          else f"{s} {got[s]['error']}" for s in ("base", "change")),
                      file=sys.stderr, flush=True)

    record = {
        "command": ["python3", "bench/run.py", "--workload", "W", "--seed", "SEED",
                    "--seconds", str(seconds), "--trace", "0"],
        "order": "pair k, counted from 0, runs the base first when k is even",
        "rule": "gain_resolved: the change wins >= 9/10 of the pairs (a failed run loses its pair), "
                "the medians differ by more than the base's interquartile range, and in no pair "
                "does the change fail a larger share of operations than the base",
        # The base is the export of this commit, made by git archive.
        "base": {"commit": base_commit},
        # The working tree: its HEAD, plus any changes not yet committed.
        "change": {"head": base_commit, "uncommitted_changes": bool(git("status", "--porcelain"))},
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform()},
        "pairs": len(SEEDS),
        "workloads": {
            w: {
                "seeds": list(SEEDS),
                "runs": [{side: outcome(r) for side, r in (("base", b), ("change", c))} for b, c in pairs],
                "metrics": summarise(pairs, bench["end_to_end"]),
            }
            for w, pairs in runs.items()
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
