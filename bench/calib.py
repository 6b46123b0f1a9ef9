"""Machine-speed calibration for timings on a shared machine.

On the shared 2-vCPU virtual machine this benchmark was built on (Intel
Xeon, Python 3.11.7), other tenants slow a run down by up to 2x, in bursts
that last from milliseconds to minutes; CPU time slows down with wall time,
so it is no remedy.  A fixed loop, timed between pieces of work, measures
how fast the machine runs at the time.  ``nominal`` converts wall time to
the time the work takes when the loop runs at ``NOMINAL_S``, its
uncontended time on that machine.  The median of the loop's timings over
a pass of about a hundred tasks gives the factor; scaling each task by the
loop runs right next to it was measured to be noisier, because one short
run of the loop is itself noisy.

The loop is a tiny tree-walking evaluator plus a subset enumeration with
environment merges, the two kinds of work the interpreter spends its time
on, so it slows down under contention much as the interpreter does (it
tracked evaluation and matching tasks better than either half alone).  It
is part of the benchmark, never of the program under test, so two commits
measured this way compare directly.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.8e-3


@dataclass(frozen=True)
class _Num:
    v: int


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _If:
    cond: object
    then: object
    els: object


@dataclass(frozen=True)
class _Call:
    arg: object


@dataclass(frozen=True)
class _Res:
    v: object


# fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)
_FIB = _If(
    _Bin("<", _Var("n"), _Num(2)),
    _Var("n"),
    _Bin("+", _Call(_Bin("-", _Var("n"), _Num(1))), _Call(_Bin("-", _Var("n"), _Num(2)))),
)


def _eval(e, env: dict):
    if isinstance(e, _Num):
        return _Res(e.v), env
    if isinstance(e, _Var):
        return _Res(env[e.name]), env
    if isinstance(e, _Bin):
        a, env = _eval(e.left, env)
        b, env = _eval(e.right, env)
        if e.op == "+":
            return _Res(a.v + b.v), env
        if e.op == "-":
            return _Res(a.v - b.v), env
        return _Res(a.v < b.v), env
    if isinstance(e, _If):
        c, env = _eval(e.cond, env)
        return _eval(e.then if c.v else e.els, env)
    a, env = _eval(e.arg, env)
    r, _ = _eval(_FIB, dict(env, n=a.v))
    return r, env


def _merge(a: dict, b: dict):
    for name, v in a.items():
        if name in b and b[name] != v:
            return None
    out = dict(a)
    out.update(b)
    return out


def _splits(vals: tuple) -> list[dict]:
    """Every subset/complement split of ``vals``, largest subset first, as
    merged environments."""
    indexed = list(enumerate(vals))
    envs = []
    for k in range(len(vals) + 1):
        for picked in itertools.combinations(indexed, k):
            chosen = {i for i, _ in picked}
            sub = tuple(v for i, v in indexed if i in chosen)
            rest = tuple(v for i, v in indexed if i not in chosen)
            env = _merge({"xs": sub}, {"ys": rest})
            if env is not None:
                envs.append(env)
    return envs[::-1]


def calibration() -> float:
    """Seconds one run of the calibration loop takes right now."""
    t0 = perf_counter()
    _eval(_FIB, {"n": 9})
    _splits(tuple(range(7)))
    return perf_counter() - t0


def nominal(seconds: float, cals: list[float]) -> float:
    """``seconds`` of wall time converted to nominal speed, by the median of
    the calibration timings taken around the work."""
    return seconds * NOMINAL_S / statistics.median(cals)
