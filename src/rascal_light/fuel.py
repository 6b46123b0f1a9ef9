"""Fuel-instrumented evaluation utilities.

The evaluator itself threads the budget (see ``interp``); this module
provides the bounded-evaluation boundary, the search for minimal
sufficient fuel on the terminating subset, and a large-stack runner that
serves as the host-stack guard for effectively-unbounded evaluation.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable

from .interp import Evaluator
from .stackguard import HostStackGuard, stack_guarded  # HostStackGuard is re-exported
from .syntax import Expr, is_finite_subset
from .values import Result, Store, Timeout


def eval_expr_fuel(ev: Evaluator, e: Expr, store: Store, fuel: int) -> tuple[Result, Store]:
    """Evaluate with a recursion budget; exhaustion yields a timeout result
    with the store at the point of exhaustion (``Evaluator.evaluate``)."""
    return ev.evaluate(e, store, fuel)


_FUEL_CAP = 1 << 22


def min_sufficient_fuel(ev: Evaluator, e: Expr, store: Store) -> int:
    """Smallest budget at which ``e`` evaluates without timing out.

    Only defined on the terminating subset, where a sufficient finite
    budget is guaranteed to exist; found by doubling then binary search,
    up to ``_FUEL_CAP``.
    """
    if not is_finite_subset(e):
        raise ValueError("expression is outside the terminating subset")
    hi = 1
    while isinstance(eval_expr_fuel(ev, e, store, hi)[0], Timeout):
        hi *= 2
        if hi > _FUEL_CAP:
            raise RuntimeError(f"no sufficient fuel found below {_FUEL_CAP}")
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(eval_expr_fuel(ev, e, store, mid)[0], Timeout):
            lo = mid + 1
        else:
            hi = mid
    return hi


# The recursion limit is process-wide, so concurrent workers share one
# raised limit: the first worker to start raises it and the last one to
# finish restores it.  The lock guards the count and the saved limit, and
# is held while a worker starts, the only time the process-wide thread
# stack size differs from its old value.
_workers_lock = threading.Lock()
_workers = 0
_saved_limit = 0
# Whether the current thread is a worker.
_this_worker = threading.local()
# The stack of each worker thread.
_STACK_BYTES = 512 * 1024 * 1024


def _enter(recursion_limit: int) -> None:
    """Count a worker in (with the lock held)."""
    global _workers, _saved_limit
    if _workers == 0:
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(recursion_limit)
        _saved_limit = saved
    _workers += 1


def _leave() -> None:
    """Count a worker out (with the lock held)."""
    global _workers
    _workers -= 1
    if _workers == 0:
        sys.setrecursionlimit(_saved_limit)


def call_with_stack(fn: Callable, *args, recursion_limit: int = 1_000_000, **kwargs):
    """Run ``fn`` on a worker thread with a large stack and recursion limit.

    Deeply recursive evaluations (high fuel budgets, unbounded runs) need
    more stack than the main thread carries; RecursionError still surfaces
    as HostStackGuard.  Safe to call from several threads at once: while
    any worker runs, the limit is the one the first of them set.  Called on
    a worker whose limit is at least as large, ``fn`` runs on that worker,
    without a thread of its own.
    """
    out: dict = {}

    def run():
        try:
            out["value"] = stack_guarded(fn)(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - transported to caller
            out["error"] = exc

    def worker():
        _this_worker.active = True
        try:
            run()
        finally:
            with _workers_lock:
                _leave()

    if getattr(_this_worker, "active", False) and sys.getrecursionlimit() >= recursion_limit:
        run()
    else:
        t = threading.Thread(target=worker, name="rascal-light-eval")
        with _workers_lock:
            _enter(recursion_limit)
            try:
                old_size = threading.stack_size(_STACK_BYTES)
                try:
                    t.start()
                finally:
                    threading.stack_size(old_size)
            except BaseException:
                _leave()
                raise
        t.join()
    if "error" in out:
        raise out["error"]
    return out["value"]
