"""Fuel-instrumented evaluation utilities.

The evaluator itself threads the budget (see ``interp``); this module
provides the bounded-evaluation boundary, the search for minimal
sufficient fuel on the terminating subset, and a large-stack runner that
serves as the host-stack guard for effectively-unbounded evaluation.

The runner (``call_with_stack``) keeps one parked worker: a daemon thread
with a 512 MiB stack that waits for the next call's job, so a call pays a
hand-off, not a thread start.  The first call starts it; a call made
while it is busy starts another, which after its job parks in the empty
slot or exits, so the process keeps at most one idle worker.  Being a
daemon, a parked worker never keeps the interpreter alive.  A fork hook
drops it in the child, which has no such thread, and resets the job count,
the saved limit and the lock.  The stack pages a deep run touched stay resident while
the worker is parked.
"""

from __future__ import annotations

import os
import queue
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


# The recursion limit is process-wide, so concurrent jobs share one raised
# limit: the first job to start raises it and the last one to finish
# restores it.  The lock guards the count of running jobs, the saved limit
# and the parked worker, and is held while a worker starts, the only time
# the process-wide thread stack size differs from its old value.
_workers_lock = threading.Lock()
_workers = 0
_saved_limit = 0
# The idle worker, if any: the process keeps at most one.
_parked: _Worker | None = None
# Whether the current thread is a worker.
_this_worker = threading.local()
# The stack and the recursion limit of each worker thread.
_STACK_BYTES = 512 * 1024 * 1024
_RECURSION_LIMIT = 1_000_000


def _enter() -> None:
    """Count a job in (with the lock held)."""
    global _workers, _saved_limit
    if _workers == 0:
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(_RECURSION_LIMIT)
        _saved_limit = saved
    _workers += 1


def _leave() -> None:
    """Count a job out (with the lock held)."""
    global _workers
    _workers -= 1
    if _workers == 0:
        sys.setrecursionlimit(_saved_limit)


class _Worker(threading.Thread):
    """A large-stack daemon thread that runs jobs one at a time.  After a
    job it counts the job out and parks itself if no worker is parked (and
    exits otherwise), then wakes the job's caller: so the next call finds
    it parked, and a caller that stops waiting never parks a busy worker."""

    def __init__(self) -> None:
        super().__init__(name="rascal-light-eval", daemon=True)
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()

    def run(self) -> None:
        global _parked
        _this_worker.active = True
        while True:
            job, done = self.jobs.get()
            job()
            with _workers_lock:
                _leave()
                park = _parked is None
                if park:
                    _parked = self
            done.release()
            if not park:
                return


def _start_worker() -> _Worker:
    """A new worker, started with the large stack (with the lock held)."""
    worker = _Worker()
    old_size = threading.stack_size(_STACK_BYTES)
    try:
        worker.start()
    finally:
        threading.stack_size(old_size)
    return worker


def _forget_workers() -> None:
    """After a fork, in the child.  Only the forking thread lives on there:
    no worker is parked, the lock may be held by a thread that is gone, and
    a job still runs only if the fork was made inside one."""
    global _workers_lock, _workers, _saved_limit, _parked
    _workers_lock = threading.Lock()
    _parked = None
    if getattr(_this_worker, "active", False):
        _workers = 1
    else:
        if _workers:
            sys.setrecursionlimit(_saved_limit)
        _workers = _saved_limit = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def call_with_stack(fn: Callable, *args, **kwargs):
    """Run ``fn`` on a worker thread with a large stack and recursion limit.

    Deeply recursive evaluations (high fuel budgets, unbounded runs) need
    more stack than the main thread carries; RecursionError still surfaces
    as HostStackGuard, and any other exception ``fn`` raises is raised
    here.  The call hands ``fn`` to the parked worker and waits for it; a
    worker is started only when none is parked (the first call, or a call
    while the parked one is busy), and after its job it parks itself in the
    empty slot or exits.  Workers are daemon threads, so a parked one never
    keeps the interpreter alive; a forked child starts with none.  The
    stack pages a deep run touched stay resident while its worker is
    parked.  Safe to call from several threads at once: while any job runs,
    the limit is the one the first of them set, and with none running it is
    the caller's.  Called on a worker whose limit is at least as large,
    ``fn`` runs on that worker, inline.
    """
    global _parked
    out: dict = {}

    def run():
        try:
            out["value"] = stack_guarded(fn)(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - transported to caller
            out["error"] = exc

    if getattr(_this_worker, "active", False) and sys.getrecursionlimit() >= _RECURSION_LIMIT:
        run()
    else:
        done = threading.Lock()
        done.acquire()
        with _workers_lock:
            _enter()
            try:
                worker = _parked or _start_worker()
            except BaseException:
                _leave()
                raise
            _parked = None
            worker.jobs.put((run, done))
        done.acquire()
    if "error" in out:
        raise out["error"]
    return out["value"]
