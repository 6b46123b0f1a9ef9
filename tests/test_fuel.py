import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

from rascal_light import fuel
from rascal_light.fuel import (
    HostStackGuard,
    call_with_stack,
    eval_expr_fuel,
    min_sufficient_fuel,
)
from rascal_light.interp import Evaluator, InitError
from rascal_light.parser import parse_expr, parse_module
from rascal_light.values import Basic, Store, Success, TIMEOUT

EMPTY = Evaluator(parse_module(""))


def b(x):
    return Basic(x)


def test_zero_fuel_always_times_out():
    for text in ("1", "1 + 1", "while (true()) 1", "fail"):
        res, _ = eval_expr_fuel(EMPTY, parse_expr(text), Store(), 0)
        assert res == TIMEOUT


def test_shallow_expression_matches_unfueled():
    e = parse_expr("1 + 1")
    bounded, _ = eval_expr_fuel(EMPTY, e, Store(), 10)
    unbounded, _ = EMPTY.evaluate(e, Store())
    assert bounded == unbounded == Success(b(2))


def test_divergent_loop_times_out_at_any_budget():
    e = parse_expr("while (true()) 1")
    for n in (1, 10, 1000):
        res, _ = eval_expr_fuel(EMPTY, e, Store(), n)
        assert res == TIMEOUT


def test_min_sufficient_fuel_literal():
    assert min_sufficient_fuel(EMPTY, parse_expr("1"), Store()) == 1


def test_min_sufficient_fuel_list():
    # Hand-derived from the budget discipline: the literal list spends one
    # level entering, one per element premise, plus the element leaves and
    # the final empty-tail step.
    e = parse_expr("[1, 2, 3]")
    n = min_sufficient_fuel(EMPTY, e, Store())
    assert n == 5
    assert eval_expr_fuel(EMPTY, e, Store(), n)[0] != TIMEOUT
    assert eval_expr_fuel(EMPTY, e, Store(), n - 1)[0] == TIMEOUT


def test_min_sufficient_fuel_rejects_nonfinite():
    with pytest.raises(ValueError):
        min_sufficient_fuel(EMPTY, parse_expr("while (true()) 1"), Store())


def test_timeout_carries_store_at_exhaustion():
    m = parse_module("global int g = 0;")
    ev = Evaluator(m)
    store = ev.init_globals()
    e = parse_expr("local in g = 7; while (true()) 1 end", m)
    res, out = eval_expr_fuel(ev, e, store, 500)
    assert res == TIMEOUT
    assert out.get("g") == b(7)  # progress before exhaustion is visible


def test_conservativity_spot():
    texts = (
        "1 + 2 * 3",
        "switch ({1, 2}) { case {*a, *c} => a }",
        "bottom-up visit ([1, [2]]) { case 2 => 9 }",
        "local int q in q = 0; while (q < 3) q = q + 1; q end",
    )
    for text in texts:
        e = parse_expr(text)
        free, free_store = EMPTY.evaluate(e, Store())
        n = 1
        while True:
            res, st = eval_expr_fuel(EMPTY, e, Store(), n)
            if res != TIMEOUT:
                break
            n *= 2
        assert res == free and st == free_store


def test_monotonicity_spot():
    e = parse_expr("[1, 2, 3]")
    base = None
    for n in (5, 6, 7, 50, 1000):
        res, _ = eval_expr_fuel(EMPTY, e, Store(), n)
        assert res != TIMEOUT
        base = base or res
        assert res == base


def test_host_stack_guard_is_distinct_from_timeout():
    m = parse_module("int spin(int n) = spin(n);")
    ev = Evaluator(m)
    e = parse_expr("spin(1)", m)
    with pytest.raises(HostStackGuard):
        eval_expr_fuel(ev, e, ev.init_globals(), 1 << 30)


# -- the evaluation boundary ---------------------------------------------

NAT = parse_module(
    "data Nat = zero() | succ(Nat pred);\n"
    "Nat nat(int n) = if n == 0 then zero() else succ(nat(n - 1));\n"
    "global int g = 1 + 2 + 3;"
)


def _entry_points(n):
    """Each entry point as a function of the budget; all but init_globals
    evaluate nat(n)."""
    ev, store = Evaluator(NAT), Store({"g": b(6)})
    e = parse_expr(f"nat({n})", NAT)
    cases = parse_expr(f"switch (0) {{ case _ => nat({n}) }}", NAT).cases
    return {
        "evaluate": lambda fuel: ev.evaluate(e, store, fuel),
        "call_function": lambda fuel: ev.call_function("nat", (b(n),), store, fuel),
        "run_cases": lambda fuel: ev.run_cases(cases, b(0), store, fuel),
        "init_globals": lambda fuel: ev.init_globals(fuel),
        "eval_expr_fuel": lambda fuel: eval_expr_fuel(ev, e, store, fuel),
    }


@pytest.mark.parametrize("entry", ["evaluate", "call_function", "run_cases", "init_globals", "eval_expr_fuel"])
def test_a_budget_is_a_natural_number(entry):
    run = _entry_points(3)[entry]
    for fuel in (-1, -5):
        with pytest.raises(ValueError, match="^fuel must be a natural number$"):
            run(fuel)


def test_init_timeout_is_an_init_error():
    ev = Evaluator(NAT)
    with pytest.raises(InitError) as exc:
        ev.init_globals(1)
    assert exc.value.name == "g" and exc.value.result == TIMEOUT
    assert ev.init_globals(5).get("g") == b(6)


@pytest.mark.parametrize("entry", ["evaluate", "call_function", "run_cases", "eval_expr_fuel"])
@pytest.mark.parametrize("fuel", [None, 10**6])
def test_every_entry_point_guards_the_host_stack(entry, fuel):
    # At Python's default recursion limit nat(3000) needs more stack than
    # the host gives; the boundary reports that as HostStackGuard.
    run = _entry_points(3000)[entry]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(HostStackGuard, match="^host stack exhausted$"):
            run(fuel)
    finally:
        sys.setrecursionlimit(limit)


def test_init_globals_guards_the_host_stack():
    # An initializer cannot call a function, so it nests 3000 negations.
    ev = call_with_stack(lambda: Evaluator(parse_module("global int g = " + "- " * 3000 + "1;")))
    assert call_with_stack(ev.init_globals).get("g") == b(1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(HostStackGuard, match="^host stack exhausted$"):
            ev.init_globals()
    finally:
        sys.setrecursionlimit(limit)


def test_call_with_stack_runs_deep():
    def deep(n):
        if n == 0:
            return 0
        return deep(n - 1)

    assert call_with_stack(deep, 100_000) == 0


def test_call_with_stack_propagates_exceptions():
    def boom():
        raise ValueError("inner")

    with pytest.raises(ValueError):
        call_with_stack(boom)


def test_nested_call_with_stack_runs_on_its_worker():
    import threading

    def deep(n):
        return 0 if n == 0 else deep(n - 1)

    def nested():
        here = threading.get_ident()
        assert call_with_stack(threading.get_ident) == here
        return call_with_stack(deep, 100_000)

    assert call_with_stack(nested) == 0


def _live_workers():
    return [t for t in threading.enumerate() if t.name == "rascal-light-eval"]


def test_overlapping_callers_share_the_raised_limit():
    # Four callers whose workers overlap: each worker exits while the next
    # one is still running, and that next one then recurses 5000 deep.  A
    # worker that restored the limit it found on entry would put the
    # lowered limit back under the one still running.
    import sys
    import threading

    def deep(n):
        return 0 if n == 0 else deep(n - 1)

    limit, size = sys.getrecursionlimit(), threading.stack_size()
    entered = [threading.Event() for _ in range(4)]
    go = [threading.Event() for _ in range(4)]
    errors = []

    def body(i):
        entered[i].set()
        assert go[i].wait(timeout=60)
        return deep(5000)

    def caller(i):
        try:
            assert call_with_stack(body, i) == 0
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append((i, exc))

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
    sys.setrecursionlimit(1000)
    try:
        callers[0].start()
        assert entered[0].wait(timeout=60)
        for i in range(1, 4):
            callers[i].start()
            assert entered[i].wait(timeout=60)
            go[i - 1].set()
            callers[i - 1].join(timeout=60)
        go[3].set()
        callers[3].join(timeout=60)
        after = sys.getrecursionlimit(), threading.stack_size()
    finally:
        for e in go:
            e.set()
        sys.setrecursionlimit(limit)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert after == (1000, size)
    # The busy callers each started a worker; once all are done, one stays
    # parked and the others have exited.
    deadline = time.monotonic() + 10
    while len(_live_workers()) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(_live_workers()) <= 1
    assert fuel._workers == 0 and threading.stack_size() == size


def test_consecutive_calls_share_one_parked_daemon_worker():
    first = call_with_stack(threading.current_thread)
    second = call_with_stack(threading.current_thread)
    assert first is second and first is not threading.current_thread()
    assert first.daemon and first.is_alive()


def test_an_interrupted_caller_leaves_no_busy_worker_parked():
    # The caller is interrupted while it waits; its job runs on, and the
    # next call must not be handed that busy worker.
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    limit = sys.getrecursionlimit()
    started, release = threading.Event(), threading.Event()
    busy = []

    def slow():
        busy.append(threading.current_thread())
        started.set()
        assert release.wait(timeout=60)

    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(Interrupted):
            call_with_stack(slow)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    timer = threading.Timer(30, release.set)  # a wrong hand-off would hang
    timer.start()
    try:
        assert started.is_set() and not release.is_set()
        assert call_with_stack(threading.current_thread) is not busy[0]
        assert not release.is_set()
    finally:
        release.set()
        timer.cancel()
    deadline = time.monotonic() + 10
    while fuel._workers and time.monotonic() < deadline:
        time.sleep(0.01)
    assert fuel._workers == 0 and sys.getrecursionlimit() == limit


def test_calls_after_a_fork_return_in_the_child():
    call_with_stack(int)  # a worker is parked before the fork
    with warnings.catch_warnings():
        # Forking a process with threads warns from Python 3.12 on.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if call_with_stack(lambda: 6 * 7) == 42 and call_with_stack(int) == 0 else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's call_with_stack did not return")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_parked_worker_does_not_keep_the_process_alive():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "from rascal_light import call_with_stack; print(call_with_stack(lambda: 42))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "42\n"), proc.stderr
    assert time.monotonic() - start < 10
