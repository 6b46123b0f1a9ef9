"""The host-stack guard: the diagnostic for input or evaluation nested
deeper than the Python stack allows, and the decorator that gives it to
the library's recursive entry points (parsing and module analysis)."""

from __future__ import annotations

import functools


class HostStackGuard(Exception):
    """The host interpreter ran out of stack.

    A resource diagnostic for unbounded (or absurdly-fueled) runs; distinct
    from an in-band timeout, which is part of the bounded semantics.
    """


def stack_guarded(entry):
    """Input nested deeper than the host stack allows raises HostStackGuard
    from ``entry``, as it does from ``fuel.call_with_stack``."""

    @functools.wraps(entry)
    def guarded(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except RecursionError:
            raise HostStackGuard("host stack exhausted") from None

    return guarded
