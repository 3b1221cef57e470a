"""The memo policy of treehopf: every memo table and intern pool lives here.

Tables are plain unbounded dicts made by :func:`table`, which lists each one
in :data:`TABLES`; every write is ``cache.setdefault(key, value)``.
:func:`memoized` wraps a pure function whose result depends only on its
positional arguments, and :func:`bottom_up` one computed from the values of
a tree's children.  Values are computed outside any lock: a racing
computation stores the same value, and the first one stored is kept and
returned to every racer, so an interned object stays unique and equality by
identity stays sound.

Because these tables live for the whole process, a full cyclic collection
walks every entry and frees none of them.  So the entry points marked
:func:`collector_paused` (``cli.main``, ``ncs.build_omega`` and each suite
that ``verify`` runs) switch the collector off while they run and back on
when they return; what they allocated is then collected in one young pass
at the caller's next allocation.  No memo wrapper or kernel is paused, and
no threshold, freeze or explicit collection is ever touched.
"""

from __future__ import annotations

import functools
import gc

TABLES: list[dict] = []


def table() -> dict:
    """A new empty memo table, listed in :data:`TABLES`."""
    new: dict = {}
    TABLES.append(new)
    return new


def memoized(fn):
    """Memoize fn on its positional arguments in a table of its own.

    The result is a plain function with fn's name, module and docstring, and
    its table as ``.table``.  fn must never return None.
    """
    cache = table()
    get = cache.get
    put = cache.setdefault

    @functools.wraps(fn)
    def wrapper(*args):
        got = get(args)
        if got is not None:
            return got
        return put(args, fn(*args))

    wrapper.table = cache
    return wrapper


def bottom_up(combine):
    """The function f(t, *args) = combine(t, [f(c, *args) for c in t.children], *args).

    It is memoized on ``(t, *args)`` in a table of its own, ``.table``, and
    named and documented as combine.  The distinct subtrees whose values are
    missing are filled children first on an explicit stack, so a tree of any
    depth costs no interpreter stack.  combine must never return None.
    """
    cache = table()
    get = cache.get
    put = cache.setdefault

    @functools.wraps(combine)
    def wrapper(*key):
        got = get(key)
        if got is not None:
            return got
        args = key[1:]
        stack = [key[0]]
        while stack:
            u = stack[-1]
            if (u,) + args in cache:
                stack.pop()
                continue
            kids = [(c,) + args for c in u.children]
            pending = [k[0] for k in kids if k not in cache]
            if pending:
                stack.extend(pending)
            else:
                stack.pop()
                put((u,) + args, combine(u, [cache[k] for k in kids], *args))
        return cache[key]

    wrapper.table = cache
    return wrapper


def collector_paused(fn):
    """fn with the cyclic collector off while it runs, restored on return.

    If the collector is on at entry it is switched off and, however fn
    exits, back on.  If it is already off (the caller's choice, an outer
    paused call, or another thread's) nothing is touched, so a nested call
    costs one ``gc.isenabled()``.  The collector is global: under threads,
    the outermost paused call turns it back on when it returns, possibly
    while another thread's paused call is still running.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return wrapper
