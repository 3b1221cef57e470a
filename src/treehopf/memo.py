"""The memo policy of treehopf: every memo table and intern pool lives here.

Tables are plain unbounded dicts made by :func:`table`, which lists each one
in :data:`TABLES`; every write is ``cache.setdefault(key, value)``.
:func:`memoized` wraps a pure function whose result depends only on its
positional arguments.  Values are computed outside any lock: a racing
computation stores the same value, and the first one stored is kept and
returned to every racer, so an interned object stays unique and equality by
identity stays sound.
"""

from __future__ import annotations

import functools

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
