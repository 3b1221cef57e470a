"""The memo policy of treehopf: every memo table and intern pool lives here.

Tables are plain dicts made by :func:`table`, which lists each one in
:data:`TABLES`; every write goes through :func:`put`, which honours the
``TREEHOPF_MEMO_LIMIT`` cap.  :func:`memoized` wraps a pure function whose
result depends only on its positional arguments.  Values are computed
outside any lock: a racing computation stores the same value, and the first
one stored is kept.
"""

from __future__ import annotations

import functools
import os


def _parse_memo_limit(raw: str) -> int | None:
    """Entries per memo table named by ``TREEHOPF_MEMO_LIMIT``; None means unbounded.

    Unset or 0 is unbounded.  Anything that is not an integer >= 0 is refused
    with a one-line ValueError rather than silently changing the tables.
    """
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"TREEHOPF_MEMO_LIMIT must be an integer >= 0, got {raw!r}")
    return limit or None


# Optional ceiling on memo-table sizes (entries per table); 0/unset = unbounded.
# Read once at import, so the check in put costs one comparison.
LIMIT = _parse_memo_limit(os.environ.get("TREEHOPF_MEMO_LIMIT", "0"))

TABLES: list[dict] = []


def table() -> dict:
    """A new empty memo table, listed in :data:`TABLES`."""
    new: dict = {}
    TABLES.append(new)
    return new


def put(cache: dict, key, value):
    """Store value under key unless the table holds LIMIT entries; return the kept value.

    When two threads race on one key the first stored value is kept and
    returned to both, so an interned object stays unique.
    """
    if LIMIT is None or len(cache) < LIMIT:
        return cache.setdefault(key, value)
    return value


def memoized(fn):
    """Memoize fn on its positional arguments in a table of its own.

    The result is a plain function with fn's name, module and docstring, and
    its table as ``.table``.  fn must never return None.
    """
    cache = table()
    get = cache.get

    @functools.wraps(fn)
    def wrapper(*args):
        got = get(args)
        if got is not None:
            return got
        return put(cache, args, fn(*args))

    wrapper.table = cache
    return wrapper
