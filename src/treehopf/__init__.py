"""Exact Hopf-algebra computations on labeled rooted trees.

Submodules:

* ``trees``     canonical labeled rooted trees, forests, cuts, grafting
* ``ck``        the forest Hopf algebra (free commutative, admissible cuts)
* ``gl``        the grafting Hopf algebra (tree product, branch coproduct)
* ``duality``   the graded pairing between the two and its adjunctions
* ``series``    truncated power series over any unital algebra
* ``nsym``      noncommutative symmetric functions and QSym
* ``ncs``       the five generating functions, their axioms, specialization
* ``orderpoly`` order polynomials of forest posets and tree constants
* ``report``    the checked/failures report of the verification suites
* ``memo``      every memo table and intern pool, the ``memoized`` decorator,
                and ``collector_paused``: the entry points run with the cyclic
                collector off and restore it on return
* ``cli``       command-line front end
"""

__version__ = "0.1.0"

__all__ = [
    "trees",
    "ck",
    "gl",
    "duality",
    "series",
    "nsym",
    "ncs",
    "orderpoly",
    "report",
    "memo",
    "cli",
]
