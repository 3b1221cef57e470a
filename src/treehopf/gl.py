"""The Grossman-Larson Hopf algebra of grafting-rooted labeled trees.

Elements are keyed by the branch forest of a 0-rooted tree (so the empty
forest is the unit, the bare grafting root).  Two coordinate systems are
supported and never mixed implicitly: the plain tree basis ``T`` and the
divided basis ``V`` whose basis vectors are trees divided by their
automorphism count.  The product grafts the branches of the left factor onto
the vertices of the right factor in all possible ways, built one branch at a
time by the Oudom-Guin recursion of the pre-Lie insertion; a second,
independent implementation recovers the same structure constants by scanning
admissible cuts of candidate result trees.  The coproduct splits the branch
multiset over all ordered bipartitions.  The antipode follows the same
pre-Lie identity: one branch grafted back onto the rest rebuilds the tree
plus trees with one branch fewer, whose antipodes are memoized in V; it
never splits a forest, so the coproduct-based recurrence stays an
independent check.

Every operation here runs on the integer form of :mod:`treehopf.linear`:
products sum numerators times integer structure constants, the coproduct
reads a table of branch splits, the basis changes scale numerators by
automorphism counts over one denominator, and both antipodes sum products
with integer signs.  Only ``mul_structure``, the oracle, sums Fractions.
Product tables and antipodes are kept in V alone, the graded dual of the
forest algebra, where each product constant counts admissible cuts; a T
product or antipode converts to V once on entry and back once on exit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm, prod

from . import memo
from .linear import LinComb, combine, format_linear
from .series import LinCombOps, TruncSeries
from .trees import (
    EMPTY_FOREST,
    Forest,
    LabeledTree,
    bplus,
    branch_forest,
    cut_results,
    enumerate_bplus_trees,
    forest,
    forest_automorphisms,
    forest_text,
    graft_positions,  # re-exported: the per-assignment oracle of the product tables
    insert_scion,
    label_values,
    _require_grafting_root,
)

V_BASIS = "V"
T_BASIS = "T"


def _check_basis(basis: str):
    if basis not in (V_BASIS, T_BASIS):
        raise ValueError(f"unknown basis {basis!r}; use {V_BASIS!r} or {T_BASIS!r}")


class _BasisLinComb(LinComb):
    """A combination written in one of the two bases; bases never mix."""

    __slots__ = ("basis",)

    def __init__(self, terms=None, basis: str = V_BASIS):
        _check_basis(basis)
        super().__init__(terms)
        self.basis = basis

    @classmethod
    def from_ints(cls, den: int, acc: dict, basis: str = V_BASIS):
        _check_basis(basis)
        out = super().from_ints(den, acc)
        out.basis = basis
        return out

    def _like(self, den, acc):
        return self.from_ints(den, acc, self.basis)

    def _check_compatible(self, other):
        if type(self) is not type(other) or self.basis != other.basis:
            super()._check_compatible(other)
            raise TypeError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        if self.basis != other.basis:
            raise TypeError(f"cannot compare {self.basis}-basis with {other.basis}-basis")
        return super().__eq__(other)


class GLElem(_BasisLinComb):
    """Rational combination of grafting-rooted trees, keyed by branch forest."""

    __slots__ = ()

    def sorted_terms(self) -> list[tuple[Forest, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].weight, kv[0]._key))


class GLTensor(_BasisLinComb):
    """Element of the tensor square, keyed by ordered pairs of branch forests."""

    __slots__ = ()


def unit(basis: str = V_BASIS) -> GLElem:
    return GLElem.from_ints(1, {EMPTY_FOREST: 1}, basis)


def zero(basis: str = V_BASIS) -> GLElem:
    return GLElem.from_ints(1, {}, basis)


def from_bplus_tree(t: LabeledTree, basis: str = V_BASIS) -> GLElem:
    _require_grafting_root(t)
    return GLElem.from_ints(1, {branch_forest(t): 1}, basis)


def from_branches(f: Forest, basis: str = V_BASIS) -> GLElem:
    return GLElem.from_ints(1, {f: 1}, basis)


# The automorphism count of the grafting-rooted tree with branch forest f.
alpha = forest_automorphisms


def to_v_basis(a: GLElem) -> GLElem:
    if a.basis == V_BASIS:
        return a
    den, nums = a.ints
    return GLElem.from_ints(den, {f: n * alpha(f) for f, n in nums}, V_BASIS)


def to_t_basis(a: GLElem) -> GLElem:
    if a.basis == T_BASIS:
        return a
    den, nums = a.ints
    scale = lcm(*[alpha(f) for f, _ in nums])
    return GLElem.from_ints(den * scale, {f: n * (scale // alpha(f)) for f, n in nums}, T_BASIS)


# ---------------------------------------------------------------------------
# Product: grafting route and structure-constant route
# ---------------------------------------------------------------------------

@memo.memoized
def _product_table(left: Forest, right: Forest) -> tuple[tuple[Forest, int], ...]:
    # V-basis structure constants of two basis trees, memoized on the pair
    # of branch forests.  The constant c at f is the admissible-cut count of
    # _structure_table, so an integer; the graft count is c * alpha(left) *
    # alpha(right) / alpha(f).  A one-tree left factor [x] has the graft
    # counts of insert_scion(x, right, True).  With more trees, left = rest
    # + x, x its largest scion: attaching x at any vertex of a result of rest
    # lands it on the stock or inside a scion of rest, and the second kind is
    # what grafting rest with x already inserted counts:
    #     (x rest) o right = x ~> (rest o right) - (x ~> rest) o right,
    # where x ~> F attaches x at one vertex of F: the root of the result
    # counts as a vertex in the first term, and rest has none.
    if not left.trees:
        return ((right, 1),)
    if not right.trees:
        return ((left, 1),)
    x = left.trees[-1]
    a_right = alpha(right)
    if len(left.trees) == 1:
        flat = iter(insert_scion(x, right, True))
        counts = ((r, m * alpha(r)) for r, m in zip(flat, flat))
    else:
        rest = forest(left.trees[:-1])
        grafted: dict[Forest, int] = {}  # graft counts of the first term
        get = grafted.get
        scale = alpha(rest) * a_right
        for f, c in _product_table(rest, right):
            n = c * scale // alpha(f)
            flat = iter(insert_scion(x, f, True))
            for r, m in zip(flat, flat):
                grafted[r] = get(r, 0) + n * m
        inner: dict[Forest, int] = {}  # second-term counts times alpha(result) / alpha(right)
        get = inner.get
        flat = iter(insert_scion(x, rest, False))
        for a, m in zip(flat, flat):
            m *= alpha(a)
            for r, c in _product_table(a, right):
                inner[r] = get(r, 0) + m * c
        counts = ((r, n * alpha(r) - inner.get(r, 0) * a_right) for r, n in grafted.items())
    scale = alpha(left) * a_right
    out = []
    for r, n in counts:
        c, rem = divmod(n, scale)
        if rem:
            raise ArithmeticError(
                f"V-basis constant of {forest_text(left)} * {forest_text(right)} "
                f"at {forest_text(r)} is not an integer"
            )
        if c:
            out.append((r, c))
    return tuple(out)


def _in_basis(x: GLElem, basis: str) -> GLElem:
    # x, which must be a GLElem written in basis.
    if type(x) is not GLElem or x.basis != basis:
        zero(basis)._check_compatible(x)
    return x


def dot(pairs, basis: str = V_BASIS) -> GLElem:
    """The sum of x * y over the (x, y) in pairs, all written in basis, built in one pass.

    A T-basis sum is taken in V, where the product tables are.  Every
    factor's integer form is brought to one common denominator, so each
    product of numerators times an integer structure constant is summed into
    one int per result key; the sums are reduced once.  A term with the unit
    as one factor is the other factor, so it is summed straight in.
    """
    if basis == T_BASIS:
        v = [(to_v_basis(_in_basis(x, basis)), to_v_basis(_in_basis(y, basis))) for x, y in pairs]
        return to_t_basis(dot(v))
    factors = []
    den = 1
    for x, y in pairs:
        (dx, xs), (dy, ys) = _in_basis(x, basis).ints, _in_basis(y, basis).ints
        factors.append((dx * dy, xs, ys))
        den = lcm(den, dx * dy)
    acc: dict[Forest, int] = {}
    get = acc.get
    for dxy, xs, ys in factors:
        m = den // dxy
        for fa, na in xs:
            if fa is EMPTY_FOREST:
                for fb, nb in ys:
                    acc[fb] = get(fb, 0) + m * na * nb
                continue
            for fb, nb in ys:
                nab = m * na * nb
                if fb is EMPTY_FOREST:
                    acc[fa] = get(fa, 0) + nab
                    continue
                for key, c in _product_table(fa, fb):
                    acc[key] = get(key, 0) + nab * c
    return GLElem.from_ints(den, acc, basis)


def mul(a: GLElem, b: GLElem) -> GLElem:
    """Grafting product; both factors must be written in the same basis."""
    return dot(((a, b),), a.basis)


@memo.memoized
def _structure_table(left: Forest, right: Forest) -> tuple[tuple[Forest, int], ...]:
    # Divided-basis structure constants: the coefficient of a candidate tree
    # is the number of its admissible cuts whose pruned part re-roots to the
    # left factor and whose trunk is the right factor.
    if not left.trees:
        return ((right, 1),)
    if not right.trees:
        return ((left, 1),)
    labels = label_values(left) | label_values(right)
    total = left.weight + right.weight
    stock = bplus(right)
    out = []
    for cand in enumerate_bplus_trees(sorted(labels), total):
        count = sum(n for p, tr, n in cut_results(cand) if p is left and tr is stock)
        if count:
            out.append((branch_forest(cand), count))
    return tuple(out)


def mul_structure(a: GLElem, b: GLElem) -> GLElem:
    """Independent product implementation via admissible-cut structure constants."""
    a._check_compatible(b)
    divided = a.basis == V_BASIS

    def terms():
        for fa, ca in a.terms.items():
            for fb, cb in b.terms.items():
                cab = ca * cb
                for key, count in _structure_table(fa, fb):
                    c = cab * count
                    if not divided:
                        # plain-basis coefficient: count * alpha(left)*alpha(right)/alpha(result)
                        c = c * Fraction(alpha(fa) * alpha(fb), alpha(key))
                    yield key, c

    return GLElem(terms(), a.basis)


# ---------------------------------------------------------------------------
# Coproduct, counit, antipode
# ---------------------------------------------------------------------------

@memo.memoized
def _split_table(f: Forest) -> tuple[tuple[tuple[Forest, Forest], int], ...]:
    # The distinct splits (lf, rf) of the branch multiset of f, each with the
    # number of bipartitions of the branch positions that give it: the
    # product over distinct branches of comb(m, k).  Canonical order puts
    # equal branches side by side.
    groups = [(t, len(tuple(g))) for t, g in itertools.groupby(f.trees)]
    out = []
    for take in itertools.product(*(range(m + 1) for _, m in groups)):
        lf = forest(t for (t, _), k in zip(groups, take) for _ in range(k))
        rf = forest(t for (t, m), k in zip(groups, take) for _ in range(m - k))
        out.append(((lf, rf), prod(comb(m, k) for (_, m), k in zip(groups, take))))
    return tuple(out)


def coproduct(a: GLElem) -> GLTensor:
    """Split the branch multiset over all ordered bipartitions of positions.

    In T each split counts its bipartitions; in V the count times
    alpha(lf) * alpha(rf) / alpha(f) is 1, so every split has coefficient 1.
    """
    divided = a.basis == V_BASIS
    den, nums = a.ints
    acc: dict[tuple[Forest, Forest], int] = {}
    get = acc.get
    for f, n in nums:
        for key, c in _split_table(f):
            acc[key] = get(key, 0) + (n if divided else n * c)
    return GLTensor.from_ints(den, acc, a.basis)


def counit(a: GLElem) -> Fraction:
    return Fraction(next((n for f, n in a.ints[1] if f is EMPTY_FOREST), 0), a.ints[0])


def tensor_of(a: GLElem, b: GLElem) -> GLTensor:
    a._check_compatible(b)
    (da, xs), (db, ys) = a.ints, b.ints
    return GLTensor.from_ints(
        da * db, {(fa, fb): na * nb for fa, na in xs for fb, nb in ys}, a.basis
    )


def is_primitive(a: GLElem) -> bool:
    """True when the coproduct equals a (x) 1 + 1 (x) a."""
    expected = tensor_of(a, unit(a.basis)) + tensor_of(unit(a.basis), a)
    return coproduct(a) == expected


@memo.memoized
def _antipode_basis_v(f: Forest) -> GLElem:
    # The Oudom-Guin recursion, in V.  With x the largest branch of f and a
    # the rest, x grafts onto the root of B(a) or onto one of its vertices:
    #     B(x) * B(a) = B(f) + sum of m * B(r) over insert_scion(x, a, False).
    # B(x) is primitive and S an antimorphism, so
    #     S(B(f)) = -S(B(a)) * B(x) - sum of m * S(B(r)),
    # where a and every r have one branch fewer than f.  With B(f) =
    # alpha(f) * V_f this reads
    #     alpha(f) * S(V_f) = -alpha(a) * alpha(x) * S(V_a) * V_x
    #                         - sum of m * alpha(r) * S(V_r).
    if not f.trees:
        return unit()
    x = forest(f.trees[-1:])
    a = forest(f.trees[:-1])
    parts = [(-alpha(a) * alpha(x), mul(_antipode_basis_v(a), from_branches(x)))]
    flat = iter(insert_scion(x.trees[0], a, False))
    parts += [(-m * alpha(r), _antipode_basis_v(r)) for r, m in zip(flat, flat)]
    return combine(zero(), parts, alpha(f))


def antipode(a: GLElem) -> GLElem:
    """Antipode by the pre-Lie recursion: one branch off, grafted back by insert_scion.

    The images are memoized in V; a T element converts once each way.
    """
    if a.basis == T_BASIS:
        return to_t_basis(antipode(to_v_basis(a)))
    den, nums = a.ints
    return combine(zero(), [(n, _antipode_basis_v(f)) for f, n in nums], den)


def antipode_by_recurrence(a: GLElem) -> GLElem:
    """Antipode via the connected-graded recurrence, for cross-checking."""

    def on_branches(f: Forest) -> GLElem:
        # From m(S x id)coproduct = unit*counit: S(B(f)) is minus the sum,
        # over the terms L (x) R of the coproduct of B(f) with R nonempty,
        # of S(B(L)) * B(R); each such L has fewer branches than f.
        if not f.trees:
            return unit(T_BASIS)
        den, nums = coproduct(from_branches(f, T_BASIS)).ints
        parts = [
            (-n, mul(on_branches(left), from_branches(right, T_BASIS)))
            for (left, right), n in nums
            if right.trees
        ]
        return combine(zero(T_BASIS), parts, den)

    den, nums = to_t_basis(a).ints
    out = combine(zero(T_BASIS), [(n, on_branches(f)) for f, n in nums], den)
    return out if a.basis == T_BASIS else to_v_basis(out)


# ---------------------------------------------------------------------------
# Rendering and the series interface
# ---------------------------------------------------------------------------

def text(a: GLElem) -> str:
    return format_linear(
        [
            (c, "" if not f.trees else f"{a.basis}{forest_text(f)}")
            for f, c in a.sorted_terms()
        ]
    )


def to_json_terms(a: GLElem) -> list[dict[str, str]]:
    return [
        {"coeff": str(c), "basis": a.basis, "branches": forest_text(f)}
        for f, c in a.sorted_terms()
    ]


# One ops instance per basis, so V and T series never mix.  The lambda
# reads dot at call time, so a tracer that rebinds gl.dot sees them.
SERIES_OPS = {
    b: LinCombOps(zero(b), unit(b), lambda pairs, b=b: dot(pairs, b), text)
    for b in (V_BASIS, T_BASIS)
}


def series(coeffs: list[GLElem], basis: str = V_BASIS) -> TruncSeries:
    _check_basis(basis)
    return TruncSeries(SERIES_OPS[basis], tuple(coeffs))
