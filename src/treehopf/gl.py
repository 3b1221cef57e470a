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
multiset over all ordered bipartitions, and the antipode has a closed form as
an alternating sum over ordered partitions of the branch multiset.

Series arithmetic (``dot``, and the ``sum`` and ``scale`` of ``GLSeriesOps``)
runs on integers: each element carries one cached form, its numerators over
one denominator in lowest terms, and every result is built by one builder,
``from_ints``, that reduces once and stores only that form.  Its Fraction
``terms`` are built the first time something reads them, and equality and
truth read the integer form whenever both sides hold it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod

from . import memo
from .linear import LinComb, format_linear
from .series import TruncSeries
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

    def _build(self, terms):
        return type(self)(terms, self.basis)

    def _check_compatible(self, other):
        super()._check_compatible(other)
        if self.basis != other.basis:
            raise TypeError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        if self.basis != other.basis:
            raise TypeError(f"cannot compare {self.basis}-basis with {other.basis}-basis")
        return self.terms == other.terms


class GLElem(_BasisLinComb):
    """Rational combination of grafting-rooted trees, keyed by branch forest.

    It holds at least one of two equal forms: ``terms``, the public map of
    nonzero lowest-terms Fractions, and the integer form ``(den, ((key,
    num), ...))`` in lowest terms, ``(1, ())`` for zero, which the series
    operations read.  The constructor stores ``terms`` and ``int_form``
    fills the integer form when first needed; ``from_ints`` stores the
    integer form and the first read of ``terms`` fills that.  Either is
    computed at most once, and both list the keys in one order.
    """

    __slots__ = ("_ints",)

    def __init__(self, terms=None, basis: str = V_BASIS):
        super().__init__(terms, basis)
        self._ints = None

    def __getattr__(self, name):
        # Reached only while the terms slot of a from_ints element is unset.
        if name != "terms":
            raise AttributeError(name)
        den, nums = self._ints
        terms = self.terms = {k: Fraction(n, den) for k, n in nums}
        return terms

    def __eq__(self, other):
        a, b = self._ints, getattr(other, "_ints", None)
        if a is None or b is None or self.basis != other.basis:
            return super().__eq__(other)
        # Both forms are in lowest terms, so equal elements have equal
        # denominators and equal key -> numerator maps, in any key order.
        return a[0] == b[0] and (a[1] == b[1] or dict(a[1]) == dict(b[1]))

    def __bool__(self):
        ints = self._ints
        return bool(ints[1]) if ints is not None else bool(self.terms)

    def is_zero(self) -> bool:
        return not self

    def sorted_terms(self) -> list[tuple[Forest, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].weight, kv[0]._key))


class GLTensor(_BasisLinComb):
    """Element of the tensor square, keyed by ordered pairs of branch forests."""

    __slots__ = ()


def unit(basis: str = V_BASIS) -> GLElem:
    return GLElem({EMPTY_FOREST: 1}, basis)


def zero(basis: str = V_BASIS) -> GLElem:
    return GLElem({}, basis)


def from_bplus_tree(t: LabeledTree, basis: str = V_BASIS) -> GLElem:
    _require_grafting_root(t)
    return GLElem({branch_forest(t): 1}, basis)


def from_branches(f: Forest, basis: str = V_BASIS) -> GLElem:
    return GLElem({f: 1}, basis)


# The automorphism count of the grafting-rooted tree with branch forest f.
alpha = forest_automorphisms


def to_v_basis(a: GLElem) -> GLElem:
    if a.basis == V_BASIS:
        return a
    return GLElem({f: c * alpha(f) for f, c in a.terms.items()}, V_BASIS)


def to_t_basis(a: GLElem) -> GLElem:
    if a.basis == T_BASIS:
        return a
    return GLElem({f: c / alpha(f) for f, c in a.terms.items()}, T_BASIS)


# ---------------------------------------------------------------------------
# Product: grafting route and structure-constant route
# ---------------------------------------------------------------------------

@memo.memoized
def _product_table(left: Forest, right: Forest, basis: str) -> tuple[tuple[Forest, int], ...]:
    # Structure constants of the product of two basis trees in one basis:
    # the graft count n in T, and n * alpha(result) / (alpha(left) *
    # alpha(right)) in V, which is the admissible-cut count of
    # _structure_table and so always an integer.  With left = rest + x, x
    # its largest scion, attaching x at any vertex of a result of rest lands
    # it on the stock or inside a scion of rest, and the second kind is
    # what grafting rest with x already inserted counts:
    #     (x rest) o right = x ~> (rest o right) - (x ~> rest) o right,
    # where x ~> F attaches x at one vertex of F: the root of the result
    # counts as a vertex in the first term, and rest has none.  Tables of
    # smaller left factors are read in the same basis: with w = alpha in V
    # and 1 in T, the constant c of l o r at f is the count c*w(l)*w(r)/w(f).
    if not left.trees:
        return ((right, 1),)
    if not right.trees:
        return ((left, 1),)
    w = alpha if basis == V_BASIS else lambda f: 1
    x = left.trees[-1]
    rest = forest(left.trees[:-1])
    w_right = w(right)
    grafted: dict[Forest, int] = {}  # graft counts of the first term
    get = grafted.get
    scale = w(rest) * w_right
    for f, c in _product_table(rest, right, basis):
        n = c * scale // w(f)
        flat = iter(insert_scion(x, f, True))
        for r, m in zip(flat, flat):
            grafted[r] = get(r, 0) + n * m
    inner: dict[Forest, int] = {}  # the second term's counts times w(result) / w(right)
    get = inner.get
    flat = iter(insert_scion(x, rest, False))
    for a, m in zip(flat, flat):
        m *= w(a)
        for r, c in _product_table(a, right, basis):
            inner[r] = get(r, 0) + m * c
    scale = w(left) * w_right
    out = []
    for r, n in grafted.items():
        c, rem = divmod(n * w(r) - inner.get(r, 0) * w_right, scale)
        if rem:
            raise ArithmeticError(
                f"V-basis constant of {forest_text(left)} * {forest_text(right)} "
                f"at {forest_text(r)} is not an integer"
            )
        if c:
            out.append((r, c))
    return tuple(out)


def _over_one_denominator(terms: dict) -> tuple[int, tuple[tuple[Forest, int], ...]]:
    # A terms map as (d, ((key, n), ...)) with terms the sum of n/d * key and
    # d the lcm of its denominators, so gcd(d, *ns) = 1.
    d = lcm(*[c.denominator for c in terms.values()])
    return d, tuple([(k, c.numerator * (d // c.denominator)) for k, c in terms.items()])


def int_form(x: GLElem, basis: str) -> tuple[int, tuple[tuple[Forest, int], ...]]:
    """The integer form ``(den, ((key, num), ...))`` of x, in lowest terms.

    x must be a GLElem written in basis.  The form is cached on x; threads
    that fill the cache at once compute and store equal forms.
    """
    if type(x) is not GLElem or x.basis != basis:
        zero(basis)._check_compatible(x)
    form = x._ints
    if form is None:
        form = x._ints = _over_one_denominator(x.terms)
    return form


def from_ints(den: int, acc: dict[Forest, int], basis: str = V_BASIS) -> GLElem:
    """The element sum of n/den * key over acc (den > 0), written in basis.

    Zeros are dropped and one gcd division brings the form to lowest terms;
    only that integer form is stored, and ``terms`` is built on first read.
    Every series sum, scaling and product ends here.
    """
    _check_basis(basis)
    g = gcd(den, *acc.values())
    out = GLElem.__new__(GLElem)
    out.basis = basis
    out._ints = (den // g, tuple([(k, n // g) for k, n in acc.items() if n]))
    return out


def dot(pairs, basis: str = V_BASIS) -> GLElem:
    """The sum of x * y over the (x, y) in pairs, all written in basis, built in one pass.

    Every factor's cached integer form is brought to one common denominator,
    so each product of numerators times an integer structure constant is
    summed into one int per result key; the sums are reduced once.
    """
    factors = []
    den = 1
    for x, y in pairs:
        (dx, xs), (dy, ys) = int_form(x, basis), int_form(y, basis)
        factors.append((dx * dy, xs, ys))
        den = lcm(den, dx * dy)
    acc: dict[Forest, int] = {}
    get = acc.get
    for dxy, xs, ys in factors:
        m = den // dxy
        for fa, na in xs:
            for fb, nb in ys:
                nab = m * na * nb
                for key, c in _product_table(fa, fb, basis):
                    acc[key] = get(key, 0) + nab * c
    return from_ints(den, acc, basis)


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

def coproduct(a: GLElem) -> GLTensor:
    """Split the branch multiset over all ordered bipartitions of positions."""
    divided = a.basis == V_BASIS

    def terms():
        for f, c in a.terms.items():
            base = c / alpha(f) if divided else c
            trees = f.trees
            for bits in itertools.product((0, 1), repeat=len(trees)):
                lf = forest(t for t, b in zip(trees, bits) if b == 0)
                rf = forest(t for t, b in zip(trees, bits) if b == 1)
                coeff = base
                if divided:
                    coeff = coeff * alpha(lf) * alpha(rf)
                yield (lf, rf), coeff

    return GLTensor(terms(), a.basis)


def counit(a: GLElem) -> Fraction:
    return a.get(EMPTY_FOREST)


def tensor_of(a: GLElem, b: GLElem) -> GLTensor:
    a._check_compatible(b)
    return GLTensor(
        (((fa, fb), ca * cb) for fa, ca in a.terms.items() for fb, cb in b.terms.items()), a.basis
    )


def is_primitive(a: GLElem) -> bool:
    """True when the coproduct equals a (x) 1 + 1 (x) a."""
    expected = tensor_of(a, unit(a.basis)) + tensor_of(unit(a.basis), a)
    return coproduct(a) == expected


@memo.memoized
def _antipode_basis_t(f: Forest) -> GLElem:
    # Takeuchi's formula, summed over the branch multiset M: every sequence
    # of nonempty sub-multisets N1, ..., Nr with union M contributes
    # (-1)^r * B(N1) * ... * B(Nr), once for each ordered set partition of
    # the branch positions that it groups, i.e. prod over distinct branches
    # of the multinomial of their multiplicity.  Sequences with a common
    # prefix share its product; no antipode of a remainder is reused.
    groups = [(t, len(tuple(g))) for t, g in itertools.groupby(f.trees)]

    def terms(prefix: GLElem, rest: tuple[int, ...], coeff: int):
        if not any(rest):
            yield from ((k, coeff * c) for k, c in prefix.terms.items())
            return
        for take in itertools.product(*(range(m + 1) for m in rest)):
            if not any(take):
                continue
            block = forest(t for (t, _), k in zip(groups, take) for _ in range(k))
            ways = prod(comb(m, k) for m, k in zip(rest, take))
            yield from terms(
                mul(prefix, from_branches(block, T_BASIS)),
                tuple(m - k for m, k in zip(rest, take)),
                -coeff * ways,
            )

    return GLElem(terms(unit(T_BASIS), tuple(m for _, m in groups), 1), T_BASIS)


def _on_t_basis(a: GLElem, image) -> GLElem:
    # The linear map sending each T-basis key f to image(f), in a's basis.
    out = GLElem(
        ((k, c * v) for f, c in to_t_basis(a).terms.items() for k, v in image(f).terms.items()),
        T_BASIS,
    )
    return out if a.basis == T_BASIS else to_v_basis(out)


def antipode(a: GLElem) -> GLElem:
    """Closed-form antipode: alternating sum over ordered partitions of the branch multiset."""
    return _on_t_basis(a, _antipode_basis_t)


def antipode_by_recurrence(a: GLElem) -> GLElem:
    """Antipode via the connected-graded recurrence, for cross-checking."""

    def on_branches(f: Forest) -> GLElem:
        # From m(S x id)coproduct = unit*counit: S(B(f)) is minus the sum,
        # over the terms L (x) R of the coproduct of B(f) with R nonempty,
        # of S(B(L)) * B(R); each such L has fewer branches than f.
        if not f.trees:
            return unit(T_BASIS)

        def terms():
            for (left, right), c in coproduct(from_branches(f, T_BASIS)).terms.items():
                if right.trees:
                    part = mul(on_branches(left), from_branches(right, T_BASIS))
                    yield from ((k, -c * v) for k, v in part.terms.items())

        return GLElem(terms(), T_BASIS)

    return _on_t_basis(a, on_branches)


# ---------------------------------------------------------------------------
# Series coefficients and rendering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GLSeriesOps:
    """Algebra interface over GLElem for the truncated-series engine."""

    basis: str = V_BASIS

    def zero(self) -> GLElem:
        return GLElem({}, self.basis)

    def one(self) -> GLElem:
        return unit(self.basis)

    def sum(self, xs) -> GLElem:
        # One integer sum over the lcm of the denominators.
        forms = [int_form(x, self.basis) for x in xs]
        den = lcm(*[d for d, _ in forms])
        acc: dict[Forest, int] = {}
        get = acc.get
        for d, ns in forms:
            m = den // d
            for k, n in ns:
                acc[k] = get(k, 0) + m * n
        return from_ints(den, acc, self.basis)

    def scale(self, c: Fraction, x: GLElem) -> GLElem:
        d, ns = int_form(x, self.basis)
        c = Fraction(c)
        a = c.numerator
        return from_ints(d * c.denominator, {k: a * n for k, n in ns}, self.basis)

    def dot(self, pairs) -> GLElem:
        return dot(pairs, self.basis)

    def eq(self, x: GLElem, y: GLElem) -> bool:
        return x == y

    def describe(self, x: GLElem) -> str:
        return text(x)


def series(coeffs: list[GLElem], basis: str = V_BASIS) -> TruncSeries:
    return TruncSeries(GLSeriesOps(basis), tuple(coeffs))


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
