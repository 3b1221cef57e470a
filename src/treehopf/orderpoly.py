"""Order polynomials of forest posets and the tree constants they carry.

A forest is a poset on its vertices, smaller toward the roots.  The strict
order polynomial counts strictly order-preserving maps into {1..n}, the
(weak) order polynomial counts order-preserving maps.  A tree's polynomial is
interpolated at the integer nodes 0..|P| from counts that one bottom-up walk
of the tree yields for every node at once; a forest's is the product of its
trees', memoized on the multiset of their shapes.  Labels never matter here:
only the underlying shape enters.  The linear coefficients of these
polynomials satisfy nested single-edge-cut recurrences and reproduce the tree
constants used by the logarithm of the all-trees generating function.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
from math import comb, factorial, gcd, lcm
from operator import mul

from . import memo
from .linear import format_linear
from .report import CheckReport
from .trees import (
    EMPTY_FOREST,
    MAX_ORDER_CEILING,
    Forest,
    LabeledTree,
    branch_forest,
    enumerate_forests,
    forest,
    forest_text,
    nested_cut_terms,
    shape,
    tree_text,
    _require_grafting_root,
)


def _over_common_denominator(xs) -> tuple[list[int], int]:
    # ints and Fractions are read through .numerator and .denominator; any
    # other value Fraction takes (a float, a string) goes through Fraction.
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _lowest(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    # Strip trailing zeros and divide out gcd(den, num...); den must be > 0.
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(a // g for a in num), den // g


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators ``num`` (constant term first) over one
    positive denominator ``den``, in lowest terms: gcd(den, *num) is 1, there
    is no trailing zero, and the zero polynomial is ``((), 1)``.  Arithmetic
    runs on ints and normalises each result with one gcd, so equal
    polynomials have equal ``(num, den)``.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        self.num, self.den = _lowest(*_over_common_denominator(coeffs))

    @classmethod
    def _from_ints(cls, num: list[int], den: int) -> "RationalPolynomial":
        out = cls.__new__(cls)
        out.num, out.den = _lowest(num, den)
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    @property
    def linear_coeff(self) -> Fraction:
        return self.coeff(1)

    def __call__(self, x) -> Fraction:
        # Horner on the numerators: ints stay ints at an integer point.
        acc = 0
        for a in reversed(self.num):
            acc = acc * x + a
        return Fraction(acc, self.den)

    def _combine(self, other: "RationalPolynomial", sign: int) -> "RationalPolynomial":
        a = [x * other.den for x in self.num]
        b = [sign * y * self.den for y in other.num]
        if len(a) < len(b):
            a, b = b, a
        for k, y in enumerate(b):
            a[k] += y
        return self._from_ints(a, self.den * other.den)

    def __add__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "RationalPolynomial":
        return self._from_ints([-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return self._from_ints([a * c for a in self.num], self.den * other.denominator)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            for j, b in enumerate(other.num):
                out[i + j] += a * b
        return self._from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def shifted(self, delta) -> "RationalPolynomial":
        """The polynomial s -> p(s + delta).

        With delta = a/b and d the degree, c_k = num_k * b^(d-k) are the
        coefficients of C(s) = b^d * N(s/b), where N has coefficients num; a
        Taylor shift by the integer a turns them into those of C(s + a), and
        p(s + delta) = C(b*s + a) / (b^d * den).
        """
        if not self.num:
            return self
        delta = Fraction(delta)
        a, b = delta.numerator, delta.denominator
        d = len(self.num) - 1
        c = [x * b ** (d - k) for k, x in enumerate(self.num)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] += a * c[j + 1]
        return self._from_ints([x * b**k for k, x in enumerate(c)], self.den * b**d)

    def reflected(self) -> "RationalPolynomial":
        """The polynomial s -> p(-s)."""
        return self._from_ints([-a if k % 2 else a for k, a in enumerate(self.num)], self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RationalPolynomial)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalPolynomial({self.coeffs!r})"

    def text(self) -> str:
        items = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            key = "" if k == 0 else ("s" if k == 1 else f"s^{k}")
            items.append((c, key))
        return format_linear(items)


ONE_POLY = RationalPolynomial((1,))


def interpolate_integer_nodes(values) -> RationalPolynomial:
    """Exact interpolation at the nodes 0, 1, ..., n.

    The values are brought over one denominator, and the integer matrix of
    :func:`_interpolation_rows` turns them into the numerators over n! times
    that denominator.
    """
    return _interpolate(*_over_common_denominator(values))


def _interpolate(values: list[int], scale: int) -> RationalPolynomial:
    # The polynomial through values[k] / scale at k = 0..n.
    rows = _interpolation_rows(len(values))
    num = [sum(map(mul, row, values)) for row in rows]
    return RationalPolynomial._from_ints(num, factorial(max(len(values) - 1, 0)) * scale)


@memo.memoized
def _interpolation_rows(size: int) -> tuple[tuple[int, ...], ...]:
    """n! times the matrix from values at 0..n to coefficients, n = size - 1.

    Row i holds n! times the coefficient of s^i of the polynomial through
    each unit vector of values.  By Newton's forward differences,
    p(s) = sum_j (Delta^j p)(0) * s(s-1)...(s-j+1) / j!, and the unit vector
    e_k has (Delta^j e_k)(0) = (-1)^(j-k) * C(j, k).
    """
    top = factorial(max(size - 1, 0))
    rows = [[0] * size for _ in range(size)]
    falling = [1]  # s(s-1)...(s-j+1), constant term first
    for j in range(size):
        weight = top // factorial(j)
        for k in range(j + 1):
            step = (-1) ** (j - k) * comb(j, k) * weight
            for i, c in enumerate(falling):
                rows[i][k] += step * c
        falling = [0] + falling
        for i in range(j + 1):
            falling[i] -= j * falling[i + 1]
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# Counting order-preserving maps
# ---------------------------------------------------------------------------

@memo.bottom_up
def _root_value_vector(u: LabeledTree, kid_vectors, n: int, strict: bool) -> tuple[int, ...]:
    # out[r] = number of maps of the subtree into {1..r} with the root at r,
    # for r = 0..n (out[0] = 0).  Read with the order of {1..r} reversed,
    # the children take values <= r (weak) or < r (strict), so out[r] does
    # not depend on n: the maps into {1..m} number out[1] + ... + out[m] for
    # every m <= n.
    out = (0,) + (1,) * n
    for vec in kid_vectors:
        # accumulate(vec)[r] = vec[1] + ... + vec[r]; initial=0 shifts it by one.
        below = accumulate(vec, initial=0) if strict else accumulate(vec)
        out = tuple(map(mul, out, below))
    return out


def count_order_preserving(f: Forest, n: int, strict: bool) -> int:
    """Number of (strictly) order-preserving maps of the forest poset into {1..n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 1
    for t in f.trees:
        total *= sum(_root_value_vector(shape(t), n, strict))
    return total


@memo.memoized
def _tree_poly(u: LabeledTree, strict: bool) -> RationalPolynomial:
    # One walk at n = |u| gives the counts at every node 0..|u| as prefix sums.
    counts = list(accumulate(_root_value_vector(u, u.size, strict)))
    return _interpolate(counts, 1)


def strict_order_poly(f: Forest) -> RationalPolynomial:
    """Strict order polynomial; product over the components of the forest."""
    return _forest_poly(f, True)


def order_poly(f: Forest) -> RationalPolynomial:
    """Order polynomial (weakly order-preserving maps)."""
    return _forest_poly(f, False)


def _forest_poly(f: Forest, strict: bool) -> RationalPolynomial:
    if f.size > MAX_ORDER_CEILING:
        raise ValueError(
            f"forest has {f.size} vertices, above the supported bound {MAX_ORDER_CEILING}"
        )
    return _shapes_poly(forest(tuple(map(shape, f.trees))), strict)


@memo.memoized
def _shapes_poly(shapes: Forest, strict: bool) -> RationalPolynomial:
    # The product of the tree polynomials of a forest of shapes.
    if not shapes.trees:
        return ONE_POLY
    first, *rest = shapes.trees
    acc = _tree_poly(first, strict)
    for u in rest:
        acc = acc * _tree_poly(u, strict)
    return acc


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def reciprocity_holds(size: int, p: RationalPolynomial, q: RationalPolynomial) -> bool:
    """The weak polynomial q equals (-1)^size times the strict one p at -s."""
    signed = tuple(-a if (k + size) % 2 else a for k, a in enumerate(p.num))
    return q.den == p.den and q.num == signed


def differences_hold(p, q, p_branches, q_branches) -> bool:
    """Forward/backward differences of a tree's polynomials give its branch forest's.

    For the strict polynomial p of the tree, p(s+1) - p(s) is the strict
    polynomial of the branch forest; for the weak polynomial q, the backward
    difference q(s) - q(s-1) is the weak polynomial of the branch forest.
    """
    return _is_difference(p, 1, p_branches) and _is_difference(q, -1, q_branches)


def _is_difference(p: RationalPolynomial, sign: int, r: RationalPolynomial) -> bool:
    # r is p(s+1) - p(s) for sign 1 or p(s) - p(s-1) for sign -1.  A Taylor
    # shift of the numerators by sign leaves those of p(s + sign), so the
    # difference has coefficient i = sum_{j>i} C(j, i) * sign^(j-i+1) * num_j.
    c = list(p.num)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += sign * c[j + 1]
    return _lowest([sign * (a - b) for a, b in zip(c, p.num)], p.den) == (r.num, r.den)


@memo.memoized
def _strict_constant(t: LabeledTree) -> Fraction:
    return _tree_poly(shape(t), True).linear_coeff


@memo.memoized
def _weak_constant(t: LabeledTree) -> Fraction:
    return _tree_poly(shape(t), False).linear_coeff


def recurrences_hold(u: LabeledTree, p: RationalPolynomial, q: RationalPolynomial) -> bool:
    """Nested-cut recurrences and reconstructions for one shape u.

    p and q are the strict and weak polynomials of u.  With S_{k-1} the sum
    over sequences of k-1 nested single-edge cuts (outermost first) of the
    products of the constants of the pieces (each pruned subtree and the
    final trunk), checks:
      * strict constant: phi = -sum_{k>=2} (1/k!) S_{k-1} with strict
        constants (singleton: phi = 1);
      * strict reconstruction: p equals phi*s plus sum_{k>=2} (s^k/k!)
        times the same inner sums;
      * weak constant, alternating form: phi_weak = sum_{k>=2} ((-1)^k/k!) ...
      * weak constant, evaluation form: phi_weak = 1 - sum_{k>=2} (1/k!) ...
      * weak reconstruction, mirroring the strict one.
    The inner sums come by trunk shape from :func:`trees.nested_cut_terms`,
    which reads the polynomial of each piece, never those of u; the terms
    S_{k-1}/k! for k = 2..|u| are the coefficients of s^k in p and q.
    """
    strict_terms, strict_den = nested_cut_terms(u, _strict_constant, _strict_constant)
    weak_terms, weak_den = nested_cut_terms(u, _weak_constant, _weak_constant)
    if u.size == 1:
        return _is_linear_coeff(p, 1, 1) and _is_linear_coeff(q, 1, 1)
    alternating = sum((-1) ** k * w for k, w in enumerate(weak_terms, 2))
    return (
        _is_linear_coeff(p, -sum(strict_terms), strict_den)
        and _is_linear_coeff(q, alternating, weak_den)
        and _is_linear_coeff(q, weak_den - sum(weak_terms), weak_den)
        and _has_higher_coeffs(p, strict_terms, strict_den)
        and _has_higher_coeffs(q, weak_terms, weak_den)
    )


def _linear_num(p: RationalPolynomial) -> int:
    return p.num[1] if len(p.num) > 1 else 0


def _is_linear_coeff(p: RationalPolynomial, a: int, den: int) -> bool:
    # The coefficient of s in p is a/den.
    return _linear_num(p) * den == a * p.den


def _has_higher_coeffs(p: RationalPolynomial, terms: list[int], den: int) -> bool:
    # p has no constant term, its coefficient of s^k is terms[k-2]/den for
    # k = 2..len(terms)+1, and it has no higher one.
    num = p.num
    if len(num) > len(terms) + 2 or (num and num[0]):
        return False
    return all(a * den == b * p.den for a, b in zip_longest(num[2:], terms, fillvalue=0))


def theta_via_orderpoly(t: LabeledTree) -> Fraction:
    """Tree constant as the linear coefficient of the branch forest's polynomial."""
    _require_grafting_root(t)
    return order_poly(branch_forest(t)).linear_coeff


# ---------------------------------------------------------------------------
# Exhaustive suite
# ---------------------------------------------------------------------------

@memo.collector_paused
def orderpoly_suite(max_vertices: int = 6) -> CheckReport:
    """All polynomial identities over every unlabeled forest up to a size.

    The strict and weak polynomials of each forest are computed once; every
    check reads them, and a tree's difference identities read those of its
    branch forest, which has one vertex fewer.
    """
    report = CheckReport()

    def run(name: str, item, ok: bool):
        # item is a forest or a tree, written out only when its check fails.
        report.checked += 1
        if not ok:
            text = forest_text(item) if isinstance(item, Forest) else tree_text(item)
            report.failures.append(f"{name}: {text}")

    polys = {EMPTY_FOREST: (strict_order_poly(EMPTY_FOREST), order_poly(EMPTY_FOREST))}
    for n in range(1, max_vertices + 1):
        for f in enumerate_forests((1,), n):
            p, q = polys[f] = strict_order_poly(f), order_poly(f)
            run("reciprocity", f, reciprocity_holds(f.size, p, q))
            first, *rest = f.trees
            prod = polys[forest((first,))][0]
            for t in rest:
                prod = prod * polys[forest((t,))][0]
            run("product-rule", f, prod == p)
            run("weak-at-one", f, sum(q.num) == q.den)
            run("strict-at-zero", f, not p.num or p.num[0] == 0)
            phi_strict, phi_weak = _linear_num(p), _linear_num(q)
            run(
                "linear-coeff-reflection",
                f,
                phi_strict * q.den == (-1) ** (f.size - 1) * phi_weak * p.den,
            )
            if rest:
                run("multi-component-vanishing", f, phi_strict == 0 and phi_weak == 0)

    for f, (p, q) in polys.items():
        if len(f.trees) != 1:
            continue
        t = f.trees[0]
        run("difference-identities", t, differences_hold(p, q, *polys[branch_forest(t)]))
        run("nested-cut-recurrences", t, recurrences_hold(t, p, q))

    return report
