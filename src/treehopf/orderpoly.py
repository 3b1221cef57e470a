"""Order polynomials of forest posets and the tree constants they carry.

A forest is a poset on its vertices, smaller toward the roots.  The strict
order polynomial counts strictly order-preserving maps into {1..n}, the
(weak) order polynomial counts order-preserving maps; both are computed by a
bottom-up count with per-subtree memoization followed by exact interpolation
at the integer nodes 0..|P|.  Labels never matter here: only the underlying
shape enters.  The linear coefficients of these polynomials satisfy nested
single-edge-cut recurrences and reproduce the tree constants used by the
logarithm of the all-trees generating function.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

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
    fs = [Fraction(x) for x in xs]
    den = lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs], den


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

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "RationalPolynomial":
        return self._from_ints([-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial((other,))
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
    """Exact Newton forward-difference interpolation at nodes 0, 1, ..., n.

    p(s) = sum_k (Delta^k p)(0) * s(s-1)...(s-k+1) / k!, summed in integers
    over n! times the common denominator of the values.
    """
    diffs, scale = _over_common_denominator(values)
    n = max(len(diffs) - 1, 0)
    num = [0] * len(diffs)
    falling = [1]  # s(s-1)...(s-k+1), constant term first
    weight = factorial(n)  # n!/k!
    for k in range(len(diffs)):
        if diffs[0]:
            step = diffs[0] * weight
            for i, c in enumerate(falling):
                num[i] += step * c
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        falling = [0] + falling
        for i in range(k + 1):
            falling[i] -= k * falling[i + 1]
        weight //= k + 1
    return RationalPolynomial._from_ints(num, factorial(n) * scale)


# ---------------------------------------------------------------------------
# Counting order-preserving maps
# ---------------------------------------------------------------------------

@memo.bottom_up
def _root_value_vector(u: LabeledTree, kid_vectors, n: int, strict: bool) -> tuple[int, ...]:
    # out[r] = number of maps of the subtree with the root sent to r
    # (1-indexed; out[0] unused).  Children take values >= r (weak) or > r
    # (strict).
    child_suffix = []
    for vec in kid_vectors:
        suffix = [0] * (n + 2)
        for r in range(n, 0, -1):
            suffix[r] = suffix[r + 1] + vec[r]
        child_suffix.append(suffix)
    out = [0] * (n + 1)
    for r in range(1, n + 1):
        prod = 1
        for suffix in child_suffix:
            prod *= suffix[r + 1] if strict else suffix[r]
            if not prod:
                break
        out[r] = prod
    return tuple(out)


def count_order_preserving(f: Forest, n: int, strict: bool) -> int:
    """Number of (strictly) order-preserving maps of the forest poset into {1..n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 1
    for t in f.trees:
        u = shape(t)
        if n == 0:
            return 0
        total *= sum(_root_value_vector(u, n, strict))
    return total


@memo.memoized
def _tree_poly(u: LabeledTree, strict: bool) -> RationalPolynomial:
    values = [count_order_preserving(forest((u,)), n, strict) for n in range(u.size + 1)]
    return interpolate_integer_nodes(values)


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
    acc = ONE_POLY
    for t in f.trees:
        acc = acc * _tree_poly(shape(t), strict)
    return acc


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def reciprocity_holds(size: int, p: RationalPolynomial, q: RationalPolynomial) -> bool:
    """The weak polynomial q equals (-1)^size times the strict one p at -s."""
    return q == (-1) ** size * p.reflected()


def differences_hold(p, q, p_branches, q_branches) -> bool:
    """Forward/backward differences of a tree's polynomials give its branch forest's.

    For the strict polynomial p of the tree, p(s+1) - p(s) is the strict
    polynomial of the branch forest; for the weak polynomial q, the backward
    difference q(s) - q(s-1) is the weak polynomial of the branch forest.
    """
    return p.shifted(1) - p == p_branches and q - q.shifted(-1) == q_branches


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
    phi_strict, phi_weak = p.linear_coeff, q.linear_coeff
    if u.size == 1:
        return phi_strict == 1 and phi_weak == 1
    alternating = sum((-1) ** k * w for k, w in enumerate(weak_terms, 2))
    return (
        Fraction(-sum(strict_terms), strict_den) == phi_strict
        and Fraction(alternating, weak_den) == phi_weak
        and Fraction(weak_den - sum(weak_terms), weak_den) == phi_weak
        and _with_linear(phi_strict, strict_terms, strict_den) == p
        and _with_linear(phi_weak, weak_terms, weak_den) == q
    )


def _with_linear(phi: Fraction, terms: list[int], den: int) -> RationalPolynomial:
    # phi*s + sum_k terms[k-2]/den * s^k.
    both = lcm(den, phi.denominator)
    m = both // den
    return RationalPolynomial._from_ints(
        [0, phi.numerator * (both // phi.denominator), *[a * m for a in terms]], both
    )


def theta_via_orderpoly(t: LabeledTree) -> Fraction:
    """Tree constant as the linear coefficient of the branch forest's polynomial."""
    _require_grafting_root(t)
    return order_poly(branch_forest(t)).linear_coeff


# ---------------------------------------------------------------------------
# Exhaustive suite
# ---------------------------------------------------------------------------

def orderpoly_suite(max_vertices: int = 6) -> CheckReport:
    """All polynomial identities over every unlabeled forest up to a size.

    The strict and weak polynomials of each forest are computed once; every
    check reads them, and a tree's difference identities read those of its
    branch forest, which has one vertex fewer.
    """
    report = CheckReport()

    def run(name: str, desc: str, ok: bool):
        report.checked += 1
        if not ok:
            report.failures.append(f"{name}: {desc}")

    polys = {EMPTY_FOREST: (strict_order_poly(EMPTY_FOREST), order_poly(EMPTY_FOREST))}
    for n in range(1, max_vertices + 1):
        for f in enumerate_forests((1,), n):
            ftxt = forest_text(f)
            p, q = polys[f] = strict_order_poly(f), order_poly(f)
            run("reciprocity", ftxt, reciprocity_holds(f.size, p, q))
            prod = ONE_POLY
            for t in f.trees:
                prod = prod * polys[forest((t,))][0]
            run("product-rule", ftxt, prod == p)
            run("weak-at-one", ftxt, q(1) == 1)
            run("strict-at-zero", ftxt, p(0) == 0)
            phi_strict, phi_weak = p.linear_coeff, q.linear_coeff
            run(
                "linear-coeff-reflection",
                ftxt,
                phi_strict == (-1) ** (f.size - 1) * phi_weak,
            )
            if len(f.trees) > 1:
                run("multi-component-vanishing", ftxt, phi_strict == 0 and phi_weak == 0)

    for f, (p, q) in polys.items():
        if len(f.trees) != 1:
            continue
        t = f.trees[0]
        ttxt = tree_text(t)
        run("difference-identities", ttxt, differences_hold(p, q, *polys[branch_forest(t)]))
        run("nested-cut-recurrences", ttxt, recurrences_hold(t, p, q))

    return report
