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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .linear import format_linear
from .report import CheckReport
from .trees import (
    Forest,
    LabeledTree,
    branch_forest,
    enumerate_forests,
    forest,
    forest_text,
    nested_cut_sum,
    shape,
    tree_text,
    _memo_put,
    _require_grafting_root,
)

DESK_VERTEX_BOUND = 10


@dataclass(frozen=True)
class ForestPoset:
    """Explicit poset view of a forest.

    Vertices are indexed in preorder, components in canonical order; u <= v
    exactly when v lies in the subtree rooted at u (roots are minimal).
    """

    size: int
    leq_pairs: frozenset[tuple[int, int]]

    @classmethod
    def from_forest(cls, f: Forest) -> "ForestPoset":
        pairs: set[tuple[int, int]] = set()
        cursor = 0
        for t in f.trees:

            def visit(u: LabeledTree, ancestors: list[int]):
                nonlocal cursor
                v = cursor
                cursor += 1
                for a in ancestors:
                    pairs.add((a, v))
                pairs.add((v, v))
                for c in u.children:
                    visit(c, ancestors + [v])

            visit(t, [])
        return cls(cursor, frozenset(pairs))

    def leq(self, u: int, v: int) -> bool:
        return (u, v) in self.leq_pairs

    def covers(self) -> frozenset[tuple[int, int]]:
        out = set()
        for (u, v) in self.leq_pairs:
            if u == v:
                continue
            if not any(
                self.leq(u, w) and self.leq(w, v) and w != u and w != v
                for w in range(self.size)
            ):
                out.add((u, v))
        return frozenset(out)


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    @property
    def linear_coeff(self) -> Fraction:
        return self.coeff(1)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(Fraction(other) * c for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def shifted(self, delta) -> "RationalPolynomial":
        """The polynomial s -> p(s + delta)."""
        shift = RationalPolynomial((Fraction(delta), Fraction(1)))
        acc = RationalPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * shift + RationalPolynomial((c,))
        return acc

    def reflected(self) -> "RationalPolynomial":
        """The polynomial s -> p(-s)."""
        return RationalPolynomial(
            (-c if k % 2 else c) for k, c in enumerate(self.coeffs)
        )

    def __eq__(self, other):
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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


ZERO_POLY = RationalPolynomial()
ONE_POLY = RationalPolynomial((1,))
S_POLY = RationalPolynomial((0, 1))


def binomial_poly(k: int) -> RationalPolynomial:
    """The polynomial s(s-1)...(s-k+1)/k!."""
    acc = ONE_POLY
    for j in range(k):
        acc = acc * RationalPolynomial((-j, 1))
    return acc * Fraction(1, factorial(k))


def interpolate_integer_nodes(values) -> RationalPolynomial:
    """Exact Newton forward-difference interpolation at nodes 0, 1, ..., len-1."""
    diffs = [Fraction(v) for v in values]
    acc = ZERO_POLY
    for k in range(len(diffs)):
        if diffs[0]:
            acc = acc + diffs[0] * binomial_poly(k)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return acc


# ---------------------------------------------------------------------------
# Counting order-preserving maps
# ---------------------------------------------------------------------------

def _check_size(n: int):
    if n > DESK_VERTEX_BOUND:
        raise ValueError(f"forest has {n} vertices, above the supported bound {DESK_VERTEX_BOUND}")


_VEC_CACHE: dict[tuple[LabeledTree, int, bool], tuple[int, ...]] = {}


def _root_value_vector(u: LabeledTree, n: int, strict: bool) -> tuple[int, ...]:
    # v[r] = number of maps of the subtree with the root sent to r (1-indexed;
    # v[0] unused).  Children must take values >= r (weak) or > r (strict).
    key = (u, n, strict)
    got = _VEC_CACHE.get(key)
    if got is not None:
        return got
    child_suffix = []
    for c in u.children:
        vec = _root_value_vector(c, n, strict)
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
    return _memo_put(_VEC_CACHE, key, tuple(out))


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


_TREE_POLY_CACHE: dict[tuple[LabeledTree, bool], RationalPolynomial] = {}


def _tree_poly(u: LabeledTree, strict: bool) -> RationalPolynomial:
    key = (u, strict)
    got = _TREE_POLY_CACHE.get(key)
    if got is not None:
        return got
    values = [count_order_preserving(forest((u,)), n, strict) for n in range(u.size + 1)]
    return _memo_put(_TREE_POLY_CACHE, key, interpolate_integer_nodes(values))


def strict_order_poly(f: Forest) -> RationalPolynomial:
    """Strict order polynomial; product over the components of the forest."""
    _check_size(f.size)
    acc = ONE_POLY
    for t in f.trees:
        acc = acc * _tree_poly(shape(t), True)
    return acc


def order_poly(f: Forest) -> RationalPolynomial:
    """Order polynomial (weakly order-preserving maps)."""
    _check_size(f.size)
    acc = ONE_POLY
    for t in f.trees:
        acc = acc * _tree_poly(shape(t), False)
    return acc


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def reciprocity_check(f: Forest) -> bool:
    """Weak polynomial equals (-1)^|F| times the strict one at -s."""
    sign = (-1) ** f.size
    return order_poly(f) == sign * strict_order_poly(f).reflected()


def delta_nabla_check(t: LabeledTree) -> bool:
    """Forward/backward difference of a tree polynomial gives its branch forest.

    For the strict polynomial p of the tree, p(s+1) - p(s) is the strict
    polynomial of the branch forest; for the weak polynomial q, the backward
    difference q(s) - q(s-1) is the weak polynomial of the branch forest.
    """
    one_tree = forest((t,))
    branches = branch_forest(shape(t))
    p = strict_order_poly(one_tree)
    q = order_poly(one_tree)
    strict_ok = p.shifted(1) - p == strict_order_poly(branches)
    weak_ok = q - q.shifted(-1) == order_poly(branches)
    return strict_ok and weak_ok


def phi_constants(f: Forest) -> tuple[Fraction, Fraction]:
    """Linear coefficients (strict, weak) of the two order polynomials."""
    return strict_order_poly(f).linear_coeff, order_poly(f).linear_coeff


def _strict_constant(t: LabeledTree) -> Fraction:
    return _tree_poly(shape(t), True).linear_coeff


def _weak_constant(t: LabeledTree) -> Fraction:
    return _tree_poly(shape(t), False).linear_coeff


def phi_recurrence_check(t: LabeledTree) -> bool:
    """Nested-cut recurrences and reconstructions for one tree.

    Checks, with v the vertex count and S_{k-1} the sum over sequences of k-1
    nested single-edge cuts (outermost first) of the products of the
    constants of the pieces (each pruned subtree and the final trunk):
      * strict constant: phi = -sum_{k>=2} (1/k!) S_{k-1} with strict
        constants (singleton: phi = 1);
      * strict reconstruction: the strict polynomial equals phi*s plus
        sum_{k>=2} (s^k/k!) times the same inner sums;
      * weak constant, alternating form: phi_weak = sum_{k>=2} ((-1)^k/k!) ...
      * weak constant, evaluation form: phi_weak = 1 - sum_{k>=2} (1/k!) ...
      * weak reconstruction, mirroring the strict one.
    The inner sums are summed by trunk shape, S_k(T) = sum over non-root v of
    c(T_v) * S_{k-1}(T minus T_v) with S_0 = c, skipping a piece whose trunk
    sum is zero (see :func:`trees.nested_cut_sum`); they read the polynomial
    of each piece, never the polynomial of the tree being checked.
    """
    u = shape(t)
    strict_inner: dict[int, Fraction] = {}
    weak_inner: dict[int, Fraction] = {}
    for k in range(2, u.size + 1):
        strict_inner[k] = nested_cut_sum(u, k - 1, _strict_constant, _strict_constant)
        weak_inner[k] = nested_cut_sum(u, k - 1, _weak_constant, _weak_constant)

    phi_strict, phi_weak = phi_constants(forest((u,)))

    if u.size == 1:
        return phi_strict == 1 and phi_weak == 1

    rec_strict = -sum(
        (strict_inner[k] / factorial(k) for k in strict_inner), Fraction(0)
    )
    rec_weak_alt = sum(
        (Fraction((-1) ** k, factorial(k)) * weak_inner[k] for k in weak_inner), Fraction(0)
    )
    rec_weak_eval = 1 - sum(
        (weak_inner[k] / factorial(k) for k in weak_inner), Fraction(0)
    )

    strict_poly = RationalPolynomial((0, phi_strict))
    weak_poly = RationalPolynomial((0, phi_weak))
    for k in strict_inner:
        monom = RationalPolynomial([0] * k + [Fraction(1, factorial(k))])
        strict_poly = strict_poly + monom * strict_inner[k]
        weak_poly = weak_poly + monom * weak_inner[k]

    return (
        rec_strict == phi_strict
        and rec_weak_alt == phi_weak
        and rec_weak_eval == phi_weak
        and strict_poly == strict_order_poly(forest((u,)))
        and weak_poly == order_poly(forest((u,)))
    )


def theta_via_orderpoly(t: LabeledTree) -> Fraction:
    """Tree constant as the linear coefficient of the branch forest's polynomial."""
    _require_grafting_root(t)
    return order_poly(branch_forest(t)).linear_coeff


# ---------------------------------------------------------------------------
# Exhaustive suite
# ---------------------------------------------------------------------------

def orderpoly_suite(max_vertices: int = 6) -> CheckReport:
    """All polynomial identities over every unlabeled forest up to a size."""
    report = CheckReport()

    def run(name: str, desc: str, ok: bool):
        report.checked += 1
        if not ok:
            report.failures.append(f"{name}: {desc}")

    for n in range(1, max_vertices + 1):
        for f in enumerate_forests((1,), n):
            ftxt = forest_text(f)
            run("reciprocity", ftxt, reciprocity_check(f))
            prod = ONE_POLY
            for t in f.trees:
                prod = prod * strict_order_poly(forest((t,)))
            run("product-rule", ftxt, prod == strict_order_poly(f))
            run("weak-at-one", ftxt, order_poly(f)(1) == 1)
            run("strict-at-zero", ftxt, strict_order_poly(f)(0) == 0)
            phi_strict, phi_weak = phi_constants(f)
            run(
                "linear-coeff-reflection",
                ftxt,
                phi_strict == (-1) ** (f.size - 1) * phi_weak,
            )
            if len(f.trees) > 1:
                run("multi-component-vanishing", ftxt, phi_strict == 0 and phi_weak == 0)

    for n in range(1, max_vertices + 1):
        for f in enumerate_forests((1,), n):
            if len(f.trees) != 1:
                continue
            t = f.trees[0]
            ttxt = tree_text(t)
            run("difference-identities", ttxt, delta_nabla_check(t))
            run("nested-cut-recurrences", ttxt, phi_recurrence_check(t))

    return report
