"""Five generating functions over the grafting algebra and their axioms.

The system packs five truncated series (f, g, d, h, m) over one algebra:
f(0) = 1, f(-t) is a two-sided inverse of g(t), g = exp(d), and the
derivative of g equals both g*h and m*g.  Over the grafting algebra of
labeled trees the coefficients are, in the divided basis: signed shrubs for
f, all trees for g, chains weighted by their leaf label for h, primitive
trees weighted by the root-child label for m, and primitive trees weighted by
the tree constants theta for d.  The same equations over the free algebra of
noncommutative symmetric functions yield the universal system, and the
algebra map sending each elementary generator to the matching f-coefficient
specializes one onto the other; its transpose sends forests to
quasi-symmetric functions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from . import gl, memo, nsym, orderpoly
from .linear import add_all, combine
from .report import CheckReport
from .series import NCSSystem, TruncSeries
from .trees import (
    EMPTY_FOREST,
    Forest,
    LabeledTree,
    branch_forest,
    chain_leaf,
    enumerate_bplus_trees,
    enumerate_forests,
    forest,
    is_chain,
    label_values,
    leaf,
    nested_cut_terms,
    node,
    shape,
    tree_text,
    _norm_labels,
    _require_grafting_root,
)


# ---------------------------------------------------------------------------
# Tree constants
# ---------------------------------------------------------------------------

def _theta_trivially_zero(t: LabeledTree) -> bool:
    return t.size == 1 or len(t.children) != 1


def theta_recurrence(t: LabeledTree) -> Fraction:
    """Tree constant of a grafting-rooted tree by the nested single-edge-cut recurrence.

    Zero on the singleton and on trees whose root has several children; one
    on the two-vertex tree; otherwise

        theta(u) = 1 - sum_{m >= 2} S_{m-1}(u) / m!,

    where S_k(u) sums, over sequences of k nested single-edge cuts, the
    product of the constants of the pieces.  It is summed by trunk shape,
    S_k(T) = sum over non-root v of theta(B+(T_v)) * S_{k-1}(T minus T_v) with
    S_0 = theta, not sequence by sequence, and one pass fills every S_k of u
    as integers over one denominator (see :func:`trees.nested_cut_terms`).
    A piece is skipped when its trunk's sums (theta, S_1, ...) are all zero,
    which cuts off the one self-referential term: cutting the root edge
    leaves the bare root, whose constant is zero.  Depends only on the
    underlying shape, and reads neither the logarithm nor the order
    polynomials.
    """
    _require_grafting_root(t)
    return _theta_of_shape(shape(t))


@memo.memoized
def _theta_of_shape(u: LabeledTree) -> Fraction:
    # The recursion runs on shapes, whose roots carry label 1.
    if _theta_trivially_zero(u):
        val = Fraction(0)
    elif u.size == 2:
        val = Fraction(1)
    else:
        terms, den = nested_cut_terms(u, _theta_of_branch, _theta_of_shape)
        val = Fraction(den - sum(terms), den)
    return val


@memo.memoized
def _theta_of_branch(x: LabeledTree) -> Fraction:
    # Constant of the pruned piece: the removed subtree grafted under a root.
    return _theta_of_shape(node(1, (x,)))


# ---------------------------------------------------------------------------
# The system over the grafting algebra
# ---------------------------------------------------------------------------

# The unit and zero of the V-basis series, shared by every system.
_ONE = gl.SERIES_OPS[gl.V_BASIS].one()
_ZERO = gl.SERIES_OPS[gl.V_BASIS].zero()


@memo.memoized
def _generator_image(labels: tuple[int, ...], m: int) -> gl.GLElem:
    # Coefficient of t^m in f: signed sum over grafting-rooted shrubs, whose
    # branch forests are the forests of leaves.
    return gl.GLElem.from_ints(
        1,
        {
            f: (-1) ** (len(f.trees) + m)
            for f in enumerate_forests(labels, m)
            if not any(t.children for t in f.trees)
        },
    )


def _f_series(labels, order: int) -> TruncSeries:
    ls = _norm_labels(labels)
    coeffs = [_ONE] + [_generator_image(ls, m) for m in range(1, order + 1)]
    return gl.series(coeffs)


@memo.memoized
def _g_coeff(labels: tuple[int, ...], w: int) -> gl.GLElem:
    # Coefficient of t^w in g: every forest, coefficient 1.
    return gl.GLElem.from_ints(1, dict.fromkeys(enumerate_forests(labels, w), 1))


def _g_series(labels, order: int) -> TruncSeries:
    ls = _norm_labels(labels)
    return gl.series([_ONE] + [_g_coeff(ls, m) for m in range(1, order + 1)])


@memo.memoized
def _g_log(labels: tuple[int, ...], order: int) -> TruncSeries:
    return _g_series(labels, order).log()


@memo.memoized
def _primitive_coeffs(labels: tuple[int, ...], w: int) -> tuple[gl.GLElem, gl.GLElem, gl.GLElem]:
    # (h_w, m_w, d_w): the trees of h, m and d are primitive, their branch
    # forests hold one tree.  h takes the chains, weighted by the leaf
    # label; m weights by the label of the root's child, and d by theta,
    # that of bplus(f) read as the constant of t's shape as a branch.
    h_terms: dict[Forest, int] = {}
    m_terms: dict[Forest, int] = {}
    d_terms: dict[Forest, Fraction] = {}
    for f in enumerate_forests(labels, w):
        if len(f.trees) != 1:
            continue
        t = f.trees[0]
        m_terms[f] = t.label
        d_terms[f] = _theta_of_branch(shape(t))
        if is_chain(t):
            h_terms[f] = chain_leaf(t).label
    return (
        gl.GLElem.from_ints(1, h_terms),
        gl.GLElem.from_ints(1, m_terms),
        gl.GLElem(d_terms, gl.V_BASIS),
    )


@memo.collector_paused
def build_omega(labels, order: int) -> NCSSystem:
    """The five series over the grafting algebra of labeled trees.

    Every coefficient is memoized on (labels, weight), so two calls share
    their coefficient objects.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    ls = _norm_labels(labels)
    h, m, d = zip(*(_primitive_coeffs(ls, w) for w in range(1, order + 1)))
    return NCSSystem(
        carrier=f"trees{list(ls)}",
        order=order,
        f=_f_series(ls, order),
        g=_g_series(ls, order),
        d=gl.series([_ZERO, *d]),
        h=gl.series(list(h)),
        m=gl.series(list(m)),
    )


# ---------------------------------------------------------------------------
# Verifying the defining equations
# ---------------------------------------------------------------------------

class EquationCheck(NamedTuple):
    """One defining equation: "pass", or "fail" with its first differing degree."""

    equation: str
    status: str
    first_failure: dict | None = None


class NCSReport:
    __slots__ = ("carrier", "order", "checks")

    def __init__(self, carrier: str, order: int, checks: list[EquationCheck] | None = None):
        self.carrier, self.order = carrier, order
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "carrier": self.carrier,
            "order": self.order,
            "status": "pass" if self.ok else "fail",
            "checks": [c._asdict() for c in self.checks],
        }


def _compare(name: str, lhs: TruncSeries, rhs: TruncSeries) -> EquationCheck:
    order = min(lhs.order, rhs.order)
    lhs = lhs.truncate(order)
    rhs = rhs.truncate(order)
    ops = lhs.ops
    for degree in range(order + 1):
        if not ops.eq(lhs.coeffs[degree], rhs.coeffs[degree]):
            diff = ops.sum((lhs.coeffs[degree], ops.scale(Fraction(-1), rhs.coeffs[degree])))
            return EquationCheck(name, "fail", {"degree": degree, "diff": ops.describe(diff)})
    return EquationCheck(name, "pass")


def _constant_term_failure(name: str, ops, coeff, expected) -> EquationCheck | None:
    # An equation that needs the constant term coeff to be expected fails at
    # degree 0 otherwise, reporting coeff itself.
    if ops.eq(coeff, expected):
        return None
    return EquationCheck(name, "fail", {"degree": 0, "diff": ops.describe(coeff)})


@memo.collector_paused
def verify_ncs(system: NCSSystem) -> NCSReport:
    """Check all five defining equations coefficientwise."""
    report = NCSReport(system.carrier, system.order)
    ops = system.f.ops
    one = TruncSeries.one(ops, system.order)

    report.checks.append(
        _constant_term_failure("unit-constant-term", ops, system.f.coeffs[0], ops.one())
        or EquationCheck("unit-constant-term", "pass")
    )

    f_neg = system.f.alternate()
    report.checks.append(_compare("left-inverse", f_neg * system.g, one))
    report.checks.append(_compare("right-inverse", system.g * f_neg, one))

    report.checks.append(
        _constant_term_failure("exponential", ops, system.d.coeffs[0], ops.zero())
        or _compare("exponential", system.d.exp(), system.g)
    )

    g_prime = system.g.derivative()
    g_cut = system.g.truncate(system.h.order)
    report.checks.append(_compare("derivation-right-factor", g_cut * system.h, g_prime))
    g_cut = system.g.truncate(system.m.order)
    report.checks.append(_compare("derivation-left-factor", system.m * g_cut, g_prime))
    return report


# ---------------------------------------------------------------------------
# Logarithm route to the tree constants
# ---------------------------------------------------------------------------

def theta_via_log(labels, order: int) -> dict[LabeledTree, Fraction]:
    """Read the tree constants off the logarithm of the all-trees series.

    Returns the coefficient (possibly zero) of every grafting-rooted tree of
    weight 1..order in the divided basis of log g, taken once per order.
    """
    ls = _norm_labels(labels)
    logs = _g_log(ls, order)
    table: dict[LabeledTree, Fraction] = {}
    for m in range(1, order + 1):
        elem = logs.coeffs[m]
        for t in enumerate_bplus_trees(ls, m):
            table[t] = elem.get(branch_forest(t))
    return table


# ---------------------------------------------------------------------------
# Shrub-expansion identity for f(-t)
# ---------------------------------------------------------------------------

@memo.collector_paused
def kappa_expansion_check(labels, order: int) -> CheckReport:
    """Expand B_+ of powers of the labeled-singleton series against f(-t).

    The right side is 1 plus, for every d >= 1, (-1)^d/d! times the grafting
    of all ordered d-tuples of labeled singletons under one new root; it must
    reproduce f(-t) coefficientwise.
    """
    ls = _norm_labels(labels)
    report = CheckReport()
    lhs = [gl.to_t_basis(c) for c in _f_series(ls, order).alternate().coeffs]

    rhs_terms: list[list[tuple[Forest, Fraction]]] = [[] for _ in range(order + 1)]
    rhs_terms[0].append((EMPTY_FOREST, 1))
    for d in range(1, order // min(ls) + 1):
        base = Fraction((-1) ** d, factorial(d))
        for combo in itertools.combinations_with_replacement(ls, d):
            w = sum(combo)
            if w > order:
                continue
            multiplicity = factorial(d)
            for label in set(combo):
                multiplicity //= factorial(combo.count(label))
            rhs_terms[w].append((forest(leaf(x) for x in combo), base * multiplicity))

    for degree in range(order + 1):
        report.checked += 1
        rhs = gl.GLElem(rhs_terms[degree], gl.T_BASIS)
        if lhs[degree] != rhs:
            report.failures.append(
                f"degree {degree}: {gl.text(lhs[degree])} != {gl.text(rhs)}"
            )
    return report


# ---------------------------------------------------------------------------
# Specialization and its transpose
# ---------------------------------------------------------------------------

@memo.memoized
def _word_image(labels: tuple[int, ...], word: tuple[int, ...]) -> gl.GLElem:
    # The image of a word: the image of the word without its last letter
    # times that letter's generator image.
    if len(word) < 2:
        return _generator_image(labels, word[0]) if word else _ONE
    return gl.mul(_word_image(labels, word[:-1]), _generator_image(labels, word[-1]))


def specialize(x: nsym.NSymElem, labels) -> gl.GLElem:
    """Algebra map fixed on elementary generators by the signed shrub sums.

    Each word's image is memoized on (labels, word) and built from the
    image of its prefix, so every caller shares it, :func:`dual_specialize`
    included.
    """
    ls = _norm_labels(labels)
    den, nums = x.ints
    return combine(_ONE, [(n, _word_image(ls, word)) for word, n in nums], den)


def dual_specialize(f: Forest, labels) -> nsym.QSymElem:
    """Quasi-symmetric image of a forest under the transpose of specialize.

    The image is taken over labels: a vertex with another label, the grafting
    label 0 of a root included, has no letter there, so it is refused rather
    than sent to 0.

    The coefficient of M_alpha is the pairing of the image of the complete
    word S^alpha with f.  In the divided basis that pairing reads the
    coefficient of f, so it is the sum over words w of [w]S^alpha times
    [f] of the image of w.  The numerator of f is read once from the integer
    form of each memoized word image of weight |f|, and no image is summed.
    """
    ls = _norm_labels(labels)
    outside = sorted(label_values(f).union(t.label for t in f) - set(ls))
    if outside:
        raise ValueError(f"label {outside[0]} outside the allowed set {list(ls)}")
    comps = nsym.compositions(f.weight)
    read = {}
    for w in comps:
        den, nums = _word_image(ls, w).ints
        n = next((n for key, n in nums if key is f), 0)
        if n:
            read[w] = (den, n)
    # Over the lcm of the denominators read, every row entry is an integer.
    total = lcm(*[den for den, _ in read.values()])
    row = {w: n * (total // den) for w, (den, n) in read.items()}
    terms = []
    for comp in comps:
        den, nums = nsym.complete_word(comp).ints
        terms.append((comp, Fraction(sum([n * row.get(w, 0) for w, n in nums]), den * total)))
    return nsym.QSymElem(terms)


@memo.collector_paused
def specialization_check(labels, order: int) -> CheckReport:
    """Specializing the universal system reproduces the tree system.

    Applies the algebra map coefficientwise to the five series over the free
    algebra and compares against the five tree series, degree by degree.
    """
    ls = _norm_labels(labels)
    report = CheckReport()
    pi = nsym.pi_system(order)
    omega = build_omega(ls, order)
    for name in ("f", "g", "d", "h", "m"):
        src = pi.series_by_name(name)
        dst = omega.series_by_name(name)
        for degree in range(min(src.order, dst.order) + 1):
            report.checked += 1
            image = specialize(src.coeffs[degree], ls)
            if image != dst.coeffs[degree]:
                report.failures.append(
                    f"series {name} degree {degree}: {gl.text(image)} != {gl.text(dst.coeffs[degree])}"
                )
    return report


@memo.collector_paused
def hopf_morphism_check(labels, order: int) -> CheckReport:
    """Coalgebra compatibility of the specialization.

    Checks that the generator images are sent to the divided-power coproduct
    pattern, that the g-coefficients form a sequence of divided powers, and
    that every h, d and m coefficient is primitive.
    """
    ls = _norm_labels(labels)
    report = CheckReport()
    omega = build_omega(ls, order)

    def divided_power_step(seq, m: int) -> bool:
        # coproduct(seq[m]) == sum over k of seq[k] (x) seq[m - k]
        rhs = add_all(
            gl.GLTensor({}, gl.V_BASIS), (gl.tensor_of(seq[k], seq[m - k]) for k in range(m + 1))
        )
        return gl.coproduct(seq[m]) == rhs

    images = [gl.unit()] + [specialize(nsym.generator(m), ls) for m in range(1, order + 1)]
    for m in range(1, order + 1):
        report.checked += 1
        if not divided_power_step(images, m):
            report.failures.append(f"generator image {m} is not a divided-power sequence step")

    for m in range(1, order + 1):
        report.checked += 1
        if not divided_power_step(omega.g.coeffs, m):
            report.failures.append(f"g coefficient {m} breaks the divided-power pattern")

    for name in ("h", "d", "m"):
        series = omega.series_by_name(name)
        for degree, coeff in enumerate(series.coeffs):
            if coeff.is_zero():
                continue
            report.checked += 1
            if not gl.is_primitive(coeff):
                report.failures.append(f"{name} coefficient at degree {degree} is not primitive")

    return report


@memo.collector_paused
def specialization_rank(labels, order: int) -> dict[int, dict[str, int]]:
    """Rank of the specialization per weight, as a diagnostic.

    Row-reduces the images of all weight-m words over the tree basis; the map
    may or may not be injective and no claim is made either way.
    """
    ls = _norm_labels(labels)
    out: dict[int, dict[str, int]] = {}
    for m in range(1, order + 1):
        words = nsym.compositions(m)
        basis = enumerate_forests(ls, m)
        index = {f: i for i, f in enumerate(basis)}
        rows = [{index[key]: n for key, n in _word_image(ls, word).ints[1]} for word in words]
        rank = _sparse_rank(rows)
        out[m] = {"dimension": len(words), "target_dimension": len(basis), "rank": rank}
    return out


def _sparse_rank(rows: list[dict[int, int]]) -> int:
    """Rank of the rows {column: nonzero integer}, by fraction-free sparse elimination.

    The columns are first renumbered by increasing count of nonzeros, which
    keeps the rank and makes the sparsest columns the pivots, so the fill-in
    stays small.  Each row is kept divided by the gcd of its entries; the
    sparsest rows are reduced first.  A row is reduced from its lowest
    column c up: while c is the pivot of a kept row p, the row becomes
    p[c] * row - row[c] * p, both factors divided by their gcd.  Every kept
    row starts at its pivot, so each step only adds higher columns.
    """
    count = Counter(j for row in rows for j in row)
    order = {j: i for i, j in enumerate(sorted(count, key=count.__getitem__))}
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        row = {order[j]: v for j, v in row.items()}
        while row:
            content = gcd(*row.values())
            if content != 1:
                row = {j: v // content for j, v in row.items()}
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = row
                break
            g = gcd(prow[col], row[col])
            p, r = prow[col] // g, row[col] // g
            if p != 1:
                row = {j: p * v for j, v in row.items()}
            for j, v in prow.items():
                # r * v is nonzero, so a zero sum means j was in row.
                w = row.get(j, 0) - r * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(pivots)


# ---------------------------------------------------------------------------
# Three-route agreement for the tree constants
# ---------------------------------------------------------------------------

@memo.collector_paused
def theta_agreement_report(max_weight: int = 7) -> CheckReport:
    """Recurrence, logarithm and order-polynomial routes agree on all shapes.

    Sweeps every grafting-rooted tree with up to max_weight non-root
    vertices.
    """
    report = CheckReport()
    log_table = theta_via_log((1,), max_weight)
    for m in range(1, max_weight + 1):
        for t in enumerate_bplus_trees((1,), m):
            report.checked += 1
            rec = theta_recurrence(t)
            via_log = log_table[t]
            via_poly = orderpoly.theta_via_orderpoly(t)
            if not (rec == via_log == via_poly):
                report.failures.append(
                    f"{tree_text(t)}: recurrence={rec} log={via_log} orderpoly={via_poly}"
                )
    return report
