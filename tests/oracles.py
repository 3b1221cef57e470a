"""Oracles that only the tests call: each restates a definition of the paper
on basis elements, so the tests can check the package against it."""

from fractions import Fraction
from math import factorial, gcd

from treehopf import ck, duality, gl, ncs
from treehopf.linear import combine
from treehopf.orderpoly import RationalPolynomial, interpolate_integer_nodes
from treehopf.series import TruncSeries
from treehopf.trees import (
    Forest,
    LabeledTree,
    _norm_labels,
    _require_grafting_root,
    automorphism_count,
    bplus,
    branch_forest,
    cut_results,
    enumerate_bplus_trees,
    enumerate_forests,
    forest_text,
    tree_text,
)


def pair_tree_forest(t: LabeledTree, f: Forest) -> int:
    """Pairing of a basis grafting-rooted tree with a basis forest."""
    _require_grafting_root(t)
    return automorphism_count(t) if branch_forest(t) == f else 0


def pairing_matrix(labels, weight: int) -> list[list[Fraction]]:
    """Matrix of the divided basis against forests of one weight, both sorted."""
    trees = enumerate_bplus_trees(labels, weight)
    forests = enumerate_forests(labels, weight)
    return [
        [duality.pair(gl.from_bplus_tree(t, gl.V_BASIS), ck.from_forest(f)) for f in forests]
        for t in trees
    ]


def adjunction_by_pairings(labels, max_weight: int) -> tuple[int, list[str]]:
    """The transpose identities of duality.check_hopf_adjunction, one basis
    triple at a time: every (x, y, F), (x, F, G) and (x, F) is paired on its
    own in the divided basis, in the checker's loop order.  Returns the
    number of pairings and the failure texts."""
    forests = [enumerate_forests(labels, m) for m in range(max_weight + 1)]
    every = [x for fs in forests for x in fs]
    V, C = gl.from_branches, ck.from_forest
    pairings, failures = [], []

    def check(text, lhs, rhs):
        pairings.append(text)
        if lhs != rhs:
            failures.append(f"{text}: {lhs} != {rhs}")

    def name(x):
        return tree_text(bplus(x))

    for wx, xs in enumerate(forests):
        for wy in range(max_weight + 1 - wx):
            for x in xs:
                for y in forests[wy]:
                    for f in forests[wx + wy]:
                        check(
                            f"product/coproduct: x={name(x)} y={name(y)} F={forest_text(f)}",
                            duality.pair(gl.mul(V(x), V(y)), C(f)),
                            duality.pair_tensor(gl.tensor_of(V(x), V(y)), ck.coproduct(C(f))),
                        )
    for x in every:
        for wf in range(x.weight + 1):
            for f in forests[wf]:
                for g in forests[x.weight - wf]:
                    fg = ck.CKTensor.from_ints(1, {(f, g): 1})
                    check(
                        f"coproduct/product: x={name(x)} F={forest_text(f)} G={forest_text(g)}",
                        duality.pair_tensor(gl.coproduct(V(x)), fg),
                        duality.pair(V(x), ck.mul(C(f), C(g))),
                    )
    for x in every:
        for f in forests[x.weight]:
            check(
                f"antipode: x={name(x)} F={forest_text(f)}",
                duality.pair(gl.antipode(V(x)), C(f)),
                duality.pair(V(x), ck.antipode(C(f))),
            )
    return len(pairings), failures


def nested_cut_sequences(
    t: LabeledTree, r: int, single_edges: bool = False
) -> list[tuple[tuple[LabeledTree, ...], int]]:
    """Sequences of r-1 successive admissible cuts as (pieces, count).

    Each cut is taken from :func:`cut_results` of the trunk the earlier ones
    left, the empty cut included.  The first r-1 pieces are the pruned
    forests re-rooted under a fresh 0-labeled root, in cutting order; the
    last piece is the remaining trunk.  count is the number of edge-set
    sequences giving these pieces.  With ``single_edges=True`` every cut
    consists of exactly one edge.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    out: dict[tuple[LabeledTree, ...], int] = {}

    def go(trunk: LabeledTree, k: int, pieces: tuple, count: int):
        if k == 0:
            key = pieces + (trunk,)
            out[key] = out.get(key, 0) + count
            return
        for pruned, rest, n in cut_results(trunk):
            if not single_edges or len(pruned) == 1:
                go(rest, k - 1, pieces + (bplus(pruned),), count * n)

    go(t, r - 1, (), 1)
    return list(out.items())


def sparse_rank_in_given_column_order(rows: list[dict[int, int]]) -> int:
    """Rank of the rows {column: nonzero integer}, eliminating lowest column first.

    The elimination of ``ncs._sparse_rank`` without its renumbering of the
    columns by nonzero count: each row, sparsest first, is kept divided by
    the gcd of its entries and reduced from its lowest column c up, while c
    is the pivot of a kept row p, to p[c] * row - row[c] * p with both
    factors divided by their gcd.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        row = dict(row)
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
                w = row.get(j, 0) - r * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(pivots)


def multiply_out(a, image, one, mul):
    """The map on a that is multiplicative over the letters of a key, element
    by element: a key (a forest, a word) is sent to mul(...mul(image(l1),
    image(l2))..., image(lk)), the empty key to one, and the images are
    summed with linear.combine.  An anti-homomorphism passes a flipped mul."""
    den, nums = a.ints
    parts = []
    for key, n in nums:
        part = one
        if key:
            letters = iter(key)
            part = image(next(letters))
            for letter in letters:
                part = mul(part, image(letter))
        parts.append((n, part))
    return combine(one, parts, den)


def ck_coproduct_by_extension(a: ck.CKElem) -> ck.CKTensor:
    """The CK coproduct of a, each forest multiplied out tree by tree: the
    tensor product of its trees' coproducts, one ck.tensor_mul at a time."""
    return multiply_out(a, ck._tree_coproduct, ck.tensor_unit(), ck.tensor_mul)


def ck_antipode_by_extension(a: ck.CKElem) -> ck.CKElem:
    """The CK antipode of a, each forest multiplied out tree by tree: the
    product of its trees' antipodes, one ck.mul at a time."""
    return multiply_out(a, ck._tree_antipode, ck.unit(), ck.mul)


def specialize_letter_by_letter(x, labels) -> gl.GLElem:
    """The specialization of an NSym element, every word multiplied out letter
    by letter: the product of the generator images of its letters, in order."""
    ls = _norm_labels(labels)
    return multiply_out(x, lambda m: ncs._generator_image(ls, m), gl.unit(), gl.mul)


def binomial_poly(k: int) -> RationalPolynomial:
    """The polynomial s(s-1)...(s-k+1)/k!."""
    return interpolate_integer_nodes([0] * k + [1])


def reciprocity_by_reflection(size: int, p: RationalPolynomial, q: RationalPolynomial) -> bool:
    """Reciprocity on polynomial objects: q equals (-1)^size times p(-s)."""
    return q == (-1) ** size * p.reflected()


def differences_by_shifts(p, q, p_branches, q_branches) -> bool:
    """The difference identities on polynomial objects: the forward difference
    of p and the backward difference of q, each built from a shifted copy."""
    return p.shifted(1) - p == p_branches and q - q.shifted(-1) == q_branches


class RationalOps:
    """The series interface over exact rational scalars: the base-case carrier."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def sum(self, xs):
        return sum(xs, Fraction(0))

    def scale(self, c, x):
        return c * x

    def dot(self, pairs):
        return sum((x * y for x, y in pairs), Fraction(0))

    def eq(self, x, y) -> bool:
        return x == y

    def describe(self, x) -> str:
        return str(x)


RATIONAL_OPS = RationalOps()


def power_sum(x: TruncSeries, weights) -> TruncSeries:
    """sum_k weights[k] * x**k for a series x with zero constant term.

    Every power x**k is built as a full product, and the coefficient of
    degree n is one sum over k <= n of the scaled powers: x**k vanishes
    below degree k.
    """
    ops = x.ops
    powers = [TruncSeries.one(ops, x.order)]
    for _ in range(x.order):
        powers.append(powers[-1] * x)
    return TruncSeries(
        ops,
        tuple(
            ops.sum(ops.scale(weights[k], powers[k].coeffs[n]) for k in range(n + 1) if weights[k])
            for n in range(x.order + 1)
        ),
    )


def exp_by_powers(x: TruncSeries) -> TruncSeries:
    """exp x as the sum of the x**k / k!, for x with zero constant term."""
    return power_sum(x, [Fraction(1, factorial(k)) for k in range(x.order + 1)])


def log_by_powers(g: TruncSeries) -> TruncSeries:
    """log g as the sum of the (-1)**(k+1) (g - 1)**k / k, for g with unit constant term."""
    weights = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, g.order + 1)]
    return power_sum(g - TruncSeries.one(g.ops, g.order), weights)
