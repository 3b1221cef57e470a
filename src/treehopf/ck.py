"""The Connes-Kreimer Hopf algebra of labeled rooted forests.

Free commutative algebra on tree variables: basis monomials are forests,
multiplication is disjoint union, the coproduct sums over admissible cuts
(pruned part on the left, trunk on the right), and the antipode is computed
through the recurrence available in any connected graded bialgebra.  Both
are memoized on trees and extended over forests by
:func:`treehopf.linear.extend_multiplicatively`, so every coefficient is an
integer combination of the inputs' numerators.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from . import memo
from .linear import LinComb, bilinear, combine, extend_multiplicatively, format_linear
from .trees import (
    EMPTY_FOREST,
    Forest,
    LabeledTree,
    cut_results,
    forest,
    forest_text,
    forest_union,
)


class CKElem(LinComb):
    """Rational combination of forests (commutative monomials in tree variables)."""

    __slots__ = ()

    def sorted_terms(self) -> list[tuple[Forest, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].weight, kv[0]._key))


class CKTensor(LinComb):
    """Element of the tensor square, keyed by ordered pairs of forests."""

    __slots__ = ()


def unit() -> CKElem:
    return from_forest(EMPTY_FOREST)


def from_tree(t: LabeledTree) -> CKElem:
    return from_forest(forest((t,)))


def from_forest(f: Forest) -> CKElem:
    return CKElem.from_ints(1, {f: 1})


def mul(a: CKElem, b: CKElem) -> CKElem:
    """Bilinear extension of disjoint union of forests."""
    return bilinear(a, ((a, b),), lambda fa, fb: ((forest_union(fa, fb), 1),))


def _pair_union(x, y):
    return forest_union(x[0], y[0]), forest_union(x[1], y[1])


def tensor_mul(a: CKTensor, b: CKTensor) -> CKTensor:
    """Componentwise product on the tensor square."""
    return bilinear(a, ((a, b),), lambda x, y: ((_pair_union(x, y), 1),))


def tensor_unit() -> CKTensor:
    return CKTensor.from_ints(1, {(EMPTY_FOREST, EMPTY_FOREST): 1})


@memo.memoized
def _tree_coproduct(t: LabeledTree) -> CKTensor:
    # The pairs of cut_results are distinct.
    acc = {(forest((t,)), EMPTY_FOREST): 1}
    acc.update(((pruned, forest((trunk,))), n) for pruned, trunk, n in cut_results(t))
    return CKTensor.from_ints(1, acc)


# The letters of a forest, and the units, for extend_multiplicatively: a
# forest's trees and the units are read once, not rebuilt per call.
_trees = attrgetter("trees")
_UNIT = unit()
_TENSOR_UNIT = tensor_unit()


def coproduct(a: CKElem) -> CKTensor:
    """Admissible-cut coproduct, extended multiplicatively over forests."""
    return extend_multiplicatively(a, _trees, _tree_coproduct, _TENSOR_UNIT, _pair_union)


def counit(a: CKElem) -> Fraction:
    return Fraction(next((n for f, n in a.ints[1] if f is EMPTY_FOREST), 0), a.ints[0])


@memo.memoized
def _tree_antipode(t: LabeledTree) -> CKElem:
    # From m(S x id)Delta = unit*counit: S(T) = -T - sum over nonempty cuts
    # of S(pruned) * trunk; the pruned part always has strictly lower weight.
    parts = [(-1, from_tree(t))]
    parts += (
        (-n, mul(antipode(from_forest(pruned)), from_tree(trunk)))
        for pruned, trunk, n in cut_results(t)
        if pruned.trees
    )
    return combine(CKElem(), parts)


def antipode(a: CKElem) -> CKElem:
    """Hopf antipode; multiplicative over forests, S(1) = 1."""
    return extend_multiplicatively(a, _trees, _tree_antipode, _UNIT, forest_union)


def text(a: CKElem) -> str:
    return format_linear(
        [(c, "" if not f.trees else forest_text(f)) for f, c in a.sorted_terms()]
    )


def to_json_terms(a: CKElem) -> list[dict[str, str]]:
    return [{"coeff": str(c), "forest": forest_text(f)} for f, c in a.sorted_terms()]
