"""The Connes-Kreimer Hopf algebra of labeled rooted forests.

Free commutative algebra on tree variables: basis monomials are forests,
multiplication is disjoint union, the coproduct sums over admissible cuts
(pruned part on the left, trunk on the right), and the antipode is computed
through the recurrence available in any connected graded bialgebra.
"""

from __future__ import annotations

from fractions import Fraction

from . import memo
from .linear import LinComb, extend_multiplicatively, format_linear
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

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0].weight, kv[0][0]._key, kv[0][1]._key),
        )


def unit() -> CKElem:
    return CKElem({EMPTY_FOREST: 1})


def from_tree(t: LabeledTree) -> CKElem:
    return CKElem({forest((t,)): 1})


def from_forest(f: Forest) -> CKElem:
    return CKElem({f: 1})


def mul(a: CKElem, b: CKElem) -> CKElem:
    """Bilinear extension of disjoint union of forests."""
    return CKElem(
        (forest_union(fa, fb), ca * cb)
        for fa, ca in a.terms.items()
        for fb, cb in b.terms.items()
    )


def tensor_mul(a: CKTensor, b: CKTensor) -> CKTensor:
    """Componentwise product on the tensor square."""
    return CKTensor(
        ((forest_union(la, lb), forest_union(ra, rb)), ca * cb)
        for (la, ra), ca in a.terms.items()
        for (lb, rb), cb in b.terms.items()
    )


def tensor_unit() -> CKTensor:
    return CKTensor({(EMPTY_FOREST, EMPTY_FOREST): 1})


@memo.memoized
def _tree_coproduct(t: LabeledTree) -> CKTensor:
    terms = [((forest((t,)), EMPTY_FOREST), 1)]
    terms += (((pruned, forest((trunk,))), n) for pruned, trunk, n in cut_results(t))
    return CKTensor(terms)


def coproduct(a: CKElem) -> CKTensor:
    """Admissible-cut coproduct, extended multiplicatively over forests."""
    return extend_multiplicatively(a, _tree_coproduct, tensor_unit(), tensor_mul)


def counit(a: CKElem) -> Fraction:
    return a.get(EMPTY_FOREST)


@memo.memoized
def _tree_antipode(t: LabeledTree) -> CKElem:
    # From m(S x id)Delta = unit*counit: S(T) = -T - sum over nonempty cuts
    # of S(pruned) * trunk; the pruned part always has strictly lower weight.
    def terms():
        yield forest((t,)), -1
        for pruned, trunk, n in cut_results(t):
            if pruned.trees:
                rest = forest((trunk,))
                for f, c in antipode(from_forest(pruned)).terms.items():
                    yield forest_union(f, rest), -c * n

    return CKElem(terms())


def antipode(a: CKElem) -> CKElem:
    """Hopf antipode; multiplicative over forests, S(1) = 1."""
    return extend_multiplicatively(a, _tree_antipode, unit(), mul)


def text(a: CKElem) -> str:
    return format_linear(
        [(c, "" if not f.trees else forest_text(f)) for f, c in a.sorted_terms()]
    )


def to_json_terms(a: CKElem) -> list[dict[str, str]]:
    return [{"coeff": str(c), "forest": forest_text(f)} for f, c in a.sorted_terms()]
