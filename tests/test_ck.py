"""Forest Hopf algebra: product, cut coproduct, counit, antipode."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given

from conftest import canonical_trees
from oracles import ck_antipode_by_extension, ck_coproduct_by_extension
from treehopf import ck
from treehopf.trees import (
    EMPTY_FOREST,
    enumerate_forests,
    enumerate_trees,
    forest,
    forest_union,
    leaf,
    parse_forest,
    parse_tree,
)


def elem(text):
    return ck.from_forest(parse_forest(text))


def tensor(pairs):
    return ck.CKTensor({(parse_forest(a), parse_forest(b)): c for (a, b), c in pairs.items()})


# ---------------------------------------------------------------------------
# Product
# ---------------------------------------------------------------------------

def test_unit_and_product_examples():
    f = elem("[1(1),2]")
    assert ck.mul(ck.unit(), f) == f
    assert ck.mul(elem("[1]"), elem("[1]")) == elem("[1,1]")
    lhs = ck.mul(2 * elem("[1]") + elem("[2]"), elem("[1]"))
    assert lhs == 2 * elem("[1,1]") + elem("[1,2]")


def test_product_commutative_associative():
    basis = [elem("[1]"), elem("[1,1]"), elem("[1(1)]"), elem("[2]")]
    for a in basis:
        for b in basis:
            assert ck.mul(a, b) == ck.mul(b, a)
            for c in basis:
                assert ck.mul(ck.mul(a, b), c) == ck.mul(a, ck.mul(b, c))


# ---------------------------------------------------------------------------
# Coproduct
# ---------------------------------------------------------------------------

def test_coproduct_of_unit():
    assert ck.coproduct(ck.unit()) == tensor({("[]", "[]"): 1})


def test_coproduct_of_singleton():
    assert ck.coproduct(elem("[1]")) == tensor({("[1]", "[]"): 1, ("[]", "[1]"): 1})


def test_coproduct_of_three_chain():
    # Cuts of 1(1(1)): empty, deep edge (prunes the leaf), root edge (prunes
    # the 2-chain); plus the full-tree-left term.
    t = "[1(1(1))]"
    expected = tensor(
        {
            (t, "[]"): 1,
            ("[]", t): 1,
            ("[1]", "[1(1)]"): 1,
            ("[1(1)]", "[1]"): 1,
        }
    )
    assert ck.coproduct(elem(t)) == expected


def test_counit():
    assert ck.counit(ck.unit()) == 1
    assert ck.counit(elem("[1]")) == 0
    assert ck.counit(3 * ck.unit() + 2 * elem("[1(1)]")) == 3


def _triple_left(a):
    # (coproduct x id) applied to a CKTensor
    out = {}
    for (l, r), c in a.terms.items():
        for (l1, l2), c2 in ck.coproduct(ck.from_forest(l)).terms.items():
            key = (l1, l2, r)
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def _triple_right(a):
    out = {}
    for (l, r), c in a.terms.items():
        for (r1, r2), c2 in ck.coproduct(ck.from_forest(r)).terms.items():
            key = (l, r1, r2)
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def test_coassociativity_up_to_weight_five():
    for m in range(0, 6):
        for f in enumerate_forests((1,), m):
            d = ck.coproduct(ck.from_forest(f))
            assert _triple_left(d) == _triple_right(d), f


def test_coproduct_is_algebra_map():
    for m in range(1, 4):
        for f in enumerate_forests((1, 2), m):
            for k in range(1, 3):
                for g in enumerate_forests((1, 2), k):
                    lhs = ck.coproduct(ck.mul(ck.from_forest(f), ck.from_forest(g)))
                    rhs = ck.tensor_mul(
                        ck.coproduct(ck.from_forest(f)), ck.coproduct(ck.from_forest(g))
                    )
                    assert lhs == rhs


def test_counit_axioms():
    for m in range(0, 5):
        for f in enumerate_forests((1,), m):
            a = ck.from_forest(f)
            d = ck.coproduct(a)
            left = ck.CKElem()
            right = ck.CKElem()
            for (l, r), c in d.terms.items():
                left = left + ck.from_forest(r).scale(c * ck.counit(ck.from_forest(l)))
                right = right + ck.from_forest(l).scale(c * ck.counit(ck.from_forest(r)))
            assert left == a and right == a


def test_coproduct_respects_grading():
    for m in range(0, 6):
        for f in enumerate_forests((1,), m):
            for (l, r) in ck.coproduct(ck.from_forest(f)).terms:
                assert l.weight + r.weight == m


# ---------------------------------------------------------------------------
# Antipode
# ---------------------------------------------------------------------------

def test_antipode_examples():
    assert ck.antipode(ck.unit()) == ck.unit()
    assert ck.antipode(elem("[1]")) == -elem("[1]")


def _convolution_identity(a):
    d = ck.coproduct(a)
    acc = ck.CKElem()
    for (l, r), c in d.terms.items():
        acc = acc + ck.mul(ck.antipode(ck.from_forest(l)), ck.from_forest(r)).scale(c)
    return acc


def test_antipode_axiom_up_to_weight_five():
    for m in range(1, 6):
        for t in enumerate_trees((1,), m):
            assert _convolution_identity(ck.from_tree(t)).is_zero(), t
    # and on some genuine forests
    for text in ("[1,1]", "[1(1),1]", "[1,1,1]", "[2,1(1)]"):
        assert _convolution_identity(elem(text)).is_zero()
    assert _convolution_identity(ck.unit()) == ck.unit()


def test_antipode_multiplicative():
    a, b = elem("[1(1)]"), elem("[1]")
    assert ck.antipode(ck.mul(a, b)) == ck.mul(ck.antipode(a), ck.antipode(b))


# ---------------------------------------------------------------------------
# The integer fold against tree-by-tree multiplication
# ---------------------------------------------------------------------------

def _assert_fold_matches_extension(a):
    # .ints lists the keys in order, so this compares the key order too.
    assert ck.coproduct(a).ints == ck_coproduct_by_extension(a).ints, ck.text(a)
    assert ck.antipode(a).ints == ck_antipode_by_extension(a).ints, ck.text(a)


def test_fold_matches_extension_on_every_forest_to_weight_six():
    forests = [f for m in range(7) for f in enumerate_forests((1, 2), m)]
    assert len(forests) == 251
    for f in forests:
        _assert_fold_matches_extension(ck.from_forest(f))
    # A lone tree with coefficient 1 is sent to its memoized image itself.
    t = parse_tree("1(2,1)")
    assert ck.coproduct(ck.from_tree(t)) is ck._tree_coproduct(t)
    assert ck.antipode(ck.from_tree(t)) is ck._tree_antipode(t)


_COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
_FORESTS = st.lists(canonical_trees((1, 2), max_depth=2, max_children=2), max_size=3).map(forest)


@st.composite
def _forest_sums(draw):
    # Repeated forests, then the negations of some terms, so that keys cancel.
    terms = draw(st.lists(st.tuples(_FORESTS, _COEFFS), max_size=5))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return ck.CKElem(terms + [(f, -c) for f, c in cancelled])


@given(_forest_sums())
# An input key that cancels; the output key ([1], [1(1)]) of the next one
# cancels after two terms and comes back with the third.
@example(ck.CKElem([(parse_forest("[1,2]"), 1), (EMPTY_FOREST, Fraction(1, 2)),
                    (parse_forest("[1,2]"), -1)]))
@example(elem("[1(1(1))]") - elem("[1(1),1]") + Fraction(2, 3) * elem("[1(1,1)]"))
def test_fold_matches_extension_on_sums_of_forests(a):
    _assert_fold_matches_extension(a)


def test_text_form():
    a = 2 * elem("[1,1]") + elem("[2]") - ck.unit()
    assert ck.text(a) == "-1 + 2*[1,1] + [2]"
    assert ck.to_json_terms(elem("[1]")) == [{"coeff": "1", "forest": "[1]"}]
