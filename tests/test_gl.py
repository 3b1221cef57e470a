"""Grafting Hopf algebra: product routes, coproduct, antipode, primitives."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import canonical_trees
from treehopf import gl, ncs
from treehopf.linear import add_all
from treehopf.trees import (
    EMPTY_FOREST,
    automorphism_count,
    bplus,
    branch_forest,
    enumerate_bplus_trees,
    cut_results,
    enumerate_forests,
    enumerate_trees,
    forest,
    forest_text,
    graft_positions,
    leaf,
    parse_forest,
    parse_tree,
    tree_text,
)


def v(text):
    return gl.from_bplus_tree(parse_tree(text), gl.V_BASIS)


def t_(text):
    return gl.from_bplus_tree(parse_tree(text), gl.T_BASIS)


def v_terms(pairs):
    return gl.GLElem({parse_forest(k): c for k, c in pairs.items()}, gl.V_BASIS)


def t_terms(pairs):
    return gl.GLElem({parse_forest(k): c for k, c in pairs.items()}, gl.T_BASIS)


# ---------------------------------------------------------------------------
# Product
# ---------------------------------------------------------------------------

def test_unit_law():
    x = v("0(1(1),2)")
    assert gl.mul(gl.unit(), x) == x
    assert gl.mul(x, gl.unit()) == x


def test_divided_basis_product_example():
    prod = gl.mul(v("0(1)"), v("0(1)"))
    assert prod == v_terms({"[1,1]": 2, "[1(1)]": 1})


def test_plain_basis_product_example():
    prod = gl.mul(t_("0(1)"), t_("0(1)"))
    assert prod == t_terms({"[1,1]": 1, "[1(1)]": 1})


def test_basis_mixing_raises():
    with pytest.raises(TypeError):
        gl.mul(v("0(1)"), t_("0(1)"))
    with pytest.raises(TypeError):
        v("0(1)") == t_("0(1)")


def test_basis_conversion_round_trip():
    x = v_terms({"[1,1]": Fraction(3, 2), "[1(1)]": -1})
    assert gl.to_v_basis(gl.to_t_basis(x)) == x
    assert gl.to_t_basis(x).get(parse_forest("[1,1]")) == Fraction(3, 4)


def test_structure_route_agrees_up_to_total_weight_five():
    for wa in range(0, 6):
        for wb in range(0, 6 - wa):
            for ta in enumerate_bplus_trees((1,), wa):
                for tb in enumerate_bplus_trees((1,), wb):
                    a, b = gl.from_bplus_tree(ta), gl.from_bplus_tree(tb)
                    assert gl.mul(a, b) == gl.mul_structure(a, b), (ta, tb)
                    at, bt = gl.from_bplus_tree(ta, gl.T_BASIS), gl.from_bplus_tree(tb, gl.T_BASIS)
                    assert gl.mul(at, bt) == gl.mul_structure(at, bt), (ta, tb)


def test_structure_route_on_two_labels():
    for ta in enumerate_bplus_trees((1, 2), 2):
        for tb in enumerate_bplus_trees((1, 2), 2):
            a, b = gl.from_bplus_tree(ta), gl.from_bplus_tree(tb)
            assert gl.mul(a, b) == gl.mul_structure(a, b)


def test_cut_graft_adjunction_counting_form():
    # Multiplicity of a result tree in the graft product equals
    # alpha(left)*alpha(stock)/alpha(result) times the number of admissible
    # cuts of the result recovering the pair.
    for wa in range(1, 4):
        for wb in range(0, 5 - wa):
            for ta in enumerate_bplus_trees((1,), wa):
                for tb in enumerate_bplus_trees((1,), wb):
                    counts = {}
                    for res in graft_positions(branch_forest(ta), tb):
                        counts[res] = counts.get(res, 0) + 1
                    for res, mult in counts.items():
                        matches = sum(
                            n
                            for pruned, trunk, n in cut_results(res)
                            if bplus(pruned) == ta and trunk == tb
                        )
                        expected = Fraction(
                            automorphism_count(ta) * automorphism_count(tb),
                            automorphism_count(res),
                        ) * matches
                        assert mult == expected, (ta, tb, res)


_basis_pool = [
    gl.from_bplus_tree(t)
    for w in range(0, 4)
    for t in enumerate_bplus_trees((1,), w)
]


@settings(max_examples=30)
@given(st.tuples(st.sampled_from(_basis_pool), st.sampled_from(_basis_pool), st.sampled_from(_basis_pool)))
def test_associativity(triple):
    a, b, c = triple
    assert gl.mul(gl.mul(a, b), c) == gl.mul(a, gl.mul(b, c))


_forest_pool = [f for w in range(0, 4) for f in enumerate_forests((1, 2), w)]
_non_unit_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda c: c not in (0, 1, -1)
)


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.sampled_from(_forest_pool), _non_unit_coeffs), min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from(_forest_pool), _non_unit_coeffs), min_size=1, max_size=4),
    st.sampled_from((gl.V_BASIS, gl.T_BASIS)),
)
def test_product_routes_agree_on_combinations(a_terms, b_terms, basis):
    # Combinations, not basis elements: the cached table's constants must
    # scale by the coefficients and sum over the pairs of terms in each basis.
    a, b = gl.GLElem(a_terms, basis), gl.GLElem(b_terms, basis)
    assert gl.mul(a, b) == gl.mul_structure(a, b)


_terms = st.lists(st.tuples(st.sampled_from(_forest_pool), _non_unit_coeffs), max_size=4)


@settings(max_examples=40)
@given(
    st.lists(st.tuples(_terms, _terms), min_size=1, max_size=3),
    st.sampled_from((gl.V_BASIS, gl.T_BASIS)),
    st.booleans(),
)
def test_dot_equals_the_sum_of_structure_products(raw_pairs, basis, cancel):
    # One integer kernel over mixed denominators; a negated copy of the
    # first pair cancels it, and an empty term list is a zero factor.
    pairs = [(gl.GLElem(a, basis), gl.GLElem(b, basis)) for a, b in raw_pairs]
    if cancel:
        pairs.append((-pairs[0][0], pairs[0][1]))
    pairs.append((gl.zero(basis), pairs[0][1]))
    expected = add_all(gl.zero(basis), (gl.mul_structure(a, b) for a, b in pairs))
    assert gl.dot(pairs, basis) == expected
    assert gl.dot(iter(pairs), basis) == expected


def test_dot_of_no_pairs_is_zero_and_refuses_a_mixed_basis():
    assert gl.dot((), gl.T_BASIS) == gl.zero(gl.T_BASIS)
    with pytest.raises(TypeError):
        gl.dot([(v("0(1)"), v("0(1)")), (t_("0(1)"), t_("0(1)"))], gl.V_BASIS)



def test_the_t_path_refuses_a_v_factor_and_an_unknown_basis():
    # A T-basis product is taken in V, and to_v_basis passes a V element
    # through unchanged, so the T path must check its factors first.
    t, w, one = t_("0(1)"), v("0(1)"), gl.unit(gl.T_BASIS)
    with pytest.raises(TypeError):
        gl.dot([(t, w)], gl.T_BASIS)
    with pytest.raises(TypeError):
        gl.mul(t, w)
    with pytest.raises(TypeError):
        gl.series([one, t], gl.T_BASIS) * gl.series([one, w], gl.T_BASIS)
    with pytest.raises(ValueError):
        gl.dot([], "X")

def test_fractional_v_constant_raises(monkeypatch):
    # A one-tree left factor, read off insert_scion: a corrupted insertion
    # gives the graft count 1 at [7(7(7))], so the V constant
    # 1 * alpha(0(7(7(7)))) / (alpha(0(7)) * alpha(0(7,7))) = 1/2 is
    # refused rather than truncated or cached.
    left, right, bad = parse_forest("[7]"), parse_forest("[7,7]"), parse_forest("[7(7(7))]")
    monkeypatch.setattr(gl, "insert_scion", lambda scion, f, at_root: (bad, 1) if at_root else ())
    with pytest.raises(ArithmeticError):
        gl.mul(gl.from_branches(left), gl.from_branches(right))
    assert (left, right) not in gl._product_table.table


def test_fractional_v_constant_raises_for_a_two_tree_left_factor(monkeypatch, clear_memo_tables):
    # [7,7] * [7] grafts the second 7 onto the results of [7] * [7].  A
    # corrupted insertion counts one way, not two, of attaching 7 inside
    # [7,7], so the count at [7,7(7)] is 2 against the correction's 1, and
    # the V constant (2 - 1) / alpha([7,7]) = 1/2 is refused, not stored.
    clear_memo_tables()
    left, right = parse_forest("[7,7]"), parse_forest("[7]")
    bad = (parse_forest("[7,7,7]"), 1, parse_forest("[7,7(7)]"), 1)
    real = gl.insert_scion

    def corrupted(scion, f, at_root):
        # The results of [7] * [7] include [7,7], which is left itself.
        return bad if f is left and at_root else real(scion, f, at_root)

    monkeypatch.setattr(gl, "insert_scion", corrupted)
    with pytest.raises(ArithmeticError):
        gl.mul(gl.from_branches(left), gl.from_branches(right))
    assert (left, right) not in gl._product_table.table
    assert (forest([leaf(7)]), right) in gl._product_table.table


def test_one_tree_product_tables_match_both_oracles(clear_memo_tables):
    # A one-tree left factor [x] reads its table straight off
    # insert_scion(x, right, True).  Every such pair over (1, 2) with total
    # weight <= 6, from cold tables: T against every assignment, V against
    # the admissible-cut counts, each result listed once.
    clear_memo_tables()
    pairs = 0
    for wx in range(1, 7):
        for x in enumerate_trees((1, 2), wx):
            left = forest([x])
            for wr in range(0, 7 - wx):
                for right in enumerate_forests((1, 2), wr):
                    den, t_table = gl.mul(
                        gl.from_branches(left, gl.T_BASIS), gl.from_branches(right, gl.T_BASIS)
                    ).ints
                    v_table = gl._product_table(left, right)
                    expected = Counter(map(branch_forest, graft_positions(left, bplus(right))))
                    assert den == 1, (forest_text(left), forest_text(right))
                    assert dict(t_table) == expected, (forest_text(left), forest_text(right))
                    assert dict(v_table) == dict(gl._structure_table(left, right))
                    assert len(t_table) == len(expected) and len(v_table) == len(dict(v_table))
                    pairs += 1
    # Trees of weight 1..6 (1, 2, 4, 10, 27, 75) times forests up to the rest.
    assert pairs == 87 + 64 + 48 + 50 + 54 + 75


def test_cached_product_constants_are_ints():
    assert ncs.verify_ncs(ncs.build_omega((1, 2), 6)).ok
    values = [c for table in gl._product_table.table.values() for _, c in table]
    assert values and all(type(c) is int for c in values)


def test_dot_asks_for_no_product_table_with_a_unit_factor(monkeypatch):
    # A term with the empty forest as one factor is summed straight into the
    # result; only the recursion inside _product_table reads such a table.
    asked, depth, table = [], [0], gl._product_table

    def spy(left, right):
        if not depth[0]:
            asked.append((left, right))
        depth[0] += 1
        try:
            return table(left, right)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(gl, "_product_table", spy)
    assert ncs.verify_ncs(ncs.build_omega((2, 3, 4), 12)).ok
    assert asked
    assert [pair for pair in asked if EMPTY_FOREST in pair] == []


def test_no_product_table_is_stored_for_an_empty_factor(clear_memo_tables):
    # A one-tree left factor reads its table off insert_scion and never
    # recurses, so the recursion stores no table with an empty factor.
    clear_memo_tables()
    assert ncs.verify_ncs(ncs.build_omega((2, 3, 4), 12)).ok
    keys = gl._product_table.table
    assert len(keys) == 1157
    assert [key for key in keys if EMPTY_FOREST in key[:2]] == []


# ---------------------------------------------------------------------------
# Coproduct
# ---------------------------------------------------------------------------

def test_coproduct_of_unit_is_group_like():
    d = gl.coproduct(gl.unit())
    assert d == gl.tensor_of(gl.unit(), gl.unit())


def test_coproduct_single_branch():
    d = gl.coproduct(v("0(1)"))
    assert d == gl.tensor_of(v("0(1)"), gl.unit()) + gl.tensor_of(gl.unit(), v("0(1)"))


def test_coproduct_two_equal_branches_plain_basis():
    # 4 ordered bipartitions of the 2-element branch multiset
    d = gl.coproduct(t_("0(1,1)"))
    expected = (
        gl.tensor_of(t_("0(1,1)"), gl.unit(gl.T_BASIS))
        + 2 * gl.tensor_of(t_("0(1)"), t_("0(1)"))
        + gl.tensor_of(gl.unit(gl.T_BASIS), t_("0(1,1)"))
    )
    assert d == expected


def test_coproduct_two_equal_branches_divided_basis():
    # dividing by alpha = 2 absorbs the middle multiplicity
    d = gl.coproduct(v("0(1,1)"))
    expected = (
        gl.tensor_of(v("0(1,1)"), gl.unit())
        + gl.tensor_of(v("0(1)"), v("0(1)"))
        + gl.tensor_of(gl.unit(), v("0(1,1)"))
    )
    assert d == expected


def test_coproduct_cocommutative():
    for m in range(0, 5):
        for t in enumerate_bplus_trees((1,), m):
            d = gl.coproduct(gl.from_bplus_tree(t))
            flipped = gl.GLTensor({(r, l): c for (l, r), c in d.terms.items()}, gl.V_BASIS)
            assert d == flipped


def test_counit():
    assert gl.counit(gl.unit()) == 1
    assert gl.counit(v("0(1)")) == 0
    assert gl.counit(5 * gl.unit() - 3 * v("0(1,1)")) == 5


# ---------------------------------------------------------------------------
# Antipode
# ---------------------------------------------------------------------------

def test_antipode_fixes_unit():
    assert gl.antipode(gl.unit()) == gl.unit()


def test_antipode_single_branch():
    assert gl.antipode(v("0(1)")) == -v("0(1)")


def test_antipode_two_branches():
    # Takeuchi's alternating sum over ordered partitions of the branches, by
    # hand: -T + 2 B(o)B(o) expanded by grafting.
    got = gl.antipode(t_("0(1,1)"))
    expected = -t_("0(1,1)") + 2 * gl.mul(t_("0(1)"), t_("0(1)"))
    assert got == expected
    assert expected == t_terms({"[1,1]": 1, "[1(1)]": 2})


def test_antipode_matches_recurrence_up_to_weight_four():
    for m in range(0, 5):
        for t in enumerate_bplus_trees((1,), m):
            e = gl.from_bplus_tree(t, gl.T_BASIS)
            assert gl.antipode(e) == gl.antipode_by_recurrence(e), tree_text(t)


def _repeated_branches():
    # One to three distinct small branches over labels (1,2), each repeated
    # up to four times, at most six branches in all: the forests where a sum
    # over the branch multiset differs most from one over branch positions.
    small = canonical_trees(labels=(1, 2), max_depth=1, max_children=2)
    kinds = st.lists(small, min_size=1, max_size=3, unique=True)

    def repeat(ks):
        counts = st.lists(st.integers(1, 4), min_size=len(ks), max_size=len(ks))
        return counts.map(lambda ms: forest([t for t, m in zip(ks, ms) for _ in range(m)][:6]))

    return kinds.flatmap(repeat).filter(lambda f: f.weight <= 8)


@settings(max_examples=40)
@given(_repeated_branches())
def test_antipode_matches_recurrence_on_repeated_branches(f):
    t = bplus(f)
    for basis in (gl.T_BASIS, gl.V_BASIS):
        e = gl.from_bplus_tree(t, basis)
        assert gl.antipode(e) == gl.antipode_by_recurrence(e), (basis, tree_text(t))


def _distinct_branches():
    # Distinct branches over labels 1-3, several levels deep, kept in order
    # while the weight stays at most 8.
    def capped(ts):
        kept = []
        for t in ts:
            if sum(u.size for u in kept) + t.size <= 8:
                kept.append(t)
        return forest(kept)

    branches = st.lists(canonical_trees(max_depth=3, max_children=2), min_size=1, unique=True)
    return branches.map(capped).filter(lambda f: f.trees)


@settings(max_examples=40)
@given(_distinct_branches())
def test_antipode_matches_recurrence_on_distinct_deep_branches(f):
    for basis in (gl.T_BASIS, gl.V_BASIS):
        e = gl.from_branches(f, basis)
        assert gl.antipode(e) == gl.antipode_by_recurrence(e), (basis, forest_text(f))


@given(st.one_of(_repeated_branches(), _distinct_branches()))
def test_antipode_keeps_its_tree_with_the_sign_of_its_branch_count(f):
    # Only grafting every branch onto the root rebuilds B(f), so in T the
    # coefficient of B(f) in S(B(f)) is that of the product of its k
    # branches, (-1)^k.
    assert gl.antipode(gl.from_branches(f, gl.T_BASIS)).get(f) == (-1) ** len(f.trees)


def test_antipode_matches_recurrence_on_six_branches_of_four_kinds():
    e = gl.from_branches(parse_forest("[1,1,1(1),1(1),2,2]"), gl.T_BASIS)
    assert gl.antipode(e) == gl.antipode_by_recurrence(e)


def test_antipode_and_its_oracle_share_no_route_but_the_product(monkeypatch, clear_memo_tables):
    # The recursion never splits a forest, and the recurrence never reads
    # the recursion; both multiply by gl.mul.
    def refuse(*args):
        raise AssertionError("this route must not be taken")

    forests = [f for m in range(6) for f in enumerate_forests((1, 2), m)]
    for basis in (gl.V_BASIS, gl.T_BASIS):
        clear_memo_tables()
        with monkeypatch.context() as patch:
            patch.setattr(gl, "coproduct", refuse)
            patch.setattr(gl, "_split_table", refuse)
            by_recursion = {f: gl.antipode(gl.from_branches(f, basis)) for f in forests}
        clear_memo_tables()
        with monkeypatch.context() as patch:
            patch.setattr(gl, "_antipode_basis_v", refuse)
            for f in forests:
                e = gl.from_branches(f, basis)
                assert gl.antipode_by_recurrence(e) == by_recursion[f], (basis, forest_text(f))


def test_antipode_axiom_up_to_weight_four():
    for m in range(0, 5):
        for t in enumerate_bplus_trees((1,), m):
            e = gl.from_bplus_tree(t)
            acc = gl.zero()
            for (l, r), c in gl.coproduct(e).terms.items():
                acc = acc + gl.mul(gl.antipode(gl.from_branches(l)), gl.from_branches(r)).scale(c)
            expected = gl.unit().scale(gl.counit(e))
            assert acc == expected, tree_text(t)


# ---------------------------------------------------------------------------
# Primitive elements
# ---------------------------------------------------------------------------

def test_primitive_examples():
    assert gl.is_primitive(v("0(1)"))
    assert not gl.is_primitive(v("0(1,1)"))
    assert not gl.is_primitive(gl.unit())


def test_chains_are_primitive():
    for text in ("0(1)", "0(1(1))", "0(1(1(1)))", "0(2(1(2)))"):
        assert gl.is_primitive(v(text))


def test_primitive_span_closed_under_bracket():
    prims = [
        gl.from_bplus_tree(t)
        for m in range(1, 5)
        for t in enumerate_bplus_trees((1,), m)
        if len(t.children) == 1
    ]
    for a in prims:
        for b in prims:
            bracket = gl.mul(a, b) - gl.mul(b, a)
            assert gl.is_primitive(bracket) or bracket.is_zero()


def test_text_form():
    x = v_terms({"[1,1]": 2, "[2]": -1}) + gl.unit()
    assert gl.text(x) == "1 + 2*V[1,1] - V[2]"
