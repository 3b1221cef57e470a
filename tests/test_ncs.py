"""The five-series system over trees: axioms, constants, specialization."""

from fractions import Fraction
from math import comb, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from conftest import canonical_trees
from oracles import sparse_rank_in_given_column_order, specialize_letter_by_letter
from treehopf import ck, duality, gl, ncs, nsym, orderpoly
from treehopf.linear import LinComb
from treehopf.trees import (
    EMPTY_FOREST,
    MAX_ORDER_CEILING,
    branch_forest,
    enumerate_bplus_trees,
    enumerate_forests,
    forest_text,
    leaf,
    node,
    parse_forest,
    parse_tree,
    tree_text,
)


def v_terms(pairs):
    return gl.GLElem({parse_forest(k): c for k, c in pairs.items()}, gl.V_BASIS)


def chain_bplus(m, label=1):
    t = leaf(label)
    for _ in range(m - 2):
        t = node(label, (t,))
    return node(0, (t,)) if m >= 2 else node(0, ())


# ---------------------------------------------------------------------------
# Series construction: terms from the two-label displays
# ---------------------------------------------------------------------------

def test_f_series_weight_two_terms():
    omega = ncs.build_omega((1, 2), 3)
    assert omega.f.coeffs[2] == v_terms({"[1,1]": 1, "[2]": -1})


def test_h_series_first_order_terms():
    omega = ncs.build_omega((1, 2), 3)
    assert omega.h.coeffs[1] == v_terms({"[1(1)]": 1, "[2]": 2})


def test_d_series_weight_three_terms():
    omega = ncs.build_omega((1, 2), 3)
    assert omega.d.coeffs[3] == v_terms(
        {
            "[1(2)]": Fraction(1, 2),
            "[2(1)]": Fraction(1, 2),
            "[1(1,1)]": Fraction(1, 6),
            "[1(1(1))]": Fraction(1, 3),
        }
    )


def test_g_series_collects_every_tree():
    omega = ncs.build_omega((1, 2), 3)
    assert len(omega.g.coeffs[3].terms) == 7
    assert all(c == 1 for c in omega.g.coeffs[3].terms.values())


def _reference_omega(labels, order):
    # The five series built tree by tree: every grafting-rooted tree is
    # enumerated, tested, mapped to its branch forest and summed by the
    # LinComb constructor, with d from theta_recurrence.
    def coeff(m, value):
        terms = {}
        for t in enumerate_bplus_trees(labels, m):
            c = value(t)
            if c is not None:
                terms[branch_forest(t)] = Fraction(c)
        return gl.GLElem(terms, gl.V_BASIS)

    def chain_label(t):
        while len(t.children) == 1:
            t = t.children[0]
        return None if t.children else t.label

    def primitive(value):
        return lambda t: value(t) if len(t.children) == 1 else None

    def shrub_sign(t, m):
        if t.children and all(not c.children for c in t.children):
            return (-1) ** (len(t.children) + m)
        return None

    degrees = range(1, order + 1)
    return {
        "f": [gl.unit()] + [coeff(m, lambda t, m=m: shrub_sign(t, m)) for m in degrees],
        "g": [gl.unit()] + [coeff(m, lambda t: 1) for m in degrees],
        "d": [gl.zero()] + [coeff(m, primitive(ncs.theta_recurrence)) for m in degrees],
        "h": [coeff(m, lambda t: chain_label(t) if t.children else None) for m in degrees],
        "m": [coeff(m, primitive(lambda t: t.children[0].label)) for m in degrees],
    }


def _as_map(form):
    den, nums = form
    return den, dict(nums)


@pytest.mark.parametrize("labels, order", [((1,), 7), ((1, 2), 6), ((2, 3, 4), 12)])
def test_build_omega_matches_the_tree_by_tree_reference(labels, order):
    omega = ncs.build_omega(labels, order)
    for name, expected in _reference_omega(labels, order).items():
        got = omega.series_by_name(name).coeffs
        assert len(got) == len(expected), name
        for degree, (x, y) in enumerate(zip(got, expected)):
            assert x.basis == gl.V_BASIS
            assert x.terms == y.terms, (name, degree)
            assert _as_map(x.ints) == _as_map(gl.GLElem(y.terms, gl.V_BASIS).ints), (name, degree)
            assert x == y


def test_build_omega_shares_its_coefficient_objects():
    first, second = ncs.build_omega((1, 2), 5), ncs.build_omega((1, 2), 5)
    for name in "fgdhm":
        a, b = first.series_by_name(name).coeffs, second.series_by_name(name).coeffs
        assert all(x is y for x, y in zip(a, b, strict=True)), name
    # A lower order over the same label set, listed apart, reads them too.
    assert all(x is y for x, y in zip(ncs.build_omega((2, 1), 3).d.coeffs, first.d.coeffs))


# ---------------------------------------------------------------------------
# Tree constants
# ---------------------------------------------------------------------------

def test_theta_base_cases():
    assert ncs.theta_recurrence(node(0, ())) == 0
    assert ncs.theta_recurrence(parse_tree("0(1)")) == 1
    assert ncs.theta_recurrence(parse_tree("0(1,1)")) == 0  # non-primitive


def test_theta_depends_only_on_shape():
    assert ncs.theta_recurrence(parse_tree("0(2(5))")) == ncs.theta_recurrence(
        parse_tree("0(1(1))")
    )


def test_theta_refuses_a_tree_without_grafting_root():
    with pytest.raises(ValueError, match=r"expected a grafting-rooted tree \(root label 0\)"):
        ncs.theta_recurrence(parse_tree("1(1)"))
    with pytest.raises(ValueError, match=r"expected a grafting-rooted tree \(root label 0\)"):
        orderpoly.theta_via_orderpoly(parse_tree("1(1)"))


def test_theta_chain_closed_form():
    for m in range(2, 14):
        assert ncs.theta_recurrence(chain_bplus(m)) == Fraction(1, m - 1)


def bernoulli(count):
    # sum_{j<=m} C(m+1, j) B_j = 0 with B_0 = 1
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_theta_shrub_closed_form_to_twelve_leaves():
    b = bernoulli(13)
    assert b[12] == Fraction(-691, 2730)
    for k in range(0, 13):
        shrub = node(1, tuple(leaf(1) for _ in range(k)))
        assert ncs.theta_recurrence(node(0, (shrub,))) == (-1) ** k * b[k], k


@given(st.lists(canonical_trees(), min_size=1, max_size=2))
def test_theta_recurrence_matches_orderpoly_route(branches):
    t = node(0, branches)
    assume(t.size <= MAX_ORDER_CEILING - 1)
    assert ncs.theta_recurrence(t) == orderpoly.theta_via_orderpoly(t), tree_text(t)


def test_theta_log_route_weight_one():
    table = ncs.theta_via_log((1,), 1)
    assert table == {parse_tree("0(1)"): Fraction(1)}


def test_theta_log_route_agrees_to_weight_five():
    table = ncs.theta_via_log((1,), 5)
    assert table
    for t, value in table.items():
        assert value == ncs.theta_recurrence(t), tree_text(t)


def test_theta_log_route_runs_no_recurrence(monkeypatch, clear_memo_tables):
    # g is built apart from the primitive series, so with every memo table
    # cold the log route still never reads the theta recurrence.
    expected = ncs.theta_via_log((1,), 6)
    clear_memo_tables()

    def refuse(u):
        raise AssertionError("theta recurrence called")

    monkeypatch.setattr(ncs, "_theta_of_shape", refuse)
    assert ncs.theta_via_log((1,), 6) == expected


def test_log_route_takes_log_g_once_and_returns_a_fresh_table():
    first, second = ncs.theta_via_log((1,), 6), ncs.theta_via_log((1,), 6)
    assert first is not second and first == second
    # The nonzero constants are read from one memoized log g.
    assert all(first[t] is second[t] for t in first if first[t])
    assert ncs._g_log((1,), 6) is ncs._g_log((1,), 6)
    t = next(iter(first))
    first[t] = Fraction(99)
    third = ncs.theta_via_log((1,), 6)
    assert third[t] == second[t] != 99 and third == second
    assert len(second) == sum(len(enumerate_bplus_trees((1,), m)) for m in range(1, 7))


def test_log_lands_on_primitives():
    table = ncs.theta_via_log((1,), 5)
    for t, value in table.items():
        if len(t.children) != 1:
            assert value == 0, tree_text(t)


# ---------------------------------------------------------------------------
# The defining equations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("labels", [(1,), (2,), (1, 2), (1, 3)])
def test_axioms_hold_for_several_label_sets(labels):
    report = ncs.verify_ncs(ncs.build_omega(labels, 5))
    assert report.ok, report.as_dict()


def test_inverse_of_g_is_alternated_f():
    omega = ncs.build_omega((1,), 4)
    assert omega.g.inverse_right() == omega.f.alternate()
    assert omega.g.inverse_left() == omega.f.alternate()


def test_log_of_g_is_d():
    omega = ncs.build_omega((1,), 4)
    assert omega.g.log() == omega.d


def test_verify_report_shape():
    report = ncs.verify_ncs(ncs.build_omega((1,), 2))
    d = report.as_dict()
    assert d["status"] == "pass"
    assert {c["equation"] for c in d["checks"]} == {
        "unit-constant-term",
        "left-inverse",
        "right-inverse",
        "exponential",
        "derivation-right-factor",
        "derivation-left-factor",
    }


def test_verify_detects_corruption():
    omega = ncs.build_omega((1,), 3)
    bad_g = type(omega.g)(omega.g.ops, omega.g.coeffs[:2] + (gl.zero(),) + omega.g.coeffs[3:])
    broken = ncs.NCSSystem(
        carrier=omega.carrier,
        order=omega.order,
        f=omega.f,
        g=bad_g,
        d=omega.d,
        h=omega.h,
        m=omega.m,
    )
    report = ncs.verify_ncs(broken)
    assert not report.ok
    failing = [c for c in report.checks if c.status == "fail"]
    assert failing and failing[0].first_failure["degree"] == 2


def test_verify_failure_text_of_corrupted_d():
    # Two coefficients of d_3 over (1,2) changed: 1/6 -> 1/7 at [1(1,1)] and
    # 1/2 -> -1/2 at [2(1)].  Only g = exp(d) breaks, first at degree 3, and
    # the rendered difference is exp(d)_3 - g_3 (recorded before the series
    # kept their Fraction terms unbuilt until read).
    omega = ncs.build_omega((1, 2), 4)
    d = omega.d.coeffs
    terms = dict(d[3].terms)
    terms[parse_forest("[1(1,1)]")] = Fraction(1, 7)
    terms[parse_forest("[2(1)]")] = Fraction(-1, 2)
    bad_d = type(omega.d)(omega.d.ops, d[:3] + (gl.GLElem(terms, gl.V_BASIS),) + d[4:])
    report = ncs.verify_ncs(omega._replace(d=bad_d))
    assert [(c.equation, c.first_failure) for c in report.checks if c.status == "fail"] == [
        ("exponential", {"degree": 3, "diff": "-1/42*V[1(1,1)] - V[2(1)]"})
    ]
    assert report.as_dict()["status"] == "fail"


def test_verify_reports_a_wrong_constant_term_at_degree_zero():
    # f_0 = 2 breaks f_0 = 1 and both inverses; d_0 = -1 breaks g = exp(d)
    # before exp is taken.  Each reports the constant term itself.
    omega = ncs.build_omega((1,), 3)
    bad_f = type(omega.f)(omega.f.ops, (gl.unit().scale(2),) + omega.f.coeffs[1:])
    bad_d = type(omega.d)(omega.d.ops, (gl.unit().scale(-1),) + omega.d.coeffs[1:])
    failures = {
        name: [(c.equation, c.first_failure) for c in ncs.verify_ncs(system).checks
               if c.status == "fail"]
        for name, system in (("f", omega._replace(f=bad_f)), ("d", omega._replace(d=bad_d)))
    }
    assert failures == {
        "f": [
            ("unit-constant-term", {"degree": 0, "diff": "2"}),
            ("left-inverse", {"degree": 0, "diff": "1"}),
            ("right-inverse", {"degree": 0, "diff": "1"}),
        ],
        "d": [("exponential", {"degree": 0, "diff": "-1"})],
    }


# ---------------------------------------------------------------------------
# Shrub expansion of f(-t)
# ---------------------------------------------------------------------------

def test_kappa_expansion_small():
    assert ncs.kappa_expansion_check((1,), 3).ok
    assert ncs.kappa_expansion_check((1, 2), 4).ok


def test_kappa_single_graft_term():
    # the depth-one term at weight 1 is minus the single-leaf shrub
    omega = ncs.build_omega((1,), 2)
    fneg = omega.f.alternate()
    assert fneg.coeffs[1] == v_terms({"[1]": -1})


# ---------------------------------------------------------------------------
# Specialization
# ---------------------------------------------------------------------------

def test_generator_image_two_labels():
    image = ncs.specialize(nsym.generator(1), (1, 2))
    assert image == v_terms({"[1]": 1})


def test_first_power_sum_image_matches_h():
    omega = ncs.build_omega((1, 2), 3)
    image = ncs.specialize(nsym.power_first_element(2), (1, 2))
    assert image == omega.h.coeffs[1]


def test_second_power_sum_image_matches_d():
    omega = ncs.build_omega((1, 2), 3)
    image = ncs.specialize(nsym.power_second_element(2), (1, 2))
    assert image.scale(Fraction(1, 2)) == omega.d.coeffs[2]


def test_specialize_is_algebra_map():
    a = nsym.NSymElem({(1, 2): 2, (1,): 1})
    b = nsym.NSymElem({(2,): 1, (1, 1): -3})
    lhs = ncs.specialize(nsym.mul(a, b), (1, 2))
    rhs = gl.mul(ncs.specialize(a, (1, 2)), ncs.specialize(b, (1, 2)))
    assert lhs == rhs


def test_specialize_preserves_grading():
    for m in range(1, 5):
        for word in nsym.compositions(m):
            image = ncs.specialize(nsym.NSymElem({word: 1}), (1,))
            assert all(f.weight == m for f in image.terms)


def test_five_series_specialize_coefficientwise():
    report = ncs.specialization_check((1, 2), 4)
    assert report.ok, report.failures[:3]


def test_hopf_morphism_checks():
    report = ncs.hopf_morphism_check((1, 2), 4)
    assert report.ok, report.failures[:3]


@given(
    st.sets(st.sampled_from((1, 2, 3)), min_size=1),
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 3), max_size=3).filter(lambda w: sum(w) <= 6).map(tuple),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        max_size=4,
    ),
)
def test_specialize_matches_the_letter_by_letter_product(labels, terms):
    x = nsym.NSymElem(terms)
    assert ncs.specialize(x, labels) == specialize_letter_by_letter(x, labels)


def test_specialization_check_builds_each_word_image_once(clear_memo_tables):
    # Every prefix of a word of the universal system is a word of it too,
    # so the memo holds exactly one image per distinct word.
    clear_memo_tables()
    assert ncs.specialization_check((1, 2), 5).ok
    pi = nsym.pi_system(5)
    words = {w for name in "fgdhm" for c in pi.series_by_name(name).coeffs for w in c.terms}
    assert set(ncs._word_image.table) == {((1, 2), w) for w in words}


def test_rank_diagnostic_shape():
    ranks = ncs.specialization_rank((1,), 4)
    for m, stats in ranks.items():
        assert 1 <= stats["rank"] <= min(stats["dimension"], stats["target_dimension"])
    # with a single label there are strictly fewer trees than words at weight 4
    assert ranks[4]["dimension"] == 8
    assert ranks[4]["target_dimension"] == 9


def _dense_rank(rows: list[list[Fraction]]) -> int:
    # Oracle: Gauss-Jordan elimination over dense Fraction rows, the
    # diagnostic's former route.
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [inv * v for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _sparse(rows):
    # Each row cleared to integers, which keeps the rank.
    out = []
    for row in rows:
        den = lcm(1, *(c.denominator for c in row))
        out.append({j: int(c * den) for j, c in enumerate(row) if c})
    return out


def test_sparse_rank_matches_dense_on_the_specialization_rows():
    for m in range(1, 6):
        basis = enumerate_bplus_trees((1, 2), m)
        index = {branch_forest(t): i for i, t in enumerate(basis)}
        dense = []
        for word in nsym.compositions(m):
            row = [Fraction(0)] * len(basis)
            for key, c in ncs.specialize(nsym.NSymElem({word: 1}), (1, 2)).terms.items():
                row[index[key]] = c
            dense.append(row)
        assert ncs._sparse_rank(_sparse(dense)) == _dense_rank(dense) == 2 ** (m - 1)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(small_fractions, min_size=cols, max_size=cols), min_size=1, max_size=4
        )
    ),
    st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=3),
)
def test_sparse_rank_matches_dense(base, combos):
    # Dependent rows (combinations of the base rows) and zero rows included.
    cols = len(base[0])
    rows = base + [
        [sum((k * row[j] for k, row in zip(ks, base)), Fraction(0)) for j in range(cols)]
        for ks in combos
    ]
    assert ncs._sparse_rank(_sparse(rows)) == _dense_rank(rows)


@given(
    st.integers(1, 8).flatmap(
        lambda cols: st.lists(
            st.dictionaries(
                st.integers(0, cols - 1), st.integers(-3, 3).filter(bool), max_size=cols
            ),
            min_size=1,
            max_size=8,
        )
    ),
    st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8), max_size=4),
)
def test_column_order_keeps_the_sparse_rank(base, combos):
    # Random sparse integer rows, plus integer combinations of them, so the
    # rank falls below the row count.
    rows = list(base)
    for ks in combos:
        row: dict[int, int] = {}
        for k, b in zip(ks, base):
            for j, v in b.items():
                row[j] = row.get(j, 0) + k * v
        rows.append({j: v for j, v in row.items() if v})
    cols = 1 + max((j for row in rows for j in row), default=0)
    dense = [[Fraction(row.get(j, 0)) for j in range(cols)] for row in rows]
    rank = ncs._sparse_rank(rows)
    assert rank == sparse_rank_in_given_column_order(rows) == _dense_rank(dense)


def _golden_label_sets():
    # Every --labels of the golden CLI cases, and the CLI default 1.
    from test_golden import CASES

    texts = {"1"} | {a[a.index("--labels") + 1] for a in CASES.values() if "--labels" in a}
    return sorted(tuple(map(int, text.split(","))) for text in texts)


@pytest.mark.parametrize("labels", _golden_label_sets(), ids=lambda ls: ",".join(map(str, ls)))
def test_column_order_keeps_the_specialization_rank(monkeypatch, labels):
    ranked = []

    def both(rows):
        rank = ordered(rows)
        assert rank == sparse_rank_in_given_column_order(rows)
        ranked.append(rank)
        return rank

    ordered = ncs._sparse_rank
    monkeypatch.setattr(ncs, "_sparse_rank", both)
    ranks = ncs.specialization_rank(labels, 7)
    assert ranked == [stats["rank"] for stats in ranks.values()]


def test_rank_over_two_three_four_counts_compositions_into_parts_of_two_or_more():
    # An observed fact, not a claim of the paper: with no label 1 the
    # weight-one generator maps to 0, which kills every word with a letter 1,
    # and the rank equals the number of the remaining words, the
    # compositions of m into parts >= 2 (Fibonacci numbers).
    ranks = ncs.specialization_rank((2, 3, 4), 9)
    assert [ranks[m]["rank"] for m in range(1, 10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert [sum(min(w) >= 2 for w in nsym.compositions(m)) for m in range(1, 10)] == [
        0, 1, 1, 2, 3, 5, 8, 13, 21,
    ]


# ---------------------------------------------------------------------------
# Dual map into QSym
# ---------------------------------------------------------------------------

def test_dual_map_unit():
    image = ncs.dual_specialize(EMPTY_FOREST, (1,))
    assert image == nsym.qsym_unit()


def test_dual_map_singleton():
    image = ncs.dual_specialize(parse_forest("[1]"), (1,))
    assert image == nsym.monomial((1,))


@pytest.mark.parametrize(
    "text, named", [("[1(2)]", "label 2 "), ("[0]", "label 0 "), ("[0(1)]", "label 0 ")]
)
def test_dual_map_refuses_labels_outside_the_set(text, named):
    # These have no letter over (1,); their image used to come back as 0.
    with pytest.raises(ValueError, match=rf"^{named}outside the allowed set \[1\]$"):
        ncs.dual_specialize(parse_forest(text), (1,))


def test_dual_map_multiplicative_weight_three():
    from treehopf.trees import enumerate_forests, forest_union

    for wa in range(0, 4):
        for wb in range(0, 4 - wa):
            for fa in enumerate_forests((1,), wa):
                for fb in enumerate_forests((1,), wb):
                    lhs = ncs.dual_specialize(forest_union(fa, fb), (1,))
                    rhs = nsym.qsym_mul(
                        ncs.dual_specialize(fa, (1,)), ncs.dual_specialize(fb, (1,))
                    )
                    assert lhs == rhs, (fa, fb)


def test_dual_map_comultiplicative_weight_three():
    from treehopf.trees import enumerate_forests

    for w in range(0, 4):
        for f in enumerate_forests((1,), w):
            lhs = nsym.qsym_coproduct(ncs.dual_specialize(f, (1,)))
            rhs: dict = {}
            for (l, r), c in ck.coproduct(ck.from_forest(f)).terms.items():
                ql = ncs.dual_specialize(l, (1,))
                qr = ncs.dual_specialize(r, (1,))
                for lw, lc in ql.terms.items():
                    for rw, rc in qr.terms.items():
                        key = (lw, rw)
                        rhs[key] = rhs.get(key, 0) + c * lc * rc
            assert lhs.terms == {k: v for k, v in rhs.items() if v}, f


def _pairing_route(labels, weight):
    # The transpose by its definition: pair the image of each complete word
    # of the weight with the forest.
    images = [
        (comp, ncs.specialize(nsym.complete_word(comp), labels))
        for comp in nsym.compositions(weight)
    ]
    return lambda f: nsym.QSymElem(
        (comp, duality.pair(image, ck.from_forest(f))) for comp, image in images
    )


def test_dual_map_is_the_pairing_with_the_specialized_complete_words():
    seen = 0
    for labels, top in (((1,), 7), ((1, 2), 5), ((2, 3), 8)):
        for m in range(top + 1):
            expected = _pairing_route(labels, m)
            for f in enumerate_forests(labels, m):
                assert ncs.dual_specialize(f, labels) == expected(f), forest_text(f)
                seen += 1
    assert seen == 328


def test_dual_map_reads_the_word_images_without_building_or_summing_them(
    monkeypatch, clear_memo_tables
):
    labels = (1, 2)
    f = parse_forest("[1(2(1)),2]")
    expected = _pairing_route(labels, f.weight)(f)
    clear_memo_tables()
    for word in nsym.compositions(f.weight):
        ncs._word_image(labels, word)
    filled = dict(ncs._word_image.table)

    def refuse(*args):
        raise AssertionError("the word images are summed or built again")

    monkeypatch.setattr(gl, "dot", refuse)
    monkeypatch.setattr(ncs, "specialize", refuse)
    assert ncs.dual_specialize(f, labels) == expected
    assert ncs._word_image.table == filled
    for image in filled.values():
        with pytest.raises(AttributeError):
            LinComb.terms.__get__(image)


# ---------------------------------------------------------------------------
# Three-route agreement (small here; the full sweep is in acceptance)
# ---------------------------------------------------------------------------

def test_three_routes_agree_to_weight_five():
    report = ncs.theta_agreement_report(5)
    assert report.ok, report.failures[:3]
    assert report.checked == sum(
        len(enumerate_bplus_trees((1,), m)) for m in range(1, 6)
    )
