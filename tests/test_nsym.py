"""Noncommutative symmetric functions, QSym and their duality."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from oracles import multiply_out
from treehopf import ncs, nsym, trees
from treehopf.nsym import (
    NSymElem,
    complete_element,
    complete_word,
    compositions,
    coproduct,
    counit,
    antipode,
    duality_pairing,
    elementary_in_complete,
    generator,
    monomial,
    mul,
    omega_lambda,
    pi_system,
    power_first_element,
    power_second_element,
    power_third_element,
    qsym_coproduct,
    qsym_mul,
    qsym_unit,
    unit,
)

words = st.lists(st.integers(1, 3), min_size=0, max_size=4).map(tuple)


def word_elem(*letters):
    return NSymElem({tuple(letters): 1})


# ---------------------------------------------------------------------------
# Free algebra basics
# ---------------------------------------------------------------------------

def test_memoized_functions_stay_plain_public_functions():
    # The benchmark tracer wraps the public functions of each module by name.
    for fn, module, doc in (
        (trees.shape, trees, "Underlying unlabeled tree"),
        (trees.cut_results, trees, "All admissible cuts of the tree"),
        (pi_system, nsym, "Solve the defining equations over NSym"),
    ):
        assert inspect.isfunction(fn)
        assert fn.__module__ == module.__name__
        assert getattr(module, fn.__name__) is fn
        assert fn.__doc__.startswith(doc)


def test_free_product_keeps_order():
    assert mul(generator(1), generator(2)) == word_elem(1, 2)
    assert mul(generator(2), generator(1)) == word_elem(2, 1)
    assert word_elem(1, 2) != word_elem(2, 1)


# ---------------------------------------------------------------------------
# The five generating functions
# ---------------------------------------------------------------------------

def test_weight_one_elements_all_agree():
    assert complete_element(1) == generator(1)
    assert power_first_element(1) == generator(1)
    assert power_second_element(1) == generator(1)
    assert power_third_element(1) == generator(1)


def test_complete_two_solved_by_hand():
    # from (1 - L1 t + L2 t^2) * (1 + S1 t + S2 t^2) = 1 at degree 2
    assert complete_element(2) == word_elem(1, 1) - word_elem(2)


def test_power_sum_two_solved_by_hand():
    # from d/dt sigma = sigma * psi at degree 1
    assert power_first_element(2) == word_elem(1, 1) - 2 * word_elem(2)


def test_pi_solves_all_five_equations():
    for order in (4, 6):
        report = ncs.verify_ncs(pi_system(order))
        assert report.ok, report.as_dict()


def test_pi_system_is_the_ncs_record_over_nsym():
    # f holds the generators and verify_ncs checks the equations that fix
    # g, d, h and m from f, so together they pin every field.
    pi = pi_system(4)
    assert type(pi) is ncs.NCSSystem
    assert (pi.carrier, pi.order) == ("nsym", 4)
    assert all(pi.series_by_name(name) is s for name, s in zip("fgdhm", pi[2:]))
    assert pi.f.coeffs == (unit(),) + tuple(generator(m) for m in range(1, 5))
    with pytest.raises(ValueError, match="unknown series"):
        pi.series_by_name("complete")
    report = ncs.verify_ncs(pi)
    assert report.ok and report.carrier == "nsym"


def test_pi_inverse_is_two_sided():
    pi = pi_system(5)
    one = type(pi.g).one(pi.g.ops, 5)
    assert pi.f.alternate() * pi.g == one
    assert pi.g * pi.f.alternate() == one


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------

def test_coproduct_divided_powers_on_generator():
    d = coproduct(generator(2))
    expected = {
        ((), (2,)): Fraction(1),
        ((1,), (1,)): Fraction(1),
        ((2,), ()): Fraction(1),
    }
    assert d.terms == expected


def _is_primitive(x: NSymElem) -> bool:
    d = coproduct(x)
    expected = {}
    for w, c in x.terms.items():
        expected[(w, ())] = expected.get((w, ()), 0) + c
        expected[((), w)] = expected.get(((), w), 0) + c
    return d.terms == {k: v for k, v in expected.items() if v}


def test_derived_first_power_sums_are_primitive():
    for m in range(1, 6):
        assert _is_primitive(power_first_element(m)), m
        assert _is_primitive(power_third_element(m)), m
        assert _is_primitive(power_second_element(m)), m


def test_counit_kills_positive_weight():
    assert counit(unit()) == 1
    assert counit(generator(3)) == 0


def test_antipode_axiom_up_to_weight_four():
    for n in range(0, 5):
        for word in compositions(n):
            x = NSymElem({word: 1})
            acc = NSymElem()
            for (l, r), c in coproduct(x).terms.items():
                acc = acc + mul(antipode(NSymElem({l: 1})), NSymElem({r: 1})).scale(c)
            expected = unit().scale(counit(x))
            assert acc == expected, word


def test_coassociativity_up_to_weight_four():
    for n in range(0, 5):
        for word in compositions(n):
            d = coproduct(NSymElem({word: 1}))
            left = {}
            right = {}
            for (l, r), c in d.terms.items():
                for (l1, l2), c2 in coproduct(NSymElem({l: 1})).terms.items():
                    key = (l1, l2, r)
                    left[key] = left.get(key, 0) + c * c2
                for (r1, r2), c2 in coproduct(NSymElem({r: 1})).terms.items():
                    key = (l, r1, r2)
                    right[key] = right.get(key, 0) + c * c2
            assert {k: v for k, v in left.items() if v} == {
                k: v for k, v in right.items() if v
            }, word


# ---------------------------------------------------------------------------
# The word-reversing anti-involution
# ---------------------------------------------------------------------------

def test_omega_fixes_generators_and_reverses():
    assert omega_lambda(generator(2)) == generator(2)
    assert omega_lambda(word_elem(1, 2)) == word_elem(2, 1)


@given(words, words)
def test_omega_is_anti_automorphism(u, v):
    a, b = NSymElem({u: 1}), NSymElem({v: 1})
    assert omega_lambda(mul(a, b)) == mul(omega_lambda(b), omega_lambda(a))


@given(words)
def test_omega_is_involution(w):
    a = NSymElem({w: 1})
    assert omega_lambda(omega_lambda(a)) == a


def test_omega_identities_to_weight_five():
    for m in range(1, 6):
        assert omega_lambda(complete_element(m)) == complete_element(m), m
        assert omega_lambda(power_second_element(m)) == power_second_element(m), m
        assert omega_lambda(power_first_element(m)) == power_third_element(m), m


# ---------------------------------------------------------------------------
# QSym
# ---------------------------------------------------------------------------

def test_quasi_shuffle_example():
    assert qsym_mul(monomial((1,)), monomial((1,))) == 2 * monomial((1, 1)) + monomial((2,))


def test_quasi_shuffle_unit():
    m = monomial((2, 1))
    assert qsym_mul(qsym_unit(), m) == m


def test_deconcatenation_example():
    d = qsym_coproduct(monomial((2, 1)))
    assert d.terms == {
        ((), (2, 1)): Fraction(1),
        ((2,), (1,)): Fraction(1),
        ((2, 1), ()): Fraction(1),
    }


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple),
    st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple),
)
def test_quasi_shuffle_commutative(u, v):
    assert qsym_mul(monomial(u), monomial(v)) == qsym_mul(monomial(v), monomial(u))


def test_quasi_shuffle_associative_small():
    comps = [(), (1,), (2,), (1, 1)]
    for u in comps:
        for v in comps:
            for w in comps:
                a, b, c = monomial(u), monomial(v), monomial(w)
                assert qsym_mul(qsym_mul(a, b), c) == qsym_mul(a, qsym_mul(b, c))


def test_deconcatenation_coassociative():
    for comp in ((), (1,), (2, 1), (1, 1, 2)):
        d = qsym_coproduct(monomial(comp))
        left = {}
        right = {}
        for (l, r), c in d.terms.items():
            for (l1, l2), c2 in qsym_coproduct(monomial(l)).terms.items():
                key = (l1, l2, r)
                left[key] = left.get(key, 0) + c * c2
            for (r1, r2), c2 in qsym_coproduct(monomial(r)).terms.items():
                key = (l, r1, r2)
                right[key] = right.get(key, 0) + c * c2
        assert left == right


def test_deconcatenation_is_algebra_map():
    # coproduct of a quasi-shuffle equals the componentwise quasi-shuffle of
    # the coproducts
    comps = [(1,), (2,), (1, 1)]
    for u in comps:
        for v in comps:
            lhs = qsym_coproduct(qsym_mul(monomial(u), monomial(v)))
            rhs: dict = {}
            for (l1, r1), c1 in qsym_coproduct(monomial(u)).terms.items():
                for (l2, r2), c2 in qsym_coproduct(monomial(v)).terms.items():
                    prod_l = qsym_mul(monomial(l1), monomial(l2))
                    prod_r = qsym_mul(monomial(r1), monomial(r2))
                    for lw, lc in prod_l.terms.items():
                        for rw, rc in prod_r.terms.items():
                            key = (lw, rw)
                            rhs[key] = rhs.get(key, 0) + c1 * c2 * lc * rc
            assert lhs.terms == {k: v for k, v in rhs.items() if v}


# ---------------------------------------------------------------------------
# Duality between the two
# ---------------------------------------------------------------------------

def test_elementary_in_complete_expansion():
    assert elementary_in_complete(1) == word_elem(1)
    assert elementary_in_complete(2) == word_elem(1, 1) - word_elem(2)


def test_basis_change_round_trip():
    # complete -> elementary -> complete is the identity
    for m in range(1, 5):
        back = NSymElem()
        for w, c in complete_element(m).terms.items():
            part = unit()
            for letter in w:
                part = mul(part, elementary_in_complete(letter))
            back = back + part.scale(c)
        assert back == word_elem(m), m


def test_complete_monomial_duality_is_kronecker():
    for n in range(0, 5):
        for i in compositions(n):
            for j in compositions(n):
                expected = Fraction(1) if i == j else Fraction(0)
                assert duality_pairing(complete_word(i), monomial(j)) == expected


def test_product_coproduct_duality_exhaustive_weight_four():
    for n in range(1, 5):
        for na in range(0, n + 1):
            for i in compositions(na):
                for j in compositions(n - na):
                    a, b = complete_word(i), complete_word(j)
                    ab = mul(a, b)
                    for k in compositions(n):
                        lhs = duality_pairing(ab, monomial(k))
                        rhs = Fraction(0)
                        for (l, r), c in qsym_coproduct(monomial(k)).terms.items():
                            rhs += c * duality_pairing(a, monomial(l)) * duality_pairing(
                                b, monomial(r)
                            )
                        assert lhs == rhs, (i, j, k)


def test_monomial_product_by_brute_force_duality():
    # coefficient of M_K in M_I * M_J equals <Delta(S^K), M_I (x) M_J>
    for k in compositions(2):
        coeff = qsym_mul(monomial((1,)), monomial((1,))).get(k)
        dual = Fraction(0)
        for (l, r), c in coproduct(complete_word(k)).terms.items():
            dual += (
                c
                * duality_pairing(to_complete_basis_inverse(l), monomial((1,)))
                * duality_pairing(to_complete_basis_inverse(r), monomial((1,)))
            )
        assert coeff == dual


# ---------------------------------------------------------------------------
# The multiplicative maps against multiplying the images out letter by letter
# ---------------------------------------------------------------------------

# Each map on generators, and its extension multiplied out one product at a
# time; the antipode is an anti-homomorphism, so its product is flipped.
_BY_MULTIPLYING_OUT = {
    coproduct: lambda a: multiply_out(
        a, nsym._generator_coproduct, nsym.tensor_unit(), nsym.tensor_mul
    ),
    antipode: lambda a: multiply_out(a, nsym._antipode_generator, unit(), lambda x, y: mul(y, x)),
    nsym.to_complete_basis: lambda a: multiply_out(a, complete_element, unit(), mul),
}


def _assert_maps_match_multiplying_out(a):
    # .ints lists the keys in order, so this compares the key order too.
    for op, reference in _BY_MULTIPLYING_OUT.items():
        assert op(a).ints == reference(a).ints, (op.__name__, nsym.text(a))


def test_maps_match_multiplying_out_on_every_word_to_weight_six():
    all_words = [w for n in range(7) for w in compositions(n)]
    assert len(all_words) == 64
    for w in all_words:
        _assert_maps_match_multiplying_out(word_elem(*w))
        assert complete_word(w).ints == multiply_out(
            word_elem(*w), complete_element, unit(), mul
        ).ints, w


_COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))


@st.composite
def _word_sums(draw):
    # Repeated words, then the negations of some terms, so that keys cancel.
    terms = draw(st.lists(st.tuples(words, _COEFFS), max_size=5))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return NSymElem(terms + [(w, -c) for w, c in cancelled])


@given(_word_sums())
# An input key that cancels; the output key [1 1 1] of the antipode and of
# the change to complete words cancels after two terms and comes back with
# the third.
@example(NSymElem([((1, 2), 1), ((), Fraction(1, 2)), ((1, 2), -1)]))
@example(word_elem(1, 1, 1) - word_elem(1, 2) + Fraction(2, 3) * word_elem(2, 1))
def test_maps_match_multiplying_out_on_sums_of_words(a):
    _assert_maps_match_multiplying_out(a)


def to_complete_basis_inverse(word):
    # interpret an elementary word and rewrite it in complete words
    return NSymElem({word: 1})


def test_text_forms():
    assert nsym.text(word_elem(1, 2) - 2 * unit()) == "-2 + L[1 2]"
    assert nsym.qsym_text(monomial((1, 2)) + qsym_unit()) == "1 + M[1,2]"
