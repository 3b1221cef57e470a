"""The LinComb constructor is the one place where terms are summed.

Every product, coproduct and antipode hands it a stream of (key, coeff) pairs
with repeated keys; what comes back must hold each key once, with a nonzero
Fraction coefficient.  An int left in place would turn a later ``c / alpha``
into a float, and a zero entry would break equality.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from treehopf import ck, gl, nsym
from treehopf.linear import add_all
from treehopf.trees import enumerate_forests

FORESTS = [f for w in range(4) for f in enumerate_forests((1, 2), w)]
WORDS = [w for n in range(4) for w in nsym.compositions(n)]
COEFFS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


@st.composite
def cancelling_terms(draw, keys):
    """(key, coeff) pairs with int and Fraction coefficients and repeated keys,
    followed by the negations of some of them, so that terms cancel."""
    terms = draw(st.lists(st.tuples(st.sampled_from(keys), COEFFS), max_size=6))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return terms + [(key, -c) for key, c in cancelled]


def summed(terms) -> dict:
    out: dict = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + Fraction(c)
    return {key: c for key, c in out.items() if c}


def assert_normalized(*elems):
    for x in elems:
        for c in x.terms.values():
            assert type(c) is Fraction and c != 0, x


ALGEBRAS = {
    "ck": (FORESTS, ck.CKElem, lambda a, b: (ck.mul(a, b), ck.coproduct(a), ck.antipode(a))),
    "gl-T": (
        FORESTS,
        lambda terms: gl.GLElem(terms, gl.T_BASIS),
        lambda a, b: (gl.mul(a, b), gl.coproduct(a), gl.antipode(a)),
    ),
    "gl-V": (
        FORESTS,
        lambda terms: gl.GLElem(terms, gl.V_BASIS),
        lambda a, b: (gl.mul(a, b), gl.coproduct(a), gl.antipode(a)),
    ),
    "nsym": (
        WORDS,
        nsym.NSymElem,
        lambda a, b: (nsym.mul(a, b), nsym.coproduct(a), nsym.antipode(a)),
    ),
    "qsym": (WORDS, nsym.QSymElem, lambda a, b: (nsym.qsym_mul(a, b), nsym.qsym_coproduct(a))),
}


@pytest.mark.parametrize("keys, build, products", ALGEBRAS.values(), ids=ALGEBRAS.keys())
@given(data=st.data())
def test_results_hold_nonzero_fractions(keys, build, products, data):
    a_terms = data.draw(cancelling_terms(keys))
    b_terms = data.draw(cancelling_terms(keys))
    a, b = build(a_terms), build(b_terms)
    assert a.terms == summed(a_terms)
    assert (a + b).terms == summed(a_terms + b_terms)
    assert (a - a).terms == {}
    assert_normalized(a, a + b, a - b, *products(a, b))


@pytest.mark.parametrize("keys, build, products", ALGEBRAS.values(), ids=ALGEBRAS.keys())
@settings(max_examples=25)
@given(data=st.data())
def test_add_all_is_the_repeated_sum(keys, build, products, data):
    # One construction gives what repeated + gives, key order included, since
    # series coefficients are summed this way and rendered from it.
    xs = [build(data.draw(cancelling_terms(keys))) for _ in range(data.draw(st.integers(0, 4)))]
    zero = build([])
    repeated = zero
    for x in xs:
        repeated = repeated + x
    total = add_all(zero, xs)
    assert type(total) is type(repeated)
    assert list(total.terms.items()) == list(repeated.terms.items())


def test_add_all_refuses_mixed_kinds():
    with pytest.raises(TypeError):
        add_all(gl.zero(gl.V_BASIS), [gl.unit(gl.T_BASIS)])
    with pytest.raises(TypeError):
        add_all(ck.CKElem(), [nsym.unit()])
