"""Every element holds one integer form, and reads it out as nonzero Fractions.

The constructor sums (key, coeff) streams with repeated keys, and every sum,
scaling, product, coproduct and antipode sums integer numerators over one
denominator.  What comes back must hold each key once, with a nonzero
numerator, in lowest terms, and its ``terms`` must be nonzero Fractions: an
int there would turn a later ``c / alpha`` into a float, and a zero entry or
an unreduced form would break equality.
"""

import operator
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from treehopf import ck, duality, gl, ncs, nsym
from treehopf.linear import LinComb, add_all, extend_multiplicatively
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


@pytest.mark.parametrize(
    "product",
    [
        lambda: nsym.mul(nsym.generator(2), nsym.monomial((1, 1))),
        lambda: nsym.mul(nsym.monomial((1, 1)), nsym.generator(2)),
        lambda: nsym.qsym_mul(nsym.monomial((1,)), nsym.generator(1)),
        lambda: nsym.dot([(nsym.unit(), nsym.unit()), (nsym.unit(), nsym.qsym_unit())]),
        lambda: nsym.tensor_mul(nsym.tensor_unit(), nsym.unit()),
        lambda: ck.mul(ck.unit(), gl.unit()),
        lambda: ck.mul(ck.unit(), ck.tensor_unit()),
    ],
    ids=[
        "mul-nsym-qsym",
        "mul-qsym-nsym",
        "qsym_mul-qsym-nsym",
        "dot-second-pair",
        "tensor_mul-tensor-elem",
        "ck-gl",
        "ck-tensor",
    ],
)
def test_bilinear_refuses_mixed_kinds(product):
    with pytest.raises(TypeError, match="cannot combine"):
        product()


# ---------------------------------------------------------------------------
# The integer form against a Fraction reference
# ---------------------------------------------------------------------------

def assert_int_form(x, ref: dict):
    """x's integer form is in lowest terms and equals the Fraction map ref."""
    den, nums = x.ints
    assert type(den) is int and den > 0, x.ints
    assert all(type(n) is int and n != 0 for _, n in nums), x.ints
    assert gcd(den, *(n for _, n in nums)) == 1, x.ints
    assert {k: Fraction(n, den) for k, n in nums} == ref and len(nums) == len(ref)
    assert x.terms == ref and list(x.terms) == [k for k, _ in nums]


def linear_reference(a: dict, op, build) -> dict:
    # op extended by Fraction linearity from its values on basis keys.
    return summed(
        (k, c * v) for key, c in a.items() for k, v in op(build([(key, 1)])).terms.items()
    )


def bilinear_reference(a: dict, b: dict, mul, build) -> dict:
    return summed(
        (k, ca * cb * v)
        for ka, ca in a.items()
        for kb, cb in b.items()
        for k, v in mul(build([(ka, 1)]), build([(kb, 1)])).terms.items()
    )


PAIRS = [(f, g) for f in FORESTS[:6] for g in FORESTS[:6]]
WORD_PAIRS = [(u, v) for u in WORDS[:5] for v in WORDS[:5]]


def _gl(basis, tensor=False):
    kind = gl.GLTensor if tensor else gl.GLElem
    return lambda terms: kind(terms, basis)


# name -> (keys, build, {name: product}, {name: linear map})
CARRIERS = {
    "ck": (
        FORESTS,
        ck.CKElem,
        {"mul": ck.mul},
        {"coproduct": ck.coproduct, "antipode": ck.antipode},
    ),
    **{
        f"gl-{basis}": (
            FORESTS,
            _gl(basis),
            {"mul": gl.mul, "dot": lambda a, b: gl.dot([(a, b), (b, a)], a.basis),
             "tensor_of": gl.tensor_of},
            {
                "coproduct": gl.coproduct,
                "antipode": gl.antipode,
                "antipode_by_recurrence": gl.antipode_by_recurrence,
                "to_t_basis": gl.to_t_basis,
                "to_v_basis": gl.to_v_basis,
            },
        )
        for basis in (gl.T_BASIS, gl.V_BASIS)
    },
    "nsym": (
        WORDS,
        nsym.NSymElem,
        {"mul": nsym.mul, "dot": lambda a, b: nsym.dot([(a, b), (b, a)])},
        {
            "coproduct": nsym.coproduct,
            "antipode": nsym.antipode,
            "omega_lambda": nsym.omega_lambda,
            "to_complete_basis": nsym.to_complete_basis,
            "specialize": lambda a: ncs.specialize(a, (1, 2)),
        },
    ),
    "qsym": (WORDS, nsym.QSymElem, {"mul": nsym.qsym_mul}, {"coproduct": nsym.qsym_coproduct}),
    "ck-tensor": (PAIRS, ck.CKTensor, {"mul": ck.tensor_mul}, {}),
    "gl-T-tensor": (PAIRS, _gl(gl.T_BASIS, True), {}, {}),
    "gl-V-tensor": (PAIRS, _gl(gl.V_BASIS, True), {}, {}),
    "nsym-tensor": (WORD_PAIRS, nsym.NSymTensor, {"mul": nsym.tensor_mul}, {}),
    "qsym-tensor": (WORD_PAIRS, nsym.QSymTensor, {}, {}),
}


@pytest.mark.parametrize("keys, build, products, maps", CARRIERS.values(), ids=CARRIERS.keys())
@settings(max_examples=30)
@given(data=st.data())
def test_integer_forms_match_the_fraction_reference(keys, build, products, maps, data):
    a_terms, b_terms = data.draw(cancelling_terms(keys)), data.draw(cancelling_terms(keys))
    a, b = build(a_terms), build(b_terms)
    ra, rb = summed(a_terms), summed(b_terms)
    c = data.draw(COEFFS)
    assert_int_form(a, ra)
    assert_int_form(a + b, summed([*ra.items(), *rb.items()]))
    assert_int_form(a - b, summed([*ra.items(), *((k, -v) for k, v in rb.items())]))
    assert_int_form(-a, {k: -v for k, v in ra.items()})
    assert_int_form(a.scale(c), summed((k, c * v) for k, v in ra.items()))
    assert_int_form(c * a, summed((k, c * v) for k, v in ra.items()))
    if c:
        assert_int_form(a / c, {k: v / c for k, v in ra.items()})
    xs = [build(data.draw(cancelling_terms(keys))) for _ in range(data.draw(st.integers(0, 3)))]
    assert_int_form(
        add_all(a, xs), summed([*ra.items(), *(kv for x in xs for kv in x.terms.items())])
    )
    for mul in products.values():
        assert_int_form(mul(a, b), bilinear_reference(ra, rb, mul, build))
    for op in maps.values():
        assert_int_form(op(a), linear_reference(ra, op, build))


def test_extend_multiplicatively_sums_each_key_s_product():
    # A map on letters: the image of letter m is m/2 * [m] + 1/3 * unit.
    def image(m):
        return nsym.NSymElem([((m,), Fraction(m, 2)), ((), Fraction(1, 3))])

    a = nsym.NSymElem([((1, 2), Fraction(3, 4)), ((), -2), ((3,), Fraction(5, 6))])
    out = extend_multiplicatively(a, tuple, image, nsym.unit(), operator.add)
    expected = summed(
        [
            ((1, 2), Fraction(3, 4) * Fraction(1, 2) * 1),
            ((1,), Fraction(3, 4) * Fraction(1, 2) * Fraction(1, 3)),
            ((2,), Fraction(3, 4) * Fraction(1, 3) * 1),
            ((), Fraction(3, 4) * Fraction(1, 9) - 2 + Fraction(5, 6) * Fraction(1, 3)),
            ((3,), Fraction(5, 6) * Fraction(3, 2)),
        ]
    )
    assert_int_form(out, expected)


@given(data=st.data())
def test_pairings_sum_numerators_to_the_fraction_reference(data):
    basis = data.draw(st.sampled_from((gl.T_BASIS, gl.V_BASIS)))
    x_terms, f_terms = data.draw(cancelling_terms(FORESTS)), data.draw(cancelling_terms(FORESTS))
    x, f = gl.GLElem(x_terms, basis), ck.CKElem(f_terms)
    weight = (lambda k: 1) if basis == gl.V_BASIS else gl.alpha
    expected = sum(
        (c * f.get(k) * weight(k) for k, c in x.terms.items()), Fraction(0)
    )
    assert type(duality.pair(x, f)) is Fraction and duality.pair(x, f) == expected
    xx, ff = gl.tensor_of(x, x), ck.coproduct(f)
    expected = sum(
        (c * ff.get(k) * weight(k[0]) * weight(k[1]) for k, c in xx.terms.items()), Fraction(0)
    )
    assert type(duality.pair_tensor(xx, ff)) is Fraction and duality.pair_tensor(xx, ff) == expected
    w_terms, q_terms = data.draw(cancelling_terms(WORDS)), data.draw(cancelling_terms(WORDS))
    w, q = nsym.NSymElem(w_terms), nsym.QSymElem(q_terms)
    in_complete = nsym.to_complete_basis(w)
    expected = sum((c * q.get(k) for k, c in in_complete.terms.items()), Fraction(0))
    pairing = nsym.duality_pairing(w, q)
    assert type(pairing) is Fraction and pairing == expected


@pytest.mark.parametrize(
    "module, unit_key, other_key",
    [
        (gl, FORESTS[0], FORESTS[3]),
        (ck, FORESTS[0], FORESTS[3]),
        (nsym, nsym.EMPTY_WORD, (1, 2)),
    ],
    ids=["gl", "ck", "nsym"],
)
def test_counit_reads_the_integer_form(module, unit_key, other_key):
    kind = type(module.unit())
    for x, expected in (
        (kind({unit_key: Fraction(3, 4), other_key: 2}) * Fraction(2, 3), Fraction(1, 2)),
        (kind({other_key: Fraction(-5, 6)}) + kind({other_key: 1}), 0),
        (kind({unit_key: 7}) - kind({unit_key: 7}), 0),
    ):
        value = module.counit(x)
        assert value == expected and type(value) is Fraction
        with pytest.raises(AttributeError):
            LinComb.terms.__get__(x)
