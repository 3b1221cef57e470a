"""Truncated series engine over rational, free-algebra and tree carriers."""

from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from oracles import RATIONAL_OPS, exp_by_powers, log_by_powers
from treehopf import gl, ncs, nsym
from treehopf.linear import add_all
from treehopf.series import TruncSeries
from treehopf.trees import enumerate_forests, parse_tree

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def q_series(coeffs):
    return TruncSeries(RATIONAL_OPS, tuple(Fraction(c) for c in coeffs))


def series_strategy(order=5):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(q_series)


# ---------------------------------------------------------------------------
# Ring axioms
# ---------------------------------------------------------------------------

@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms_over_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = TruncSeries.one(RATIONAL_OPS, a.order)
    assert a * one == a == one * a


def test_ring_axioms_over_trees():
    ops = gl.SERIES_OPS[gl.V_BASIS]
    x = gl.from_bplus_tree(parse_tree("0(1)"))
    y = gl.from_bplus_tree(parse_tree("0(1,1)"))
    a = TruncSeries(ops, (gl.unit(), x, y, gl.zero()))
    b = TruncSeries(ops, (gl.unit(), y, gl.zero(), x))
    c = TruncSeries(ops, (gl.unit(), x, x, y))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_noncommuting_difference_of_squares():
    # (1 + at)(1 - at) = 1 - a^2 t^2 even when a does not commute
    ops = nsym.SERIES_OPS
    a = nsym.generator(1)
    s = TruncSeries(ops, (nsym.unit(), a, nsym.NSymElem()))
    r = TruncSeries(ops, (nsym.unit(), -a, nsym.NSymElem()))
    prod = s * r
    assert prod.coeffs[0] == nsym.unit()
    assert prod.coeffs[1].is_zero()
    assert prod.coeffs[2] == -nsym.mul(a, a)


# ---------------------------------------------------------------------------
# Derivative
# ---------------------------------------------------------------------------

def test_derivative_example():
    s = q_series([1, 0, 3])
    assert s.derivative() == q_series([0, 6])


@given(series_strategy(4), series_strategy(4))
def test_leibniz_rule(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(3) + a.truncate(3) * b.derivative()
    assert lhs == rhs


def test_derivative_needs_positive_order():
    with pytest.raises(ValueError):
        q_series([1]).derivative()


# ---------------------------------------------------------------------------
# Inverse
# ---------------------------------------------------------------------------

def test_inverse_of_one():
    one = TruncSeries.one(RATIONAL_OPS, 4)
    assert one.inverse_right() == one
    assert one.inverse_left() == one


def test_geometric_series():
    s = q_series([1, -1, 0, 0, 0])
    assert s.inverse_right() == q_series([1, 1, 1, 1, 1])


@given(st.lists(rationals, min_size=5, max_size=5))
def test_inverses_are_two_sided(tail):
    s = q_series([1] + tail[1:])
    one = TruncSeries.one(RATIONAL_OPS, s.order)
    r = s.inverse_right()
    l = s.inverse_left()
    assert s * r == one and r * s == one
    assert l * s == one and s * l == one


_words = [w for m in range(1, 3) for w in nsym.compositions(m)]
_branch_forests = [f for m in range(3) for f in enumerate_forests((1,), m)]


def _combinations(keys, build):
    return st.lists(st.tuples(st.sampled_from(keys), rationals), max_size=3).map(build)


# carrier: (ops, product of two coefficients, strategy for a coefficient)
CARRIERS = {
    "rational": (RATIONAL_OPS, lambda x, y: x * y, rationals),
    "words": (nsym.SERIES_OPS, nsym.mul, _combinations(_words, nsym.NSymElem)),
    **{
        f"trees-{basis}": (
            gl.SERIES_OPS[basis],
            gl.mul_structure,
            _combinations(_branch_forests, lambda ts, basis=basis: gl.GLElem(ts, basis)),
        )
        for basis in (gl.V_BASIS, gl.T_BASIS)
    },
}


@settings(max_examples=30)
@pytest.mark.parametrize("carrier", CARRIERS)
@given(data=st.data())
def test_products_and_inverses_match_pairwise_sums(carrier, data):
    ops, mul, coeffs = CARRIERS[carrier]
    order = 3
    a, b = (data.draw(st.lists(coeffs, min_size=order + 1, max_size=order + 1)) for _ in "ab")

    def product(x, y):
        # The reference Cauchy product: one ops.sum of the x_k * y_(n-k).
        return tuple(
            ops.sum(mul(x[k], y[n - k]) for k in range(n + 1)) for n in range(order + 1)
        )

    assert TruncSeries(ops, tuple(a)) * TruncSeries(ops, tuple(b)) == TruncSeries(
        ops, product(a, b)
    )
    s = TruncSeries(ops, (ops.one(), *a[1:]))
    one = TruncSeries.one(ops, order)
    assert TruncSeries(ops, product(s.coeffs, s.inverse_right().coeffs)) == one
    assert TruncSeries(ops, product(s.inverse_left().coeffs, s.coeffs)) == one

    # exp: the sum over k of the k-th reference power divided by k!.
    x = (ops.zero(), *a[1:])
    power, expected = TruncSeries.one(ops, order).coeffs, TruncSeries.one(ops, order)
    for k in range(1, order + 1):
        power = product(power, x)
        expected = expected + TruncSeries(ops, power).scale(Fraction(1, factorial(k)))
    assert TruncSeries(ops, x).exp() == expected


def _assert_stored_form(x, basis):
    # Nonzero lowest-terms Fractions, and an integer form equal to the one
    # the constructor computes from terms.
    assert x.basis == basis
    for c in x.terms.values():
        assert type(c) is Fraction and c
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    assert x.ints == gl.GLElem(x.terms, basis).ints


@settings(max_examples=40)
@pytest.mark.parametrize("basis", (gl.V_BASIS, gl.T_BASIS))
@given(data=st.data())
def test_gl_series_ops_match_the_fraction_reference(basis, data):
    ops = gl.SERIES_OPS[basis]
    coeffs = st.lists(st.tuples(st.sampled_from(_branch_forests), rationals), max_size=4).map(
        lambda ts: gl.GLElem(ts, basis)
    )
    xs = data.draw(st.lists(coeffs, max_size=4))
    if xs and data.draw(st.booleans()):
        xs.append(-xs[0])  # a sum in which every key of xs[0] may cancel
    total = ops.sum(xs)
    assert total == add_all(ops.zero(), xs)
    _assert_stored_form(total, basis)

    c = data.draw(rationals)
    for x in (*xs, total):
        scaled = ops.scale(c, x)
        assert scaled == x.scale(c)
        _assert_stored_form(scaled, basis)

    pairs = data.draw(st.lists(st.tuples(coeffs, coeffs), max_size=3))
    # Results of the integer path are factors again, read from their cache.
    pairs.append((total, scaled))
    product = ops.dot(pairs)
    assert product == add_all(ops.zero(), (gl.mul_structure(x, y) for x, y in pairs))
    _assert_stored_form(product, basis)


def test_gl_series_ops_refuse_mixed_kinds():
    ops = gl.SERIES_OPS[gl.V_BASIS]
    v = gl.from_bplus_tree(parse_tree("0(1)"), gl.V_BASIS)
    t = gl.from_bplus_tree(parse_tree("0(1)"), gl.T_BASIS)
    tensor = gl.tensor_of(v, v)
    for bad in (t, tensor):
        with pytest.raises(TypeError):
            ops.sum([v, bad])
        with pytest.raises(TypeError):
            ops.dot([(v, bad)])
        with pytest.raises(TypeError):
            ops.dot([(bad, v)])
        with pytest.raises(TypeError):
            ops.scale(Fraction(1, 2), bad)
    for basis in (gl.V_BASIS, gl.T_BASIS):
        empty = gl.SERIES_OPS[basis].sum([])
        assert empty.basis == basis and empty.is_zero()
        assert empty == gl.zero(basis)
    with pytest.raises(ValueError, match="unknown basis"):
        gl.series([], "X")


def test_series_over_different_carriers_refuse_to_mix():
    x = gl.from_bplus_tree(parse_tree("0(1)"))
    v = gl.series([gl.unit(), x])
    t = gl.series([gl.unit(gl.T_BASIS), gl.to_t_basis(x)], gl.T_BASIS)
    w = TruncSeries(nsym.SERIES_OPS, (nsym.unit(), nsym.generator(1)))
    for a, b in ((v, t), (t, v), (v, w), (w, v), (t, w)):
        with pytest.raises(ValueError, match="different algebras"):
            a + b
        with pytest.raises(ValueError, match="different algebras"):
            a * b
        with pytest.raises(ValueError, match="different algebras"):
            a == b
    # Series built apart over one basis share its ops and combine.
    for basis in (gl.V_BASIS, gl.T_BASIS):
        y = gl.from_bplus_tree(parse_tree("0(1,2)"), basis)
        a, b = gl.series([gl.unit(basis), y], basis), gl.series([gl.unit(basis), -y], basis)
        assert a.ops is b.ops is gl.SERIES_OPS[basis]
        assert a + b == gl.series([gl.unit(basis).scale(2), gl.zero(basis)], basis)
        assert a * b == gl.series([gl.unit(basis), gl.zero(basis)], basis)


def _fraction_sum(*maps):
    # The Fraction reference: coefficientwise sum of key -> Fraction maps,
    # zeros dropped.
    out = {}
    for m in maps:
        for k, c in m.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _element(data, ref, how, basis):
    # An element equal to the Fraction map ref, built by the constructor or
    # by the integer builder over a random multiple of the lowest denominator,
    # its keys in a random order, with keys of zero numerator mixed in.
    if how == "constructor":
        return gl.GLElem(ref, basis)
    den = lcm(1, *[c.denominator for c in ref.values()]) * data.draw(st.integers(1, 6))
    zeros = data.draw(st.lists(st.sampled_from(_branch_forests), max_size=2))
    keys = data.draw(st.permutations(list(dict.fromkeys([*ref, *zeros]))))
    return gl.GLElem.from_ints(den, {k: int(ref.get(k, 0) * den) for k in keys}, basis)


_MIXES = [(a, b) for a in ("constructor", "builder") for b in ("constructor", "builder")]


@settings(max_examples=60)
@pytest.mark.parametrize("basis", (gl.V_BASIS, gl.T_BASIS))
@given(data=st.data())
def test_lazy_terms_and_integer_equality_match_the_fraction_reference(basis, data):
    maps = st.lists(st.tuples(st.sampled_from(_branch_forests), rationals), max_size=4).map(
        lambda ts: _fraction_sum(*({k: v} for k, v in ts))
    )
    rx = data.draw(maps)
    ry = rx if data.draw(st.booleans()) else data.draw(maps)
    c = data.draw(rationals)
    other = gl.T_BASIS if basis == gl.V_BASIS else gl.V_BASIS
    for hx, hy in _MIXES:
        x, y = _element(data, rx, hx, basis), _element(data, ry, hy, basis)
        # Equality and truth first, while builder results hold no terms yet.
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert bool(x) == bool(rx) and x.is_zero() == (not rx)
        with pytest.raises(TypeError):
            x == _element(data, ry, hy, other)
        assert x.terms == rx and y.terms == ry
        for v in x.terms.values():
            assert type(v) is Fraction and gcd(v.numerator, v.denominator) == 1
        assert all(x.get(k) == rx.get(k, 0) for k in _branch_forests)
        assert (x + y).terms == _fraction_sum(rx, ry)
        assert (x - y).terms == _fraction_sum(rx, {k: -v for k, v in ry.items()})
        scaled = {k: c * v for k, v in rx.items() if c}
        assert x.scale(c).terms == scaled
        assert gl.SERIES_OPS[basis].scale(c, x).terms == scaled
        ref = gl.GLElem(rx, basis)
        assert gl.text(x) == gl.text(ref) and gl.to_json_terms(x) == gl.to_json_terms(ref)


@pytest.mark.parametrize("basis", (gl.V_BASIS, gl.T_BASIS))
def test_cancelling_sums_are_the_canonical_zero(basis):
    ops = gl.SERIES_OPS[basis]
    x = gl.GLElem({f: Fraction(i + 1, 3) for i, f in enumerate(_branch_forests)}, basis)
    zeros = [
        ops.sum([x, ops.scale(Fraction(-1), x)]),
        ops.dot([(x, ops.zero())]),
        gl.GLElem.from_ints(6, dict.fromkeys(_branch_forests, 0), basis),
        gl.zero(basis),
    ]
    for z in zeros:
        assert not z and z.is_zero() and z == ops.zero() and z != x
        assert gl.text(z) == "0" and gl.to_json_terms(z) == [] and z.terms == {}
    assert zeros[0].ints == (1, ())


def _terms_built(x) -> bool:
    # object.__getattribute__ reads the slot without GLElem's lazy fallback.
    try:
        object.__getattribute__(x, "terms")
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("basis", (gl.V_BASIS, gl.T_BASIS))
def test_series_results_build_terms_on_first_read(basis):
    ops = gl.SERIES_OPS[basis]
    f1, f2, f3 = _branch_forests[1:4]
    x = gl.GLElem({f1: Fraction(1, 2), f2: 3}, basis)
    y = gl.GLElem({f2: Fraction(-2, 3), f3: 1}, basis)
    results = [ops.sum([x, y]), ops.scale(Fraction(2, 3), x), ops.dot([(x, y), (y, x)])]
    for out in results:
        assert not _terms_built(out)
        # Equality, truth and further series arithmetic read the integer form.
        den, nums = out.ints
        twin = gl.GLElem.from_ints(2 * den, {k: 2 * n for k, n in reversed(nums)}, basis)
        assert out == twin and out and not out.is_zero()
        ops.dot([(out, out)]), ops.sum([out, x]), ops.scale(Fraction(5), out)
        assert not _terms_built(out)
        first = out.terms
        assert _terms_built(out) and out.terms is first
        assert gl.GLElem(first, basis).ints == out.ints


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        q_series([0, 1]).inverse_right()


def test_noncommutative_inverse_two_sided():
    ops = nsym.SERIES_OPS
    lam = TruncSeries(ops, (nsym.unit(),) + tuple(nsym.generator(m) for m in (1, 2, 3)))
    inv = lam.inverse_right()
    one = TruncSeries.one(ops, 3)
    assert lam * inv == one
    assert inv * lam == one


# ---------------------------------------------------------------------------
# Exp and log
# ---------------------------------------------------------------------------

def test_exp_log_base_cases():
    zero = TruncSeries.zero(RATIONAL_OPS, 4)
    one = TruncSeries.one(RATIONAL_OPS, 4)
    assert zero.exp() == one
    assert one.log() == zero


def test_exp_of_t():
    s = q_series([0, 1, 0, 0, 0])
    assert s.exp() == q_series(
        [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    )


@given(st.lists(rationals, min_size=7, max_size=7))
def test_exp_log_round_trip(tail):
    s = q_series([0] + tail[1:])
    assert s.exp().log() == s
    g = q_series([1] + tail[1:])
    assert g.log().exp() == g


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        q_series([1, 1]).exp()
    with pytest.raises(ValueError):
        q_series([0, 1]).log()


def _sparse_coeffs(data, ops, coeffs, order):
    # order + 1 coefficients, each replaced by zero with even odds, so that
    # series with gaps are drawn as often as dense ones.
    drawn = data.draw(st.lists(coeffs, min_size=order + 1, max_size=order + 1))
    return [c if data.draw(st.booleans()) else ops.zero() for c in drawn]


@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("carrier", ("words", "trees-V", "trees-T"))
@given(data=st.data())
def test_exp_and_log_match_the_power_sums_on_noncommutative_carriers(carrier, data):
    ops, _, coeffs = CARRIERS[carrier]
    order = 5
    tail = _sparse_coeffs(data, ops, coeffs, order)[1:]
    x = TruncSeries(ops, (ops.zero(), *tail))
    g = TruncSeries(ops, (ops.one(), *tail))
    assert x.exp() == exp_by_powers(x)
    assert g.log() == log_by_powers(g)


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("order", (5, 7))
@pytest.mark.parametrize("v", (2, 3))
@pytest.mark.parametrize("carrier", ("words", "trees-V", "trees-T"))
@given(data=st.data())
def test_exp_and_log_match_the_power_sums_when_low_degrees_vanish(carrier, v, order, data):
    # Degrees 1..v-1 are zero, so the nests stop at k = order // v; the
    # orders are not multiples of v.
    ops, _, coeffs = CARRIERS[carrier]
    tail = _sparse_coeffs(data, ops, coeffs, order)[v:]
    x = TruncSeries(ops, (ops.zero(),) * v + tuple(tail))
    g = TruncSeries(ops, (ops.one(),) + (ops.zero(),) * (v - 1) + tuple(tail))
    assert x.exp() == exp_by_powers(x)
    assert g.log() == log_by_powers(g)


@pytest.mark.parametrize("carrier", CARRIERS)
@pytest.mark.parametrize("order", (0, 1, 5))
def test_exp_of_zero_and_log_of_one(carrier, order):
    ops = CARRIERS[carrier][0]
    zero, one = TruncSeries.zero(ops, order), TruncSeries.one(ops, order)
    assert zero.exp() == one == exp_by_powers(zero)
    assert one.log() == zero == log_by_powers(one)


class _CountingOps:
    """A carrier's ops whose dot counts its calls, the pairs it is handed, and
    those pairs with a zero factor."""

    def __init__(self, ops):
        self.ops, self.calls, self.pairs, self.zero_pairs = ops, 0, 0, 0
        self.zero, self.one, self.sum = ops.zero, ops.one, ops.sum
        self.scale, self.eq, self.describe = ops.scale, ops.eq, ops.describe

    def dot(self, pairs):
        pairs = list(pairs)
        self.calls += 1
        self.pairs += len(pairs)
        self.zero_pairs += sum(1 for x, y in pairs if not (x and y))
        return self.ops.dot(pairs)


def test_exp_builds_each_nest_only_to_the_truncation():
    # d over (2,3,4) has no term of degree 1, so the k-th nest is needed
    # only to degree 12 - 2k: 42 dot calls, where nests built to 12 - k
    # take 78 calls over 231 pairs.
    d = ncs.build_omega((2, 3, 4), 12).d
    ops = _CountingOps(d.ops)
    assert TruncSeries(ops, d.coeffs).exp().coeffs == d.exp().coeffs
    assert (ops.calls, ops.pairs, ops.zero_pairs) == (42, 131, 0)


@settings(max_examples=20, deadline=None)
@pytest.mark.parametrize("carrier", CARRIERS)
@given(data=st.data())
def test_series_arithmetic_hands_dot_no_zero_factor(carrier, data):
    base, _, coeffs = CARRIERS[carrier]
    ops = _CountingOps(base)
    order = 4
    a, b = (_sparse_coeffs(data, ops, coeffs, order) for _ in "ab")
    x = TruncSeries(ops, (ops.zero(), *a[1:]))
    g = TruncSeries(ops, (ops.one(), *a[1:]))
    x.exp(), g.log(), g.inverse_right(), g.inverse_left()
    TruncSeries(ops, tuple(a)) * TruncSeries(ops, tuple(b))
    assert ops.zero_pairs == 0


# ---------------------------------------------------------------------------
# Shape errors
# ---------------------------------------------------------------------------

def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        q_series([1, 2]) + q_series([1, 2, 3])
    with pytest.raises(ValueError):
        q_series([1, 2]) * q_series([1, 2, 3])


def test_truncate_only_shrinks():
    s = q_series([1, 2, 3])
    assert s.truncate(1) == q_series([1, 2])
    with pytest.raises(ValueError):
        s.truncate(5)


def test_alternate_flips_odd_degrees():
    s = q_series([1, 2, 3, 4])
    assert s.alternate() == q_series([1, -2, 3, -4])
