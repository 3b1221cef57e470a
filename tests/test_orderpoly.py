"""Order polynomials: counting oracle, closed forms, identities, constants."""

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import canonical_trees
from oracles import binomial_poly, differences_by_shifts, reciprocity_by_reflection
from treehopf import orderpoly
from treehopf.linear import format_linear
from treehopf.orderpoly import (
    RationalPolynomial,
    differences_hold,
    interpolate_integer_nodes,
    order_poly,
    orderpoly_suite,
    reciprocity_holds,
    recurrences_hold,
    strict_order_poly,
    theta_via_orderpoly,
)
from treehopf.trees import (
    branch_forest,
    enumerate_forests,
    enumerate_trees,
    forest,
    leaf,
    node,
    parse_forest,
    parse_tree,
    shape,
    tree_text,
)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate raw assignments
# ---------------------------------------------------------------------------

def brute_force_count(f, n, strict):
    """Count maps vertex -> {1..n} respecting all parent<child constraints,
    by filtering every assignment."""
    parents = []
    sizes = []
    for t in f.trees:
        offset = sum(sizes)
        counter = itertools.count(offset)

        def walk(u, par):
            v = next(counter)
            parents.append((v, par))
            for c in u.children:
                walk(c, v)

        walk(t, None)
        sizes.append(t.size)
    total_vertices = sum(sizes)
    count = 0
    for assign in itertools.product(range(1, n + 1), repeat=total_vertices):
        ok = True
        for v, par in parents:
            if par is None:
                continue
            if strict and not assign[par] < assign[v]:
                ok = False
                break
            if not strict and not assign[par] <= assign[v]:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_counting_matches_brute_force():
    for size in range(1, 6):
        for f in enumerate_forests((1,), size):
            for n in range(0, 4):
                assert orderpoly.count_order_preserving(f, n, True) == brute_force_count(
                    f, n, True
                )
                assert orderpoly.count_order_preserving(f, n, False) == brute_force_count(
                    f, n, False
                )


def _within(trees, limit):
    # The forest of the trees, in order, that keep its size within limit.
    kept, size = [], 0
    for t in trees:
        if size + t.size <= limit:
            kept.append(t)
            size += t.size
    return forest(kept)


def _relabel(t, new_label):
    return node(new_label[t.label], [_relabel(c, new_label) for c in t.children])


labeled_forests = st.lists(canonical_trees(), max_size=4).map(lambda ts: _within(ts, 7))


@given(labeled_forests, st.fixed_dictionaries({k: st.integers(1, 5) for k in (1, 2, 3)}))
def test_polynomials_of_random_labeled_forests(f, new_label):
    # The polynomials agree with the brute-force counts, and a relabeled
    # forest of the same shapes gets the very same polynomial objects.
    p, q = strict_order_poly(f), order_poly(f)
    for n in range(4):
        assert p(n) == brute_force_count(f, n, True)
        assert q(n) == brute_force_count(f, n, False)
    relabeled = forest(_relabel(t, new_label) for t in f.trees)
    assert strict_order_poly(relabeled) is p
    assert order_poly(relabeled) is q


def test_counting_walks_a_deep_chain_without_recursion():
    chain = leaf(1)
    for _ in range(1999):
        chain = node(1, (chain,))
    f = forest((chain,))
    assert orderpoly.count_order_preserving(f, 2, False) == 2001
    assert orderpoly.count_order_preserving(f, 2, True) == 0


def test_interpolation_matches_counts_at_unseen_nodes():
    # polynomials are interpolated at 0..|P|; brute force confirms the values
    # at n = 1..4 for every forest with up to six vertices
    for size in range(1, 7):
        for f in enumerate_forests((1,), size):
            p = strict_order_poly(f)
            q = order_poly(f)
            for n in range(1, 5):
                assert p(n) == brute_force_count(f, n, True)
                assert q(n) == brute_force_count(f, n, False)


# ---------------------------------------------------------------------------
# Polynomial helper
# ---------------------------------------------------------------------------

def test_interpolation_recovers_polynomial():
    p = RationalPolynomial((Fraction(1, 3), -2, Fraction(5, 7)))
    values = [p(n) for n in range(3)]
    assert interpolate_integer_nodes(values) == p


def test_polynomial_shift_and_reflect():
    p = RationalPolynomial((0, 0, 1))  # s^2
    assert p.shifted(1) == RationalPolynomial((1, 2, 1))
    assert p.reflected() == p
    assert RationalPolynomial((0, 1)).reflected() == RationalPolynomial((0, -1))


def test_polynomial_text():
    assert RationalPolynomial((0, 1)).text() == "s"
    assert RationalPolynomial(
        (0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    ).text() == "1/6*s + 1/2*s^2 + 1/3*s^3"
    assert RationalPolynomial(()).text() == "0"


# Differential test against plain lists of Fractions, constant term first.

def ref_poly(cs):
    out = [Fraction(c) for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for xs in (a, b):
        for k, x in enumerate(xs):
            out[k] += x
    return ref_poly(out)


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_poly(out)


def ref_call(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_shifted(a, delta):
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, [Fraction(delta), Fraction(1)]), [c])
    return acc


def ref_text(a):
    keys = ["", "s"] + [f"s^{k}" for k in range(2, len(a))]
    return format_linear([(c, keys[k]) for k, c in enumerate(a) if c])


def assert_lowest_terms(p):
    assert p.den > 0 and gcd(p.den, *p.num) == 1
    assert (p.num and p.num[-1]) or (p.num == () and p.den == 1)


def rewritten(c):
    # The same value written another way: a whole number as an int, any other
    # as Fraction(2n, 2d), as in Fraction(2, 4) for Fraction(1, 2).
    return int(c) if c.denominator == 1 else Fraction(2 * c.numerator, 2 * c.denominator)


scalars = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
coeff_lists = st.lists(scalars, max_size=6)


@given(coeff_lists, coeff_lists, scalars, scalars)
def test_polynomial_arithmetic_matches_fraction_lists(xs, ys, c, point):
    p, q = RationalPolynomial(xs), RationalPolynomial(ys)
    a, b = ref_poly(xs), ref_poly(ys)
    for poly, ref in (
        (p, a),
        (p + q, ref_add(a, b)),
        (p - q, ref_add(a, [-y for y in b])),
        (-p, [-x for x in a]),
        (p * q, ref_mul(a, b)),
        (p * c, ref_mul(a, [Fraction(c)])),
        (c * p, ref_mul(a, [Fraction(c)])),
        (p.shifted(c), ref_shifted(a, c)),
        (p.shifted(int(c)), ref_shifted(a, int(c))),
        (p.reflected(), [-x if k % 2 else x for k, x in enumerate(a)]),
        (p * Fraction(2) * Fraction(1, 2), a),
        ((p + p) * Fraction(1, 2), a),
        (p - p, []),
    ):
        assert_lowest_terms(poly)
        assert poly.coeffs == tuple(ref)
        assert poly.text() == ref_text(ref)
        assert [poly.coeff(k) for k in range(-1, 8)] == [
            ref[k] if 0 <= k < len(ref) else 0 for k in range(-1, 8)
        ]
        assert poly(point) == ref_call(ref, point)
        assert poly(int(point)) == ref_call(ref, int(point))
        assert type(poly(int(point))) is Fraction
        same = RationalPolynomial([rewritten(x) for x in ref] + [Fraction(0, 5), 0])
        assert same == poly and hash(same) == hash(poly)
        assert (same == poly + RationalPolynomial((1,))) is False


def test_unsupported_operands_raise_type_error():
    p = RationalPolynomial((0, 1))
    for operation in (
        lambda: p + 1,
        lambda: 1 + p,
        lambda: p - 1,
        lambda: p * 1.5,
        lambda: 1.5 * p,
        lambda: p * "x",
    ):
        with pytest.raises(TypeError):
            operation()


@given(coeff_lists)
def test_interpolation_recovers_random_polynomials(xs):
    p = RationalPolynomial(xs)
    nodes = range(max(len(xs), 1))
    interpolated = interpolate_integer_nodes([p(n) for n in nodes])
    assert interpolated == p
    assert_lowest_terms(interpolated)
    scaled = p * p.den  # integer coefficients, so integer values
    assert interpolate_integer_nodes([int(scaled(n)) for n in nodes]) == scaled


def test_binomial_polynomials_in_lowest_terms():
    assert binomial_poly(0) == RationalPolynomial((1,))
    assert binomial_poly(2) == RationalPolynomial((0, Fraction(-1, 2), Fraction(1, 2)))
    assert (binomial_poly(4).num, binomial_poly(4).den) == ((0, -6, 11, -6, 1), 24)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def chain_forest(m):
    t = leaf(1)
    for _ in range(m - 1):
        t = node(1, (t,))
    return forest((t,))


def shrub_forest(m):
    return forest((node(1, tuple(leaf(1) for _ in range(m))),))


def test_strict_chain_is_binomial():
    for m in range(1, 7):
        assert strict_order_poly(chain_forest(m)) == binomial_poly(m)


def test_weak_chain_is_shifted_binomial():
    # weak maps of an m-chain = multisets: binom(s+m-1, m)
    for m in range(1, 7):
        assert order_poly(chain_forest(m)) == binomial_poly(m).shifted(m - 1)


def test_weak_singleton_is_s():
    assert order_poly(parse_forest("[1]")) == RationalPolynomial((0, 1))
    assert order_poly(parse_forest("[1]")).text() == "s"


def test_weak_two_leaf_shrub_closed_form():
    # computed by the brute-force oracle and frozen: s/6 + s^2/2 + s^3/3
    expected = RationalPolynomial((0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
    assert order_poly(shrub_forest(2)) == expected
    assert [brute_force_count(shrub_forest(2), n, False) for n in range(4)] == [
        expected(n) for n in range(4)
    ]


def bernoulli_numbers(count):
    """Independent: b_m from sum_{j<=m} C(m+1,j) b_j = 0, b_0 = 1."""
    b = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return b


def bernoulli_polynomial(m, b):
    """B_m(u) = sum_k C(m,k) b_k u^(m-k)."""
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        coeffs[m - k] = comb(m, k) * b[k]
    return RationalPolynomial(coeffs)


def integrate(p):
    return RationalPolynomial([0] + [c / (k + 1) for k, c in enumerate(p.coeffs)])


def test_strict_shrub_is_integrated_bernoulli_polynomial():
    b = bernoulli_numbers(8)
    for m in range(1, 6):
        integral = integrate(bernoulli_polynomial(m, b))
        assert strict_order_poly(shrub_forest(m)) == integral, m


def test_weak_shrub_via_reciprocity_of_the_integral():
    b = bernoulli_numbers(8)
    for m in range(1, 6):
        integral = integrate(bernoulli_polynomial(m, b))
        # weak = (-1)^(m+1) * integral evaluated at -s
        expected = Fraction((-1) ** (m + 1)) * integral.reflected()
        assert order_poly(shrub_forest(m)) == expected, m


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def _polys(f):
    return strict_order_poly(f), order_poly(f)


def _reciprocity(f):
    return reciprocity_holds(f.size, *_polys(f))


def _differences(t):
    return differences_hold(*_polys(forest((t,))), *_polys(branch_forest(t)))


def _recurrences(t):
    u = shape(t)
    return recurrences_hold(u, *_polys(forest((u,))))


def test_reciprocity_singleton():
    assert _reciprocity(parse_forest("[1]"))


def test_reciprocity_exhaustive():
    for size in range(1, 7):
        for f in enumerate_forests((1,), size):
            assert _reciprocity(f), f


def test_chain_three_reciprocity_explicitly():
    strict = strict_order_poly(chain_forest(3))
    weak = order_poly(chain_forest(3))
    assert strict == binomial_poly(3)
    assert weak == binomial_poly(3).shifted(2)
    assert weak == -strict.reflected()


def test_difference_identity_examples():
    # strict chain-2: s(s-1)/2; forward difference gives s
    p = strict_order_poly(chain_forest(2))
    assert p.shifted(1) - p == RationalPolynomial((0, 1))
    assert _differences(chain_forest(2).trees[0])
    assert _differences(node(1, (shrub_forest(2).trees[0],)))


def test_difference_identities_exhaustive():
    for size in range(1, 7):
        for f in enumerate_forests((1,), size):
            if len(f.trees) == 1:
                assert _differences(f.trees[0])


def test_linear_constants_examples():
    for f, strict, weak in (
        (parse_forest("[1]"), 1, 1),
        (parse_forest("[1,1]"), 0, 0),
        (chain_forest(2), Fraction(-1, 2), Fraction(1, 2)),
    ):
        p, q = _polys(f)
        assert (p.linear_coeff, q.linear_coeff) == (strict, weak)


def test_phi_recurrence_examples():
    assert _recurrences(chain_forest(2).trees[0])
    assert _recurrences(chain_forest(3).trees[0])
    assert _recurrences(shrub_forest(2).trees[0])


def test_theta_route_examples():
    assert theta_via_orderpoly(parse_tree("0(1)")) == 1
    assert theta_via_orderpoly(node(0, (shrub_forest(2).trees[0],))) == Fraction(1, 6)
    assert theta_via_orderpoly(parse_tree("0(1(1(1)))")) == Fraction(1, 3)


def test_theta_route_matches_backward_difference():
    # for a primitive tree, the linear coefficient of q(s) - q(s-1) for the
    # weak polynomial of the whole tree agrees
    for size in range(1, 6):
        for f in enumerate_forests((1,), size):
            t = node(0, f.trees)
            q = order_poly(forest((node(1, f.trees),)))
            nabla = q - q.shifted(-1)
            assert nabla.linear_coeff == theta_via_orderpoly(t)


def test_tree_polynomials_never_read_a_forest_polynomial(monkeypatch, clear_memo_tables):
    # A tree's polynomials are interpolated from its own counts, so the
    # difference identities compare two independent computations.  The
    # digest is of the polynomials as the earlier per-node counting gave
    # them, one walk for each n = 0..|u|.
    def refuse(*args):
        raise AssertionError("this route must not be taken")

    clear_memo_tables()
    monkeypatch.setattr(orderpoly, "_forest_poly", refuse)
    monkeypatch.setattr(orderpoly, "_shapes_poly", refuse)
    lines = [
        f"{tree_text(u)}: {orderpoly._tree_poly(u, True).text()}"
        f" | {orderpoly._tree_poly(u, False).text()}"
        for n in range(1, 9)
        for u in enumerate_trees((1,), n)
    ]
    assert len(lines) == 200
    assert lines[3] == "1(1(1)): 1/3*s - 1/2*s^2 + 1/6*s^3 | 1/3*s + 1/2*s^2 + 1/6*s^3"
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9820cc9a72bc4f87956238e2b553e827ff1b72ae4384157a2896e141605dae01"


def test_size_bound_enforced():
    big = forest(tuple(leaf(1) for _ in range(13)))
    with pytest.raises(ValueError):
        strict_order_poly(big)
    with pytest.raises(ValueError):
        theta_via_orderpoly(parse_tree("1(1)"))  # not a grafting root


def test_full_suite_to_six_vertices():
    # Five checks per forest, one more per forest of several trees, and the
    # difference identities and nested-cut recurrences of every tree.
    checked = {}
    for max_vertices in range(1, 8):
        report = orderpoly_suite(max_vertices)
        assert report.ok, report.failures[:5]
        forests = [f for n in range(1, max_vertices + 1) for f in enumerate_forests((1,), n)]
        several = sum(len(f.trees) > 1 for f in forests)
        assert report.checked == 5 * len(forests) + several + 2 * (len(forests) - several)
        checked[max_vertices] = report.checked
    assert checked == {1: 7, 2: 20, 3: 46, 4: 104, 5: 233, 6: 541, 7: 1279}


CHECK_NAMES = {
    "reciprocity",
    "product-rule",
    "weak-at-one",
    "strict-at-zero",
    "linear-coeff-reflection",
    "multi-component-vanishing",
    "difference-identities",
    "nested-cut-recurrences",
}

# (function patched, the shape or forest of shapes it perturbs, strict or
# weak, the perturbation, the checks it must trip).  A perturbed tree
# polynomial moves every product it enters with it, so the product rule is
# tripped by perturbing one product of several trees instead.
PERTURBATIONS = [
    (
        "_tree_poly",
        "1(1)",
        False,
        lambda p: p + RationalPolynomial((0, 0, 1)),
        {"reciprocity", "weak-at-one", "difference-identities", "nested-cut-recurrences"},
    ),
    (
        "_tree_poly",
        "1(1)",
        True,
        lambda p: p + RationalPolynomial((1,)),
        {
            "reciprocity",
            "strict-at-zero",
            "multi-component-vanishing",
            "difference-identities",
            "nested-cut-recurrences",
        },
    ),
    (
        "_tree_poly",
        "1(1(1))",
        True,
        lambda p: p * Fraction(1, 2),
        {
            "reciprocity",
            "linear-coeff-reflection",
            "difference-identities",
            "nested-cut-recurrences",
        },
    ),
    (
        "_tree_poly",
        "1(1)",
        False,
        lambda p: p - RationalPolynomial((0, 1)),
        {"reciprocity", "weak-at-one", "linear-coeff-reflection", "nested-cut-recurrences"},
    ),
    (
        "_shapes_poly",
        "[1,1]",
        True,
        lambda p: p + RationalPolynomial((0, 1)),
        {"reciprocity", "product-rule", "linear-coeff-reflection", "multi-component-vanishing"},
    ),
    (
        "_shapes_poly",
        "[1,1]",
        False,
        lambda p: p + RationalPolynomial((0, 1)),
        {"reciprocity", "weak-at-one", "linear-coeff-reflection", "multi-component-vanishing"},
    ),
]


def test_perturbations_reach_every_check():
    assert set().union(*(trips for *_, trips in PERTURBATIONS)) == CHECK_NAMES


@pytest.mark.parametrize(
    "name, key, strict, perturb, trips",
    PERTURBATIONS,
    ids=[
        "weak-coefficient",
        "strict-constant-term",
        "strict-denominator",
        "weak-linear-sign",
        "strict-product",
        "weak-product",
    ],
)
def test_suite_catches_a_perturbed_polynomial(
    monkeypatch, clear_memo_tables, name, key, strict, perturb, trips
):
    real = getattr(orderpoly, name)
    target = shape(parse_tree(key)) if name == "_tree_poly" else parse_forest(key)

    def patched(x, kind):
        p = real(x, kind)
        return perturb(p) if x is target and kind == strict else p

    clear_memo_tables()
    monkeypatch.setattr(orderpoly, name, patched)
    try:
        report = orderpoly_suite(5)
    finally:
        # The memo tables now hold values built from the perturbed polynomial.
        monkeypatch.undo()
        clear_memo_tables()
    failed = {line.split(":")[0] for line in report.failures}
    assert failed <= CHECK_NAMES
    assert trips <= failed, failed
    assert orderpoly_suite(5).ok


# The rewritten predicates against the polynomial-object expressions they
# replace.  Adding a random polynomial to the value that holds gives true
# cases (when it is zero) and near misses.

@given(coeff_lists, st.integers(0, 9), coeff_lists)
def test_reciprocity_predicate_matches_the_reflection(xs, size, ys):
    p = RationalPolynomial(xs)
    q = (-1) ** size * p.reflected() + RationalPolynomial(ys)
    assert reciprocity_holds(size, p, q) == reciprocity_by_reflection(size, p, q)
    assert reciprocity_holds(size, p, q) == (not RationalPolynomial(ys).num)


@given(coeff_lists, coeff_lists, coeff_lists, coeff_lists)
def test_difference_predicate_matches_the_shifts(xs, ys, us, vs):
    p, q = RationalPolynomial(xs), RationalPolynomial(ys)
    pb = p.shifted(1) - p + RationalPolynomial(us)
    qb = q - q.shifted(-1) + RationalPolynomial(vs)
    assert differences_hold(p, q, pb, qb) == differences_by_shifts(p, q, pb, qb)
    holds = not RationalPolynomial(us).num and not RationalPolynomial(vs).num
    assert differences_hold(p, q, pb, qb) == holds


@pytest.mark.parametrize(
    "p",
    [
        RationalPolynomial(()),
        RationalPolynomial((Fraction(3, 2),)),
        RationalPolynomial((-7,)),
        RationalPolynomial((Fraction(1, 6), 0, Fraction(-5, 4))),
    ],
    ids=["zero", "constant-over-two", "integer-constant", "degree-two"],
)
def test_predicates_on_zero_and_constant_polynomials(p):
    zero = RationalPolynomial(())
    for size in (0, 1, 2, 5):
        q = (-1) ** size * p.reflected()
        assert reciprocity_holds(size, p, q) and reciprocity_by_reflection(size, p, q)
        wrong = -q if p.num else q + RationalPolynomial((1,))
        assert not reciprocity_holds(size, p, wrong)
        assert not reciprocity_by_reflection(size, p, wrong)
    pb, qb = p.shifted(1) - p, p - p.shifted(-1)
    assert differences_hold(p, p, pb, qb) and differences_by_shifts(p, p, pb, qb)
    if len(p.num) <= 1:
        assert pb == qb == zero
    wrong = pb + RationalPolynomial((Fraction(1, 3),))
    assert not differences_hold(p, p, wrong, qb)
    assert not differences_hold(p, p, pb, wrong)
    assert not differences_by_shifts(p, p, wrong, qb)


def test_predicates_match_the_oracles_on_every_forest_to_seven_vertices():
    for n in range(1, 8):
        for f in enumerate_forests((1,), n):
            p, q = _polys(f)
            for size in (f.size, f.size + 1):
                assert reciprocity_holds(size, p, q) == reciprocity_by_reflection(size, p, q)
            assert reciprocity_holds(f.size, p, q)
            assert not reciprocity_holds(f.size + 1, p, q)
            if len(f.trees) == 1:
                t = f.trees[0]
                pb, qb = _polys(branch_forest(t))
                assert differences_hold(p, q, pb, qb) and differences_by_shifts(p, q, pb, qb)
                assert differences_hold(p, q, qb, pb) == differences_by_shifts(p, q, qb, pb)


# ---------------------------------------------------------------------------
# The explicit poset view
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestPoset:
    """Explicit poset view of a forest.

    Vertices are indexed in preorder, components in canonical order; u <= v
    exactly when v lies in the subtree rooted at u (roots are minimal).
    """

    size: int
    leq_pairs: frozenset[tuple[int, int]]

    @classmethod
    def from_forest(cls, f) -> "ForestPoset":
        pairs: set[tuple[int, int]] = set()
        cursor = 0
        for t in f.trees:

            def visit(u, ancestors: list[int]):
                nonlocal cursor
                v = cursor
                cursor += 1
                for a in ancestors:
                    pairs.add((a, v))
                pairs.add((v, v))
                for c in u.children:
                    visit(c, ancestors + [v])

            visit(t, [])
        return cls(cursor, frozenset(pairs))

    def leq(self, u: int, v: int) -> bool:
        return (u, v) in self.leq_pairs

    def covers(self) -> frozenset[tuple[int, int]]:
        out = set()
        for (u, v) in self.leq_pairs:
            if u == v:
                continue
            if not any(
                self.leq(u, w) and self.leq(w, v) and w != u and w != v
                for w in range(self.size)
            ):
                out.add((u, v))
        return frozenset(out)


def test_forest_poset_axioms():
    for size in range(1, 6):
        for f in enumerate_forests((1,), size):
            poset = ForestPoset.from_forest(f)
            n = poset.size
            assert n == f.size
            for u in range(n):
                assert poset.leq(u, u)
                for v in range(n):
                    if poset.leq(u, v) and poset.leq(v, u):
                        assert u == v
                    for w in range(n):
                        if poset.leq(u, v) and poset.leq(v, w):
                            assert poset.leq(u, w)


def test_forest_poset_components_are_trees():
    # canonical order puts the singleton first: vertex 0 alone, 1-2 chained
    f = parse_forest("[1(1),1]")
    poset = ForestPoset.from_forest(f)
    assert poset.covers() == frozenset({(1, 2)})
    assert not poset.leq(0, 1) and not poset.leq(1, 0)


def test_counts_over_poset_match_dp():
    # count via the explicit relation, independently of the tree-walking DP
    import itertools as it

    for size in range(1, 5):
        for f in enumerate_forests((1,), size):
            poset = ForestPoset.from_forest(f)
            for n in range(0, 4):
                for strict in (True, False):
                    count = 0
                    for assign in it.product(range(1, n + 1), repeat=poset.size):
                        ok = True
                        for u in range(poset.size):
                            for v in range(poset.size):
                                if u != v and poset.leq(u, v):
                                    if strict and not assign[u] < assign[v]:
                                        ok = False
                                    if not strict and not assign[u] <= assign[v]:
                                        ok = False
                        if ok:
                            count += 1
                    assert count == orderpoly.count_order_preserving(f, n, strict)
