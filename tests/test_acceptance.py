"""Acceptance criteria.

One test per criterion; each prints a single PASS line (visible with -s) and
asserts exact equality everywhere — no tolerances, all arithmetic rational.
"""

import time
from fractions import Fraction
from math import comb

from oracles import nested_cut_sequences, pairing_matrix
from treehopf import ck, duality, gl, ncs, nsym, orderpoly
from treehopf.cli import main as cli_main
from treehopf.trees import (
    branch_forest,
    enumerate_bplus_trees,
    enumerate_forests,
    forest_union,
    leaf,
    node,
    parse_forest,
)


def report(number, name, started):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.time() - started:.2f}s)")


# ---------------------------------------------------------------------------
# 1. The five defining equations over the tree algebra
# ---------------------------------------------------------------------------

def test_criterion_01_ncs_axioms():
    started = time.time()
    for labels, order in (((1,), 6), ((1, 2), 5)):
        rep = ncs.verify_ncs(ncs.build_omega(labels, order))
        assert rep.ok, rep.as_dict()
        assert len(rep.checks) == 6
    assert cli_main(["verify", "ncs", "--labels", "1", "--max-weight", "6"]) == 0
    assert cli_main(["verify", "ncs", "--labels", "1,2", "--max-weight", "5"]) == 0
    assert time.time() - started < 60
    report(1, "ncs-axioms", started)


# ---------------------------------------------------------------------------
# 2. The two-label example expansions, exactly as printed
# ---------------------------------------------------------------------------

GOLDEN_EXPANSIONS = {
    "f": [
        "t^0: 1",
        "t^1: V[1]",
        "t^2: V[1,1] - V[2]",
        "t^3: V[1,1,1] - V[1,2]",
    ],
    "g": [
        "t^0: 1",
        "t^1: V[1]",
        "t^2: V[1,1] + V[1(1)] + V[2]",
        "t^3: V[1,1,1] + V[1,1(1)] + V[1,2] + V[1(1,1)] + V[1(1(1))] + V[1(2)] + V[2(1)]",
    ],
    "h": [
        "t^0: V[1]",
        "t^1: V[1(1)] + 2*V[2]",
        "t^2: V[1(1(1))] + 2*V[1(2)] + V[2(1)]",
    ],
    "m": [
        "t^0: V[1]",
        "t^1: V[1(1)] + 2*V[2]",
        "t^2: V[1(1,1)] + V[1(1(1))] + V[1(2)] + 2*V[2(1)]",
    ],
    "d": [
        "t^0: 0",
        "t^1: V[1]",
        "t^2: 1/2*V[1(1)] + V[2]",
        "t^3: 1/6*V[1(1,1)] + 1/3*V[1(1(1))] + 1/2*V[1(2)] + 1/2*V[2(1)]",
    ],
}


def test_criterion_02_two_label_displays(capsys):
    started = time.time()
    for name, golden in GOLDEN_EXPANSIONS.items():
        assert cli_main(["expand", name, "--labels", "1,2", "--max-weight", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[: len(golden)] == golden, name

    # the printed coefficients 2, 1/2, 1/6, 1/3, term by term
    omega = ncs.build_omega((1, 2), 3)
    assert omega.h.coeffs[1].get(parse_forest("[2]")) == 2
    assert omega.d.coeffs[2].get(parse_forest("[1(1)]")) == Fraction(1, 2)
    assert omega.d.coeffs[3].get(parse_forest("[1(1,1)]")) == Fraction(1, 6)
    assert omega.d.coeffs[3].get(parse_forest("[1(1(1))]")) == Fraction(1, 3)
    with capsys.disabled():
        report(2, "two-label-displays", started)


# ---------------------------------------------------------------------------
# 3. Closed forms for the tree constants
# ---------------------------------------------------------------------------

def bernoulli_numbers(count):
    # independent recurrence: sum_{j<=m} C(m+1, j) b_j = 0 with b_0 = 1
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_criterion_03_theta_closed_forms():
    started = time.time()
    chain = leaf(1)
    for m in range(2, 9):
        t = node(0, (chain,))
        assert ncs.theta_recurrence(t) == Fraction(1, m - 1), m
        chain = node(1, (chain,))

    b = bernoulli_numbers(9)
    assert b == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
    ]
    for m in range(0, 9):
        shrub = leaf(1) if m == 0 else node(1, tuple(leaf(1) for _ in range(m)))
        t = node(0, (shrub,))
        assert ncs.theta_recurrence(t) == (-1) ** m * b[m], m
    report(3, "theta-closed-forms", started)


# ---------------------------------------------------------------------------
# 4. Three routes to the tree constants
# ---------------------------------------------------------------------------

def test_criterion_04_three_route_theta_agreement():
    started = time.time()
    assert len(enumerate_bplus_trees((1,), 7)) == 115
    rep = ncs.theta_agreement_report(7)
    assert rep.ok, rep.failures[:3]
    assert rep.checked == sum(len(enumerate_bplus_trees((1,), m)) for m in range(1, 8))
    assert time.time() - started < 120
    report(4, "three-route-theta", started)


# ---------------------------------------------------------------------------
# 5. Duality adjunctions and the pairing matrix
# ---------------------------------------------------------------------------

def test_criterion_05_duality():
    started = time.time()
    rep = duality.check_hopf_adjunction((1,), 4)
    assert rep.ok, rep.failures[:3]
    for m in range(0, 5):
        matrix = pairing_matrix((1,), m)
        for i, row in enumerate(matrix):
            assert all(entry == (1 if i == j else 0) for j, entry in enumerate(row))
    report(5, "duality", started)


# ---------------------------------------------------------------------------
# 6. Grafting product equals the structure-constant product
# ---------------------------------------------------------------------------

def test_criterion_06_structure_constants():
    started = time.time()
    for wa in range(0, 6):
        for wb in range(0, 6 - wa):
            for ta in enumerate_bplus_trees((1,), wa):
                for tb in enumerate_bplus_trees((1,), wb):
                    for basis in (gl.V_BASIS, gl.T_BASIS):
                        a = gl.from_bplus_tree(ta, basis)
                        b = gl.from_bplus_tree(tb, basis)
                        assert gl.mul(a, b) == gl.mul_structure(a, b), (ta, tb, basis)
    report(6, "structure-constants", started)


# ---------------------------------------------------------------------------
# 7. Antipode: pre-Lie recursion, coproduct recurrence, Hopf axiom
# ---------------------------------------------------------------------------

def test_criterion_07_antipode():
    started = time.time()
    for w in range(0, 5):
        for t in enumerate_bplus_trees((1,), w):
            e = gl.from_bplus_tree(t, gl.T_BASIS)
            by_recursion = gl.antipode(e)
            assert by_recursion == gl.antipode_by_recurrence(e), t
            acc = gl.zero(gl.T_BASIS)
            for (l, r), c in gl.coproduct(e).terms.items():
                acc = acc + gl.mul(
                    gl.antipode(gl.from_branches(l, gl.T_BASIS)),
                    gl.from_branches(r, gl.T_BASIS),
                ).scale(c)
            assert acc == gl.unit(gl.T_BASIS).scale(gl.counit(e)), t
    report(7, "antipode", started)


# ---------------------------------------------------------------------------
# 8. Nested-cut product identity with rational probes
# ---------------------------------------------------------------------------

def test_criterion_08_nested_cut_identity():
    started = time.time()
    all_trees = [t for w in range(0, 5) for t in enumerate_bplus_trees((1,), w)]

    def probe(slot, index):
        n = 137 * slot + index
        return Fraction(n + 2, 2 * n + 3)

    values = {
        (slot, t): probe(slot, i)
        for slot in range(3)
        for i, t in enumerate(all_trees)
    }
    assert len(set(values.values())) == len(values)  # genuinely distinct probes

    for r in (2, 3):
        factors = []
        for slot in range(r):
            coeffs = []
            for w in range(0, 5):
                elem = gl.zero()
                for t in enumerate_bplus_trees((1,), w):
                    elem = elem + gl.from_bplus_tree(t).scale(values[(slot, t)])
                coeffs.append(elem)
            factors.append(gl.series(coeffs))
        lhs = factors[0]
        for factor in factors[1:]:
            lhs = lhs * factor

        for w in range(0, 5):
            for t in enumerate_bplus_trees((1,), w):
                total = Fraction(0)
                for pieces, n in nested_cut_sequences(t, r):
                    prod = Fraction(n)
                    for slot, piece in enumerate(pieces):
                        prod *= values[(slot, piece)]
                    total += prod
                assert lhs.coeffs[w].get(branch_forest(t)) == total, (r, t)
    report(8, "nested-cut-identity", started)


# ---------------------------------------------------------------------------
# 9. Shrub expansion of f(-t)
# ---------------------------------------------------------------------------

def test_criterion_09_shrub_expansion():
    started = time.time()
    assert ncs.kappa_expansion_check((1,), 4).ok
    assert ncs.kappa_expansion_check((1, 2), 4).ok
    report(9, "shrub-expansion", started)


# ---------------------------------------------------------------------------
# 10. Specialization of the universal system
# ---------------------------------------------------------------------------

def test_criterion_10_specialization():
    started = time.time()
    rep = ncs.specialization_check((1, 2), 4)
    assert rep.ok, rep.failures[:3]
    rep = ncs.hopf_morphism_check((1, 2), 4)
    assert rep.ok, rep.failures[:3]
    report(10, "specialization", started)


# ---------------------------------------------------------------------------
# 11. The dual map into QSym
# ---------------------------------------------------------------------------

def test_criterion_11_dual_map():
    started = time.time()
    for wa in range(0, 4):
        for wb in range(0, 4 - wa):
            for fa in enumerate_forests((1,), wa):
                for fb in enumerate_forests((1,), wb):
                    lhs = ncs.dual_specialize(forest_union(fa, fb), (1,))
                    rhs = nsym.qsym_mul(
                        ncs.dual_specialize(fa, (1,)), ncs.dual_specialize(fb, (1,))
                    )
                    assert lhs == rhs, (fa, fb)
    for w in range(0, 4):
        for f in enumerate_forests((1,), w):
            lhs = nsym.qsym_coproduct(ncs.dual_specialize(f, (1,)))
            rhs: dict = {}
            for (l, r), c in ck.coproduct(ck.from_forest(f)).terms.items():
                for lw, lc in ncs.dual_specialize(l, (1,)).terms.items():
                    for rw, rc in ncs.dual_specialize(r, (1,)).terms.items():
                        key = (lw, rw)
                        rhs[key] = rhs.get(key, 0) + c * lc * rc
            assert lhs.terms == {k: v for k, v in rhs.items() if v}, f
    report(11, "dual-map", started)


# ---------------------------------------------------------------------------
# 12. Order-polynomial suite
# ---------------------------------------------------------------------------

def test_criterion_12_order_polynomials():
    started = time.time()
    rep = orderpoly.orderpoly_suite(6)
    assert rep.ok, rep.failures[:3]
    assert time.time() - started < 60
    report(12, "order-polynomials", started)


# ---------------------------------------------------------------------------
# 13. The word-reversing anti-involution on derived elements
# ---------------------------------------------------------------------------

def test_criterion_13_omega_identities():
    started = time.time()
    for m in range(1, 6):
        assert nsym.omega_lambda(nsym.complete_element(m)) == nsym.complete_element(m), m
        assert nsym.omega_lambda(nsym.power_second_element(m)) == nsym.power_second_element(m), m
        assert nsym.omega_lambda(nsym.power_first_element(m)) == nsym.power_third_element(m), m
    report(13, "omega-identities", started)
