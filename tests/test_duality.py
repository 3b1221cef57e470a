"""Graded pairing between the grafting and forest algebras."""

import importlib.util
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import pair_tree_forest, pairing_matrix
from treehopf import ck, duality, gl
from treehopf.trees import (
    EMPTY_FOREST,
    bplus,
    enumerate_bplus_trees,
    enumerate_forests,
    parse_forest,
    parse_tree,
)


def test_basis_pairing_examples():
    assert pair_tree_forest(bplus(EMPTY_FOREST), EMPTY_FOREST) == 1
    assert pair_tree_forest(parse_tree("0(1,1)"), parse_forest("[1,1]")) == 2
    assert pair_tree_forest(parse_tree("0(1)"), parse_forest("[2]")) == 0


def test_pairing_and_gl_elements_refuse_a_tree_without_grafting_root():
    t = parse_tree("1(1)")
    for call in (
        lambda: gl.from_bplus_tree(t),
        lambda: pair_tree_forest(t, parse_forest("[1]")),
    ):
        with pytest.raises(ValueError, match=r"^expected a grafting-rooted tree \(root label 0\)$"):
            call()


def test_pairing_bilinear_and_basis_aware():
    a_t = gl.from_bplus_tree(parse_tree("0(1,1)"), gl.T_BASIS)
    a_v = gl.from_bplus_tree(parse_tree("0(1,1)"), gl.V_BASIS)
    b = ck.from_forest(parse_forest("[1,1]"))
    assert duality.pair(a_t, b) == 2
    assert duality.pair(a_v, b) == 1
    assert duality.pair(3 * a_t, 2 * b) == 12


def test_pairing_vanishes_across_weights():
    a = gl.from_bplus_tree(parse_tree("0(1)"))
    b = ck.from_forest(parse_forest("[1,1]"))
    assert duality.pair(a, b) == 0


def test_hand_expanded_adjunction_case():
    x = gl.from_bplus_tree(parse_tree("0(1)"), gl.T_BASIS)
    f = ck.from_forest(parse_forest("[1,1]"))
    lhs = duality.pair(gl.mul(x, x), f)
    rhs = duality.pair_tensor(gl.tensor_of(x, x), ck.coproduct(f))
    assert lhs == rhs == 2


def test_adjunction_exhaustive_weight_four():
    report = duality.check_hopf_adjunction((1,), 4)
    assert report.ok, report.failures
    assert report.checked > 500


def test_adjunction_spot_samples_weight_five():
    # a few basis triples at total weight five
    cases = [
        ("0(1,1)", "0(1(1,1))", "[1,1,1(1),1]"),
        ("0(1(1))", "0(1(1(1)))", "[1(1(1(1))),1]"),
        ("0(1)", "0(1,1,1,1)", "[1,1,1,1,1]"),
    ]
    for xt, yt, ft in cases:
        x = gl.from_bplus_tree(parse_tree(xt), gl.T_BASIS)
        y = gl.from_bplus_tree(parse_tree(yt), gl.T_BASIS)
        f = ck.from_forest(parse_forest(ft))
        assert duality.pair(gl.mul(x, y), f) == duality.pair_tensor(
            gl.tensor_of(x, y), ck.coproduct(f)
        )
        assert duality.pair(gl.antipode(x), ck.from_forest(parse_forest("[1,1]"))) == duality.pair(
            x, ck.antipode(ck.from_forest(parse_forest("[1,1]")))
        )


def _load_refs():
    # perfbench/refs.py restates the check counts without importing treehopf.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "refs.py"
    spec = importlib.util.spec_from_file_location("perfbench_refs", path)
    refs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refs)
    return refs


def test_adjunction_weight_five_over_two_labels():
    report = duality.check_hopf_adjunction((1, 2), 5)
    assert report.ok, report.failures[:5]
    assert report.checked == 27453 == _load_refs().adjunction_checks((1, 2), 5)


# Failure lists recorded from the pair-by-pair checker, which paired one
# basis triple at a time, under the faults below.
ADJUNCTION_FAULTS = json.loads(Path(__file__).with_name("adjunction_faults.json").read_text())
ONE = parse_forest("[1]")


def _last_key_of_weight_four(arg, out):
    return [f for f, _ in out.sorted_terms()[-1:] if f.weight == 4]


def _one_split_off(arg, out):
    return [k for k in out.terms if k[0] == ONE and k[1].weight >= 2]


def _self_or_unit(arg, out):
    # Weight 2 gains a term of the wrong weight, which no pairing sees.
    (f,) = arg.terms
    return [f] if f.weight == 4 else [EMPTY_FOREST] if f.weight == 2 else []


def _every_key_of_weight_three(arg, out):
    # Several failures in one row, so their order within the row shows.
    return [f for f in out.terms if f.weight == 3]


@pytest.mark.parametrize(
    "fault, keys",
    [
        ("gl.mul", _last_key_of_weight_four),
        ("gl.coproduct", _one_split_off),
        ("ck.antipode", _self_or_unit),
        ("gl.antipode", _every_key_of_weight_three),
    ],
)
def test_adjunction_reports_corrupted_coefficients_as_the_pairings_did(monkeypatch, fault, keys):
    # Filled memo tables keep the fault inside the checker's own calls (the
    # antipodes call mul and antipode themselves on a miss).
    assert duality.check_hopf_adjunction((1, 2), 4).ok
    module_name, name = fault.split(".")
    module = {"gl": gl, "ck": ck}[module_name]
    original = getattr(module, name)

    def faulty(*args):
        out = original(*args)
        return out + out._like(1, Counter(keys(args[0], out)))

    monkeypatch.setattr(module, name, faulty)
    report = duality.check_hopf_adjunction((1, 2), 4)
    assert report.checked == 3308
    assert report.failures == ADJUNCTION_FAULTS[fault]


def test_pairing_matrix_is_identity_permutation():
    # Divided basis against forests, aligned by the shared branch-forest order.
    for m in range(0, 5):
        matrix = pairing_matrix((1,), m)
        n = len(matrix)
        assert n == len(enumerate_bplus_trees((1,), m)) == len(enumerate_forests((1,), m))
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                assert entry == (1 if i == j else 0)

