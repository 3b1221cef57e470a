"""Tests of the benchmark's references, checks and tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

import refs
import tracer
import workloads
from treehopf import duality, gl, trees

A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_tree_counts_match_a000081():
    tree_counts, forest_counts = refs.tree_forest_counts((1,), 10)
    assert tree_counts[1:] == A000081
    # a forest of n vertices is a tree of n + 1 vertices without its root
    assert forest_counts[:10] == A000081


@pytest.mark.parametrize("labels", [(1, 2), (2, 3, 4), (3,)])
def test_weighted_counts_agree_with_enumeration(labels):
    tree_counts, forest_counts = refs.tree_forest_counts(labels, 8)
    for w in range(1, 9):
        assert tree_counts[w] == len(trees.enumerate_trees(labels, w))
        assert forest_counts[w] == len(trees.enumerate_forests(labels, w))


def test_bernoulli():
    assert refs.bernoulli(1) == Fraction(-1, 2)
    assert refs.bernoulli(2) == Fraction(1, 6)
    assert refs.bernoulli(12) == Fraction(-691, 2730)
    assert all(refs.bernoulli(k) == 0 for k in (3, 5, 7, 9))


def test_compositions():
    assert refs.compositions((1,), 6) == (1, 1)
    # 1111, 112, 121, 211, 22: last parts sum to 1+2+1+1+2
    assert refs.compositions((1, 2), 4) == (5, 7)
    assert refs.compositions((2,), 3) == (0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_and_antichain_closed_forms_by_brute_force(n):
    for s in range(5):
        maps = list(itertools.product(range(1, s + 1), repeat=n))
        weak = sum(all(a <= b for a, b in zip(m, m[1:])) for m in maps)
        strict = sum(all(a < b for a, b in zip(m, m[1:])) for m in maps)
        assert refs.chain_order_poly(n, s, strict=False) == weak
        assert refs.chain_order_poly(n, s, strict=True) == strict
        assert refs.antichain_order_poly(n, s) == len(maps)


def test_closed_form_check_counts():
    assert refs.adjunction_checks((1, 2), 5) == 27453
    assert refs.theta_checks(7) == 199
    assert refs.orderpoly_checks(7) == 1279
    assert refs.adjunction_checks((1,), 3) == duality.check_hopf_adjunction((1,), 3).checked


def test_ncs_check_passes_and_catches_perturbed_references():
    output = workloads.ncs_pass((1,), 5)
    expect = workloads.expect_ncs((1,), 5)
    assert workloads.check_ncs(output, expect) == []
    for key, index, delta in (
        ("d_shrubs", 2, Fraction(1, 100)),
        ("d_chains", 3, Fraction(1)),
        ("g_terms", 3, 1),
    ):
        bad = {k: (dict(v) if isinstance(v, dict) else list(v)) for k, v in expect.items()}
        bad[key][index] += delta
        assert workloads.check_ncs(output, bad), key
    bad = dict(expect, h_chains={**expect["h_chains"], 2: (1, 2)})
    assert workloads.check_ncs(output, bad)


def test_duality_check_catches_wrong_count():
    report = duality.check_hopf_adjunction((1,), 3)
    want = refs.adjunction_checks((1,), 3)
    assert workloads.check_duality(report, want) == []
    assert workloads.check_duality(report, want + 1)


def test_verify_all_check_passes_and_catches_perturbed_reference():
    output = workloads.verify_all_pass(workloads.verify_all_argv((1, 2), 2, 3))
    expect = workloads.expect_verify_all((1, 2), 2, 3)
    assert workloads.check_verify_all(output, expect) == []
    bad = dict(expect, checked={**expect["checked"], "theta": expect["checked"]["theta"] + 1})
    assert workloads.check_verify_all(output, bad)
    assert workloads.check_order_poly_closed_forms(4) == []


def test_tracer_rebinds_by_name_imports_and_restores(tmp_path):
    original = trees.graft_positions
    stock = trees.bplus(trees.forest((trees.leaf(1),)))
    scions = trees.forest((trees.leaf(1), trees.leaf(2)))
    t = tracer.Tracer(__import__("treehopf"))
    t.install()
    try:
        assert gl.graft_positions is trees.graft_positions is not original
        got = gl.graft_positions(scions, stock)
    finally:
        t.uninstall()
    assert gl.graft_positions is trees.graft_positions is original
    metrics = t.metrics()
    assert list(metrics) == list(tracer.LAYER_METRICS)
    assert metrics["trees.graft_assignments"] == len(got) == 4
    assert metrics["trees.interned"] >= 3
    path = tmp_path / "spans"
    t.write(path)
    names, spans = tracer.read_spans(path)
    assert spans[0][0] == "trees.graft_positions" and spans[0][3] == -1
    assert all(parent == 0 for _, _, _, parent in spans[1:])
    assert all(start <= end for _, start, end, _ in spans)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [*tracer.LAYER_METRICS, "trace.overhead_s"]
