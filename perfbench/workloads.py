"""The four benchmark workloads: one pass each, and the checks of its output.

Every pass calls the public functions of treehopf through their modules, so
that the tracer's rebinding sees the calls.  Every check compares the output
with values from :mod:`refs`, which does not import treehopf; none compares
with a stored copy of an earlier output.  A check returns the problems it
found, and an empty list means the pass is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refs
from treehopf import cli, duality, ncs, orderpoly, trees

NCS_EQUATIONS = (
    "unit-constant-term",
    "left-inverse",
    "right-inverse",
    "exponential",
    "derivation-right-factor",
    "derivation-left-factor",
)


@dataclass(frozen=True)
class Workload:
    name: str
    warm_passes: int  # after the cold pass, each timed on its own
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    final_check: Callable[[], list[str]] | None = None  # run once, untimed


# -- helpers that read trees through their public attributes only ------------

def _weight(t) -> int:
    return t.label + sum(_weight(c) for c in t.children)


def _size(t) -> int:
    return 1 + sum(_size(c) for c in t.children)


def _chain_leaf_label(t) -> int | None:
    while t.children:
        if len(t.children) != 1:
            return None
        t = t.children[0]
    return t.label


def _shrub_leaves(t) -> int | None:
    """k when t is a vertex over k >= 2 leaves."""
    if len(t.children) >= 2 and all(not c.children for c in t.children):
        return len(t.children)
    return None


# -- ncs-*: build_omega + verify_ncs ------------------------------------------

def ncs_pass(labels, order):
    system = ncs.build_omega(labels, order)
    return system, ncs.verify_ncs(system)


def expect_ncs(labels, order) -> dict:
    _, forests = refs.tree_forest_counts(labels, order)
    expect = {
        "g_terms": forests,
        "h_chains": {w: refs.compositions(labels, w) for w in range(1, order + 1)},
    }
    if tuple(labels) == (1,):
        # theta of the grafted m-chain is 1/m; of a vertex over k leaves, (-1)^k B_k.
        expect["d_chains"] = {m: Fraction(1, m) for m in range(1, order + 1)}
        expect["d_shrubs"] = {k: (-1) ** k * refs.bernoulli(k) for k in range(2, order)}
    return expect


def check_ncs(output, expect) -> list[str]:
    system, report = output
    problems = []
    equations = tuple(c.equation for c in report.checks)
    if equations != NCS_EQUATIONS:
        problems.append(f"verify_ncs ran {equations}")
    problems += [f"{c.equation}: {c.status}" for c in report.checks if c.status != "pass"]

    for m, coeff in enumerate(system.g.coeffs):
        terms = coeff.terms
        if len(terms) != expect["g_terms"][m] or coeff.basis != "V":
            problems.append(f"g_{m}: {len(terms)} {coeff.basis}-terms, want {expect['g_terms'][m]}")
        if any(c != 1 for c in terms.values()):
            problems.append(f"g_{m}: a coefficient is not 1")
        if any(sum(_weight(t) for t in f.trees) != m for f in terms):
            problems.append(f"g_{m}: a term has the wrong weight")

    for k, coeff in enumerate(system.h.coeffs):
        w = k + 1
        for f, c in coeff.terms.items():
            leaf = _chain_leaf_label(f.trees[0]) if len(f.trees) == 1 else None
            if leaf is None or _weight(f.trees[0]) != w or c != leaf:
                problems.append(f"h_{k}: term {c} on a tree that is not a weight-{w} chain")
        count, last_sum = expect["h_chains"][w]
        if len(coeff.terms) != count or sum(coeff.terms.values()) != last_sum:
            problems.append(f"h_{k}: {len(coeff.terms)} chains, want {count}")

    if "d_chains" in expect:
        chains, shrubs = {}, {}
        for coeff in system.d.coeffs:
            for f, c in coeff.terms.items():
                (branch,) = f.trees
                if _chain_leaf_label(branch) is not None:
                    chains[_size(branch)] = c
                elif _shrub_leaves(branch) is not None:
                    shrubs[_shrub_leaves(branch)] = c
        for m, want in expect["d_chains"].items():
            if chains.get(m, 0) != want:
                problems.append(f"d on the {m}-chain is {chains.get(m, 0)}, want {want}")
        for k, want in expect["d_shrubs"].items():
            if shrubs.get(k, 0) != want:
                problems.append(f"d on the {k}-leaf shrub is {shrubs.get(k, 0)}, want {want}")
    return problems


# -- duality: check_hopf_adjunction -------------------------------------------

def check_duality(report, expect_checked: int) -> list[str]:
    problems = list(report.failures[:3])
    if report.checked != expect_checked:
        problems.append(f"adjunction made {report.checked} checks, want {expect_checked}")
    return problems


# -- verify-all: the CLI command ----------------------------------------------

def verify_all_argv(labels, max_weight, max_vertices) -> list[str]:
    return [
        "verify", "all",
        "--labels", ",".join(map(str, labels)),
        "--max-weight", str(max_weight),
        "--max-vertices", str(max_vertices),
        "--format", "json",
    ]


def verify_all_pass(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def expect_verify_all(labels, max_weight, max_vertices) -> dict:
    _, forests = refs.tree_forest_counts(labels, max_weight)
    return {
        "checked": {
            "shrub-expansion": max_weight + 1,
            "duality": refs.adjunction_checks(labels, max_weight),
            "specialization": refs.specialization_checks(max_weight),
            "hopf-morphism": refs.hopf_morphism_checks(labels, max_weight),
            "theta": refs.theta_checks(max_vertices),
            "orderpoly": refs.orderpoly_checks(max_vertices),
        },
        "rank_dimensions": {
            str(m): (2 ** (m - 1), forests[m]) for m in range(1, max_weight + 1)
        },
    }


def check_verify_all(output, expect) -> list[str]:
    code, text = output
    problems = [] if code == 0 else [f"exit code {code}"]
    payload = json.loads(text)
    reports = payload["reports"]
    if payload["status"] != "pass":
        problems.append("overall status is not pass")
    want_names = set(expect["checked"]) | {"ncs", "rank-diagnostic"}
    if set(reports) != want_names:
        problems.append(f"reports {sorted(reports)}")
        return problems
    ncs_report = reports["ncs"]
    if tuple(c["equation"] for c in ncs_report["checks"]) != NCS_EQUATIONS:
        problems.append("ncs report ran other equations")
    if ncs_report["status"] != "pass":
        problems.append("ncs report failed")
    for name, want in expect["checked"].items():
        rep = reports[name]
        if rep["failures"] or rep["checked"] != want:
            problems.append(f"{name}: {rep['checked']} checks, {len(rep['failures'])} failed; want {want}")
    by_weight = reports["rank-diagnostic"]["by_weight"]
    for m, (dim, target) in expect["rank_dimensions"].items():
        stats = by_weight.get(m, {})
        if (stats.get("dimension"), stats.get("target_dimension")) != (dim, target):
            problems.append(f"rank-diagnostic weight {m}: {stats}")
        elif not 0 <= stats["rank"] <= min(dim, target):
            problems.append(f"rank-diagnostic weight {m}: rank {stats['rank']}")
    return problems


def check_order_poly_closed_forms(max_vertices: int) -> list[str]:
    """order_poly and strict_order_poly of chains and antichains, against
    C(s+n-1, n), C(s, n) and s^n at s = 0..n+2."""
    problems = []
    for n in range(1, max_vertices + 1):
        chain = trees.leaf(1)
        for _ in range(n - 1):
            chain = trees.node(1, (chain,))
        cases = (
            ("chain", trees.forest((chain,)), lambda s: refs.chain_order_poly(n, s, False),
             lambda s: refs.chain_order_poly(n, s, True)),
            ("antichain", trees.forest((trees.leaf(1),) * n),
             lambda s: refs.antichain_order_poly(n, s), lambda s: refs.antichain_order_poly(n, s)),
        )
        for kind, f, weak, strict in cases:
            p, q = orderpoly.order_poly(f), orderpoly.strict_order_poly(f)
            for s in range(n + 3):
                if p(s) != weak(s) or q(s) != strict(s):
                    problems.append(f"{kind} of {n} at s={s}: {p(s)}, {q(s)}")
    return problems


def _ncs_workload(name, labels, order, warm_passes) -> Workload:
    expect = expect_ncs(labels, order)
    return Workload(
        name, warm_passes, lambda: ncs_pass(labels, order), lambda out: check_ncs(out, expect)
    )


def _build() -> dict[str, Workload]:
    duality_labels, duality_weight = (1, 2, 3), 4
    adjunction_checks = refs.adjunction_checks(duality_labels, duality_weight)
    verify_params = ((1, 2), 4, 6)  # the CLI defaults for weight and vertices
    argv = verify_all_argv(*verify_params)
    verify_expect = expect_verify_all(*verify_params)
    workloads = [
        _ncs_workload("ncs-1", (1,), 6, warm_passes=5),
        _ncs_workload("ncs-234", (2, 3, 4), 12, warm_passes=1),
        Workload(
            "duality", 2,
            lambda: duality.check_hopf_adjunction(duality_labels, duality_weight),
            lambda report: check_duality(report, adjunction_checks),
        ),
        Workload(
            "verify-all", 1,
            lambda: verify_all_pass(argv),
            lambda out: check_verify_all(out, verify_expect),
            final_check=lambda: check_order_poly_closed_forms(verify_params[2]),
        ),
    ]
    return {w.name: w for w in workloads}


WORKLOADS = _build()
