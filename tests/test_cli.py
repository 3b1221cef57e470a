"""Command-line interface: outputs, formats, exit codes."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import treehopf
from treehopf import cli, duality, ncs, nsym, orderpoly
from treehopf.cli import main
from treehopf.trees import forest, leaf, node, parse_tree, tree_text


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_counts_single_label(capsys):
    code, out, _ = run(capsys, "enumerate", "--labels", "1", "--max-weight", "4", "--kind", "bplus")
    assert code == 0
    counts = [int(line.split(":")[1]) for line in out.splitlines() if line.startswith("weight")]
    assert counts == [1, 1, 2, 4, 9]


def test_enumerate_two_labels_weight_three(capsys):
    code, out, _ = run(capsys, "enumerate", "--labels", "1,2", "--max-weight", "3", "--kind", "bplus")
    assert code == 0
    assert "weight 3: 7" in out


def test_enumerate_weight_zero_unit(capsys):
    code, out, _ = run(capsys, "enumerate", "--labels", "1", "--max-weight", "1", "--kind", "bplus")
    assert out.splitlines()[0] == "weight 0: 1"
    assert out.splitlines()[1] == "  0"


def test_enumerate_items_reparse_canonically(capsys):
    _, out, _ = run(capsys, "enumerate", "--labels", "1,2", "--max-weight", "3", "--kind", "bplus")
    for line in out.splitlines():
        if line.startswith("  "):
            t = parse_tree(line.strip())
            assert tree_text(t) == line.strip()


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_d_two_labels(capsys):
    code, out, _ = run(capsys, "expand", "d", "--labels", "1,2", "--max-weight", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "t^2: 1/2*V[1(1)] + V[2]"


def test_expand_h_two_labels(capsys):
    code, out, _ = run(capsys, "expand", "h", "--labels", "1,2", "--max-weight", "1")
    assert code == 0
    assert out.splitlines()[0] == "t^0: V[1]"


def test_expand_g_single_label(capsys):
    code, out, _ = run(capsys, "expand", "g", "--labels", "1", "--max-weight", "1")
    assert out.splitlines() == ["t^0: 1", "t^1: V[1]"]


def test_expand_json_matches_text_numerically(capsys):
    _, text_out, _ = run(capsys, "expand", "d", "--labels", "1,2", "--max-weight", "3")
    _, json_out, _ = run(
        capsys, "expand", "d", "--labels", "1,2", "--max-weight", "3", "--format", "json"
    )
    payload = json.loads(json_out)
    for entry in payload["coefficients"]:
        degree = entry["degree"]
        text_line = text_out.splitlines()[degree]
        for term in entry["terms"]:
            coeff = Fraction(term["coeff"])
            branches = term["branches"]
            rendered = f"V{branches}"
            assert rendered in text_line
            if abs(coeff) != 1:
                assert f"{abs(coeff)}*{rendered}" in text_line


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_ncs_passes(capsys):
    code, out, _ = run(capsys, "verify", "ncs", "--labels", "1", "--max-weight", "4")
    assert code == 0
    assert "overall: pass" in out


def test_verify_all_small(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "all",
        "--labels", "1",
        "--max-weight", "3",
        "--max-vertices", "4",
    )
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize(
    "suite, too_many", [("theta", "13"), ("all", "13"), ("orderpoly", "13")]
)
def test_verify_refuses_vertices_beyond_the_routes_before_any_work(capsys, suite, too_many):
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", suite, "--max-vertices", too_many)
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_vertex_ceilings_match_what_the_routes_accept():
    # --max-vertices counts non-root vertices; the theta sweep adds the root.
    top = cli.MAX_ORDER_CEILING
    chain = leaf(1)
    for _ in range(top - 1):
        chain = node(1, (chain,))
    t = node(0, (chain,))
    assert ncs.theta_recurrence(t) == Fraction(1, top)
    assert ncs.theta_via_log((1,), top)[t] == Fraction(1, top)
    assert orderpoly.theta_via_orderpoly(t) == Fraction(1, top)
    with pytest.raises(ValueError):
        orderpoly.theta_via_orderpoly(node(0, (node(1, (chain,)),)))

    orderpoly.order_poly(forest(leaf(1) for _ in range(top)))
    with pytest.raises(ValueError):
        orderpoly.order_poly(forest(leaf(1) for _ in range(top + 1)))


def test_verify_reports_a_failing_suite_and_equation(capsys, monkeypatch):
    from treehopf.report import CheckReport

    def failing_ncs(system):
        return ncs.NCSReport(
            system.carrier,
            system.order,
            [
                ncs.EquationCheck("left-inverse", "pass"),
                ncs.EquationCheck("exponential", "fail", {"degree": 2, "diff": "V[1]"}),
            ],
        )

    monkeypatch.setattr(
        ncs, "kappa_expansion_check", lambda labels, order: CheckReport(3, ["degree 2: x != y"])
    )
    monkeypatch.setattr(ncs, "verify_ncs", failing_ncs)
    args = ("verify", "ncs", "--labels", "1", "--max-weight", "2")
    code, out, _ = run(capsys, *args)
    assert code == 1
    assert out.splitlines() == [
        "ncs/left-inverse: pass",
        "ncs/exponential: fail",
        "shrub-expansion: fail (3 checks)",
        "  FAIL degree 2: x != y",
        "overall: fail",
    ]
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["reports"]["ncs"]["status"] == "fail"
    assert payload["reports"]["shrub-expansion"] == {
        "checked": 3,
        "failures": ["degree 2: x != y"],
    }


def test_verify_json_reports(capsys):
    code, out, _ = run(
        capsys, "verify", "duality", "--labels", "1", "--max-weight", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["reports"]["duality"]["failures"] == []
    assert payload["reports"]["duality"]["checked"] > 0


# ---------------------------------------------------------------------------
# theta / orderpoly / qsym
# ---------------------------------------------------------------------------

def test_theta_four_chain(capsys):
    code, out, _ = run(capsys, "theta", "0(1(1(1)))")
    assert code == 0
    assert out.strip() == "1/3"


def test_theta_json(capsys):
    _, out, _ = run(capsys, "theta", "0(1(1))", "--format", "json")
    payload = json.loads(out)
    assert payload == {"command": "theta", "tree": "0(1(1))", "theta": "1/2"}


def test_theta_refuses_a_tree_without_grafting_root(capsys):
    code, out, err = run(capsys, "theta", "1(1)")
    assert code == 2
    assert out == ""
    assert err == "error: expected a grafting-rooted tree (root label 0)\n"


def test_orderpoly_weak_singleton(capsys):
    code, out, _ = run(capsys, "orderpoly", "--forest", "[1]", "--kind", "weak")
    assert code == 0
    assert out.strip() == "s"


def test_orderpoly_json_matches_text(capsys):
    _, text_out, _ = run(capsys, "orderpoly", "--forest", "[1(1),1]", "--kind", "strict")
    _, json_out, _ = run(
        capsys, "orderpoly", "--forest", "[1(1),1]", "--kind", "strict", "--format", "json"
    )
    payload = json.loads(json_out)
    assert payload["text"] == text_out.strip()
    # coefficients, lowest degree first
    from treehopf.orderpoly import RationalPolynomial

    poly = RationalPolynomial(Fraction(c) for c in payload["coeffs"])
    assert poly.text() == text_out.strip()


def test_qsym_singleton(capsys):
    code, out, _ = run(capsys, "qsym", "--forest", "[1]", "--labels", "1", "--max-weight", "3")
    assert code == 0
    assert out.strip() == "M[1]"


def test_qsym_weight_above_bound_fails(capsys):
    # A vertex whose label has no letter in --labels is refused too, rather
    # than giving an image of 0.
    for text, labels, max_weight, named in (
        ("[1,1,1]", "1", "2", "exceeds"),
        ("[1(2)]", "1", "4", "label 2 "),
        ("[0]", "1,2", "4", "label 0 "),
        ("[0(1)]", "1", "4", "label 0 "),
    ):
        code, out, err = run(
            capsys, "qsym", "--forest", text, "--labels", labels, "--max-weight", max_weight
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and named in err


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "theta", "not-a-tree")
    assert code == 2
    assert "error" in err


def test_bad_labels_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--labels", "0,1")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "x"])
    assert exc.value.code == 2


def _python_subprocess(*argv, **env_vars):
    env = dict(os.environ, **env_vars)
    src = str(Path(treehopf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60,
    )


def _cli_subprocess(*args, **env_vars):
    return _python_subprocess("-m", "treehopf.cli", *args, **env_vars)


def _chain_text(depth: int, root: str) -> str:
    return root + "(1" * depth + ")" * depth


@pytest.mark.parametrize(
    "args",
    [
        ("theta", _chain_text(500, "0")),
        ("theta", _chain_text(3000, "0")),
        ("theta", _chain_text(300, "0")),
        ("orderpoly", "--forest", f"[{_chain_text(499, '1')}]"),
        ("orderpoly", "--forest", f"[{_chain_text(2999, '1')}]"),
        ("qsym", "--forest", f"[{_chain_text(499, '1')}]"),
        ("qsym", "--forest", f"[{_chain_text(2999, '1')}]"),
        # shallow enough to parse, but past the size ceiling of theta
        ("theta", _chain_text(cli.MAX_ORDER_CEILING + 1, "0")),
        ("theta", "0(1(" + ",".join(["1(1)"] * 12) + "))"),
    ],
    ids=lambda args: f"{args[0]}-{len(args[-1])}chars",
)
def test_oversized_tree_input_is_a_quick_usage_error(args):
    started = time.perf_counter()
    proc = _cli_subprocess(*args)
    assert time.perf_counter() - started < 1
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


def test_theta_accepts_a_tree_at_the_size_ceiling(capsys):
    code, out, _ = run(capsys, "theta", _chain_text(cli.MAX_ORDER_CEILING, "0"))
    assert code == 0
    assert out == f"1/{cli.MAX_ORDER_CEILING}\n"


def test_import_path_leaves_out_dataclasses_and_inspect():
    # Start-up cost: dataclasses alone pulls in inspect, ast, dis and tokenize.
    # NCSSystem sits in series, below both nsym and ncs, so the universal
    # system loads without the tree system and both share one record class.
    package = Path(treehopf.__file__).resolve().parent
    modules = sorted(f"treehopf.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    assert len(modules) >= 12
    code = (
        "import sys, treehopf.nsym\nprint('treehopf.ncs' in sys.modules)\n"
        f"for m in {modules!r}: __import__(m)\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))\n"
        "print(treehopf.nsym.NCSSystem is treehopf.ncs.NCSSystem)"
    )
    proc = _python_subprocess("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n[]\nTrue\n"


def test_series_systems_are_read_only():
    omega = ncs.build_omega((1,), 2)
    pi = nsym.pi_system(2)
    for record, name in ((omega.f, "coeffs"), (omega.f, "ops"), (omega, "g"), (pi, "g")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del omega.f.coeffs


# ---------------------------------------------------------------------------
# the cyclic collector
# ---------------------------------------------------------------------------

def _collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@contextlib.contextmanager
def _collector(enabled: bool):
    """The collector on or off, with an unusual threshold so that a reset to
    the defaults would show; both restored after.  Nothing is frozen, since
    a frozen object that dies lowers the freeze count by itself."""
    before = _collector_state()
    gc.set_threshold(701, 11, 9)
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.set_threshold(*before[1])
        (gc.enable if before[0] else gc.disable)()


def _quiet_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _library_suites(labels, weight, vertices):
    """A call of each paused library entry point on these arguments."""
    return {
        "ncs.build_omega": lambda: ncs.build_omega(labels, weight),
        "ncs.verify_ncs": lambda: ncs.verify_ncs(ncs.build_omega(labels, weight)),
        "ncs.kappa_expansion_check": lambda: ncs.kappa_expansion_check(labels, weight),
        "duality.check_hopf_adjunction": lambda: duality.check_hopf_adjunction(labels, weight),
        "ncs.specialization_check": lambda: ncs.specialization_check(labels, weight),
        "ncs.hopf_morphism_check": lambda: ncs.hopf_morphism_check(labels, weight),
        "ncs.specialization_rank": lambda: ncs.specialization_rank(labels, weight),
        "ncs.theta_agreement_report": lambda: ncs.theta_agreement_report(vertices),
        "orderpoly.orderpoly_suite": lambda: orderpoly.orderpoly_suite(vertices),
    }


_ENTRY_POINT_CALLS = {
    "cli.main": lambda: _quiet_main("verify", "all", "--max-weight", "2", "--max-vertices", "3"),
    **_library_suites((1,), 2, 3),
}


def _exit_2_on_bad_labels():
    assert _quiet_main("verify", "ncs", "--labels", "0,1") == 2


def _argparse_exit():
    with pytest.raises(SystemExit):
        _quiet_main("expand", "x")


def _build_omega_refuses_order_0():
    with pytest.raises(ValueError, match="order must be at least 1"):
        ncs.build_omega((1,), 0)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "call",
    [*_ENTRY_POINT_CALLS.values(), _exit_2_on_bad_labels, _argparse_exit, _build_omega_refuses_order_0],
    ids=[*_ENTRY_POINT_CALLS, "bad-labels", "argparse-exit", "build-omega-raises"],
)
def test_entry_points_leave_the_collector_as_they_found_it(call, enabled):
    with _collector(enabled):
        before = _collector_state()
        assert before[0] is enabled
        call()
        assert _collector_state() == before


def test_a_nested_paused_call_keeps_the_collector_off(monkeypatch):
    # verify_ncs is paused itself; under cli.main it finds the collector off
    # and must leave it off when it returns, until main returns.
    seen = []
    real = ncs.verify_ncs

    def probe(system):
        seen.append(gc.isenabled())
        report = real(system)
        seen.append(gc.isenabled())
        return report

    monkeypatch.setattr(ncs, "verify_ncs", probe)
    with _collector(True):
        assert _quiet_main("verify", "ncs", "--max-weight", "2") == 0
        assert gc.isenabled()
    assert seen == [False, False]


def test_verify_all_makes_no_reference_cycle():
    # With the collector paused, any cycle treehopf made would pile up until
    # the entry point returns.  The first run builds the memoized argparse
    # parser, whose help formatters make one-off cycles.
    enabled = gc.isenabled()
    gc.disable()
    try:
        _quiet_main("verify", "all")
        gc.collect()
        assert _quiet_main("verify", "all") == 0
        assert gc.collect() == 0
        for name, suite in _library_suites((1,), 4, 6).items():  # the CLI defaults
            suite()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
