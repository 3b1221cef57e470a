"""Command-line front end.

Subcommands: enumerate, expand, verify, theta, orderpoly, qsym.  All output
is deterministic (terms ordered by weight, then canonical key) and every
command takes ``--format json`` for machine-readable output with identical
numerical content.  Exit codes: 0 success, 1 verification failure, 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import duality, gl, memo, ncs, nsym, orderpoly
from .trees import (
    MAX_ORDER_CEILING,
    enumerate_bplus_trees,
    enumerate_forests,
    enumerate_trees,
    forest_text,
    parse_forest,
    parse_tree,
    tree_text,
)


def _parse_labels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse label list {text!r}") from exc


def _config(args: argparse.Namespace) -> argparse.Namespace:
    """args with --labels parsed into a tuple, once every input is checked.

    argparse holds the defaults; only verify has --max-vertices.
    """
    labels = args.labels = _parse_labels(args.labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if any(x < 1 for x in labels):
        raise ValueError("labels must be positive integers")
    if not 1 <= args.max_weight <= MAX_ORDER_CEILING:
        raise ValueError(f"max weight must be between 1 and {MAX_ORDER_CEILING}")
    if "max_vertices" in vars(args) and not 1 <= args.max_vertices <= MAX_ORDER_CEILING:
        raise ValueError(f"max vertices must be between 1 and {MAX_ORDER_CEILING}")
    return args


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    cfg = _config(args)
    enumerators = {
        "trees": lambda m: [tree_text(t) for t in enumerate_trees(cfg.labels, m)],
        "forests": lambda m: [forest_text(f) for f in enumerate_forests(cfg.labels, m)],
        "bplus": lambda m: [tree_text(t) for t in enumerate_bplus_trees(cfg.labels, m)],
    }
    items_of = enumerators[args.kind]
    start = 0 if args.kind in ("forests", "bplus") else 1
    by_weight = []
    lines = []
    for m in range(start, cfg.max_weight + 1):
        items = items_of(m)
        by_weight.append({"weight": m, "count": len(items), "items": items})
        lines.append(f"weight {m}: {len(items)}")
        lines.extend(f"  {item}" for item in items)
    payload = {
        "command": "enumerate",
        "kind": args.kind,
        "labels": list(cfg.labels),
        "max_weight": cfg.max_weight,
        "by_weight": by_weight,
    }
    _emit(payload, cfg.format, lines)
    return 0


def cmd_expand(args) -> int:
    cfg = _config(args)
    omega = ncs.build_omega(cfg.labels, cfg.max_weight)
    series = omega.series_by_name(args.series)
    coefficients = []
    lines = []
    for degree, coeff in enumerate(series.coeffs):
        coefficients.append({"degree": degree, "terms": gl.to_json_terms(coeff)})
        lines.append(f"t^{degree}: {gl.text(coeff)}")
    payload = {
        "command": "expand",
        "series": args.series,
        "labels": list(cfg.labels),
        "max_weight": cfg.max_weight,
        "order": series.order,
        "coefficients": coefficients,
    }
    _emit(payload, cfg.format, lines)
    return 0


def _verify_reports(suite: str, cfg: argparse.Namespace) -> tuple[dict[str, dict], bool]:
    """The JSON of every report the suite makes, and whether every check passed."""
    reports: dict[str, dict] = {}
    passed: list[bool] = []

    def add(name: str, report) -> None:
        passed.append(report.ok)
        reports[name] = report.as_dict()

    if suite in ("ncs", "all"):
        add("ncs", ncs.verify_ncs(ncs.build_omega(cfg.labels, cfg.max_weight)))
        add("shrub-expansion", ncs.kappa_expansion_check(cfg.labels, cfg.max_weight))
    if suite in ("duality", "all"):
        add("duality", duality.check_hopf_adjunction(cfg.labels, cfg.max_weight))
    if suite in ("hopf", "all"):
        add("specialization", ncs.specialization_check(cfg.labels, cfg.max_weight))
        add("hopf-morphism", ncs.hopf_morphism_check(cfg.labels, cfg.max_weight))
        reports["rank-diagnostic"] = {
            "note": "rank of the specialization per weight (injectivity undecided)",
            "by_weight": {
                str(m): stats
                for m, stats in ncs.specialization_rank(cfg.labels, cfg.max_weight).items()
            },
        }
    if suite in ("theta", "all"):
        add("theta", ncs.theta_agreement_report(cfg.max_vertices))
    if suite in ("orderpoly", "all"):
        add("orderpoly", orderpoly.orderpoly_suite(cfg.max_vertices))
    return reports, all(passed)


def cmd_verify(args) -> int:
    cfg = _config(args)
    reports, ok = _verify_reports(args.suite, cfg)
    lines = []
    for name, rep in reports.items():
        if "checks" in rep:
            for check in rep["checks"]:
                lines.append(f"{name}/{check['equation']}: {check['status']}")
        elif "failures" in rep:
            status = "pass" if not rep["failures"] else "fail"
            lines.append(f"{name}: {status} ({rep['checked']} checks)")
            lines.extend(f"  FAIL {msg}" for msg in rep["failures"])
        else:
            lines.append(f"{name}: info")
    lines.append(f"overall: {'pass' if ok else 'fail'}")
    payload = {
        "command": "verify",
        "suite": args.suite,
        "labels": list(cfg.labels),
        "max_weight": cfg.max_weight,
        "max_vertices": cfg.max_vertices,
        "status": "pass" if ok else "fail",
        "reports": reports,
    }
    _emit(payload, cfg.format, lines)
    return 0 if ok else 1


def cmd_theta(args) -> int:
    tree = parse_tree(args.tree)
    if tree.size - 1 > MAX_ORDER_CEILING:
        raise ValueError(
            f"tree has {tree.size - 1} non-root vertices, above the ceiling {MAX_ORDER_CEILING}"
        )
    value = ncs.theta_recurrence(tree)
    payload = {"command": "theta", "tree": tree_text(tree), "theta": str(value)}
    _emit(payload, args.format, [str(value)])
    return 0


def cmd_orderpoly(args) -> int:
    f = parse_forest(args.forest)
    poly = orderpoly.strict_order_poly(f) if args.kind == "strict" else orderpoly.order_poly(f)
    payload = {
        "command": "orderpoly",
        "forest": forest_text(f),
        "kind": args.kind,
        "coeffs": [str(c) for c in poly.coeffs],
        "text": poly.text(),
    }
    _emit(payload, args.format, [poly.text()])
    return 0


def cmd_qsym(args) -> int:
    cfg = _config(args)
    f = parse_forest(args.forest)
    if f.weight > cfg.max_weight:
        raise ValueError(
            f"forest weight {f.weight} exceeds --max-weight {cfg.max_weight}"
        )
    image = ncs.dual_specialize(f, cfg.labels)
    payload = {
        "command": "qsym",
        "forest": forest_text(f),
        "labels": list(cfg.labels),
        "max_weight": cfg.max_weight,
        "terms": [
            {"coeff": str(c), "composition": list(comp)} for comp, c in image.sorted_terms()
        ],
        "text": nsym.qsym_text(image),
    }
    _emit(payload, cfg.format, [nsym.qsym_text(image)])
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--labels", default="1", help="comma-separated label set, e.g. 1,2")
    p.add_argument("--max-weight", type=int, default=4, dest="max_weight")
    p.add_argument("--format", choices=("text", "json"), default="text")


@memo.memoized
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="treehopf",
        description="Exact Hopf-algebra computations on labeled rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list trees/forests per weight")
    p.add_argument("--kind", choices=("trees", "forests", "bplus"), default="bplus")
    _add_common(p)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("expand", help="print a generating-function expansion")
    p.add_argument("series", choices=("f", "g", "d", "h", "m"))
    _add_common(p)
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("ncs", "duality", "hopf", "theta", "orderpoly", "all"))
    _add_common(p)
    p.add_argument(
        "--max-vertices",
        type=int,
        default=6,
        dest="max_vertices",
        help="non-root vertex bound for the theta and order-polynomial sweeps",
    )
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("theta", help="tree constant of a grafting-rooted tree")
    p.add_argument("tree", help="tree in the text grammar, e.g. 0(1(1))")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_theta)

    p = sub.add_parser("orderpoly", help="order polynomial of a forest poset")
    p.add_argument("--forest", required=True, help='forest in the text grammar, e.g. "[1(1),1]"')
    p.add_argument("--kind", choices=("strict", "weak"), default="weak")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_orderpoly)

    p = sub.add_parser("qsym", help="quasi-symmetric image of a forest")
    p.add_argument("--forest", required=True)
    _add_common(p)
    p.set_defaults(run=cmd_qsym)

    return parser


@memo.collector_paused
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
