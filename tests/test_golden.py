"""Golden CLI outputs: stdout, stderr and exit code of `cli.main`, byte for byte.

Each case in ``tests/golden/cases.json`` names an argument list and the exit
code it gave when the goldens were written; its stdout and stderr are in
``tests/golden/<name>.out`` and ``<name>.err``.  To rewrite the files after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from treehopf.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES_FILE = GOLDEN / "cases.json"

# name -> argument list; the exit code is recorded when the goldens are written.
CASES = {
    **{
        f"expand-{s}": ["expand", s, "--labels", "1,2"]
        for s in ("f", "g", "d", "h", "m")
    },
    "expand-d-json": ["expand", "d", "--labels", "1", "--max-weight", "6", "--format", "json"],
    "expand-d-234-json": [
        "expand", "d", "--labels", "2,3,4", "--max-weight", "12", "--format", "json",
    ],
    "expand-d-1-8-json": ["expand", "d", "--labels", "1", "--max-weight", "8", "--format", "json"],
    "expand-h-234": ["expand", "h", "--labels", "2,3,4", "--max-weight", "12"],
    "enumerate-bplus": ["enumerate", "--labels", "1,2", "--max-weight", "3"],
    "enumerate-forests": ["enumerate", "--kind", "forests", "--labels", "1,2", "--max-weight", "4"],
    "enumerate-trees-json": [
        "enumerate", "--kind", "trees", "--labels", "1,2,3", "--max-weight", "3",
        "--format", "json",
    ],
    "theta-text": ["theta", "0(1(1),1)"],
    "theta-json": ["theta", "0(1(1(2)),2,1(1))", "--format", "json"],
    "theta-not-grafting-root": ["theta", "1(1)"],
    "theta-bernoulli-10": ["theta", "0(1(1,1,1,1,1,1,1,1,1,1))"],
    "orderpoly-weak": ["orderpoly", "--forest", "[1(1,1),1]"],
    "orderpoly-strict-json": [
        "orderpoly", "--forest", "[1(1,1),1]", "--kind", "strict", "--format", "json",
    ],
    "qsym-text": ["qsym", "--forest", "[1(1(2)),1]", "--labels", "1,2", "--max-weight", "5"],
    "qsym-json": ["qsym", "--forest", "[1(1),2]", "--labels", "1,2", "--format", "json"],
    "qsym-label-outside": ["qsym", "--forest", "[1(2)]"],
    "qsym-grafting-label": ["qsym", "--forest", "[0(1)]"],
    "verify-all": ["verify", "all"],
    "verify-all-json": ["verify", "all", "--format", "json"],
    "verify-theta-8-json": ["verify", "theta", "--max-vertices", "8", "--format", "json"],
    "verify-orderpoly-8-json": ["verify", "orderpoly", "--max-vertices", "8", "--format", "json"],
    "verify-ncs-234-json": [
        "verify", "ncs", "--labels", "2,3,4", "--max-weight", "12", "--format", "json",
    ],
    "verify-duality-12-6-json": [
        "verify", "duality", "--labels", "1,2", "--max-weight", "6", "--format", "json",
    ],
    "verify-hopf-12-6-json": [
        "verify", "hopf", "--labels", "1,2", "--max-weight", "6", "--format", "json",
    ],
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    recorded = json.loads(_read(CASES_FILE))[name]
    assert recorded["argv"] == CASES[name]
    code, out, err = run_cli(CASES[name])
    assert code == recorded["exit"]
    assert out == _read(GOLDEN / f"{name}.out")
    assert err == _read(GOLDEN / f"{name}.err")


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    recorded = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = run_cli(argv)
        recorded[name] = {"argv": argv, "exit": code}
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{name}.err").write_bytes(err.encode("utf-8"))
    CASES_FILE.write_bytes((json.dumps(recorded, indent=2, sort_keys=True) + "\n").encode("utf-8"))


if __name__ == "__main__":
    write_goldens()
