"""Benchmark of treehopf: python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from src/).
Each measurement is a fresh interpreter started by this script, one at a
time; see README.md for the workloads, the metrics and how they were chosen.
Times are scaled to a reference speed of the core, see calibrate.py.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with every sample, the git
revision and the Python version, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_CHILDREN = 5  # import-only interpreters at the start of each run
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # A memo cap silently changes the program being measured.
    env.pop("TREEHOPF_MEMO_LIMIT", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(mode: str, workload: str, deadline: float, *extra: str) -> dict:
    """Start one child interpreter, wait for it, and return its record."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, *extra]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out after {timeout:.0f} s"}
    ended = time.perf_counter()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} child exited with {proc.returncode}"}
    record = json.loads(lines[-1])
    record["setup_raw_s"] = record.pop("imported_at") - started
    record["wall_s"] = ended - started
    scale_times(record)
    return record


def scale_times(record: dict) -> None:
    """Add the times scaled to the reference speed (see calibrate.py); the
    raw ones are kept under *_raw_s.  Pass i lies between calibrations i and
    i + 1; the import precedes calibration 0."""
    cal = record["calibrations"]
    record["setup_s"] = scaled(record["setup_raw_s"], cal[:1])
    if "cold_s" in record:
        record["cold_raw_s"] = cold = record["cold_s"]
        record["cold_s"] = None if cold is None else scaled(cold, cal[0:2])
    if "warm_s" in record:
        record["warm_raw_s"] = warm = record["warm_s"]
        record["warm_s"] = [
            None if w is None else scaled(w, cal[i + 1 : i + 3]) for i, w in enumerate(warm)
        ]
    if "layers" in record:
        record["layers_raw"] = layers = record["layers"]
        record["layers"] = {
            k: scaled(v, cal[0:2]) if k.endswith("_s") else v for k, v in layers.items()
        }


class Tally:
    """Pass counts summed over the children of one run.

    A pass that raised, or whose child did not finish, counts as failed.  A
    wrong output counts as failed and also lands in ``problems``, which makes
    the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    def add(self, record: dict, passes_if_lost: int) -> None:
        if "error" in record:
            self.attempted += passes_if_lost
            self.failed += passes_if_lost
            self.errors.append(record["error"])
            return
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.problems += record["problems"]


def summary(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(workload, seconds: int, deadline: float, tally: Tally) -> tuple[dict, list]:
    """Untraced run: import-only children, then whole cold+warm children
    while the next one is expected to end within the run length."""
    per_child = 1 + workload.warm_passes
    start = time.perf_counter()
    setups = [spawn("setup", workload.name, deadline) for _ in range(SETUP_CHILDREN)]
    runs: list[dict] = []
    while True:
        record = spawn("run", workload.name, deadline)
        tally.add(record, per_child)
        runs.append(record)
        if "error" in record:
            break
        typical = statistics.median(r["wall_s"] for r in runs if "wall_s" in r)
        if time.perf_counter() - start + typical > seconds:
            break
    good = [r for r in runs if "error" not in r]
    metrics = {
        "setup_s": (summary([r.get("setup_s") for r in setups + runs]), "s"),
        "cold_s": (summary([r["cold_s"] for r in good]), "s"),
        "warm_s": (summary([w for r in good for w in r["warm_s"]]), "s"),
        "peak_rss_mb": (summary([r["peak_rss_mb"] for r in good]), "MB"),
    }
    return metrics, setups + runs


def measure_traced(workload, seconds: int, deadline: float, tally: Tally) -> tuple[dict, list]:
    """Traced run: pairs of an untraced and a traced cold pass, each in its
    own interpreter.  Counts must agree across the traced children."""
    spans = RESULTS / f"{workload.name}.spans"
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        for records, mode in ((plain, "cold"), (traced, "trace")):
            record = spawn(mode, workload.name, deadline, str(spans))
            tally.add(record, 1)
            records.append(record)
        if "error" in plain[-1] or "error" in traced[-1]:
            break
        pair = plain[-1]["wall_s"] + traced[-1]["wall_s"]
        if time.perf_counter() - start + pair > seconds:
            break
    traced_ok = [r for r in traced if "error" not in r]
    layers = [r["layers"] for r in traced_ok]
    metrics: dict[str, tuple] = {}
    for key in layers[0] if layers else ():
        if key.endswith("_s"):
            metrics[key] = (statistics.median(layer[key] for layer in layers), "s")
        else:
            values = {layer[key] for layer in layers}
            if len(values) > 1:
                tally.problems.append(f"{key} differs between traced passes: {sorted(values)}")
            metrics[key] = (layers[0][key], "count")
    plain_cold = summary([r.get("cold_s") for r in plain])
    traced_cold = summary([r["cold_s"] for r in traced_ok])
    if plain_cold is not None and traced_cold is not None:
        metrics["trace.overhead_s"] = (traced_cold - plain_cold, "s")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "treehopf" / "__init__.py").is_file():
        print(f"error: no treehopf sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("TREEHOPF_MEMO_LIMIT", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.perf_counter() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tally = Tally()
    measure_fn = measure_traced if args.trace else measure
    metrics, children = measure_fn(WORKLOADS[args.workload], args.seconds, deadline, tally)
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing or not metrics:
        tally.errors.append(f"no value for {missing or 'any metric'}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "python": platform.python_version(),
        "children": children,
        "problems": tally.problems,
        "errors": tally.errors,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value} {unit}")
    for problem in tally.problems + tally.errors:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
