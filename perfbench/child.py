"""One fresh interpreter of the benchmark: python3 child.py MODE WORKLOAD [SPANS]

MODE is one of
  setup  import treehopf and stop;
  cold   one pass with empty memo tables;
  run    one cold pass, then the workload's warm passes, each timed;
  trace  one cold pass with every public function of treehopf wrapped,
         writing the spans to SPANS.

treehopf is imported first, so that the time at which the import finished
can be compared with the time run.py started this process (both read the
system-wide monotonic clock).  A calibration follows the import and every
timed pass (see calibrate.py), so calibrations[i] and calibrations[i + 1]
bracket pass i.  The last line printed is one JSON object.
"""

import time

import treehopf
from treehopf import ck, cli, duality, gl, linear, ncs, nsym, orderpoly, series, trees  # noqa: F401

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from calibrate import Calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Passes:
    """Counts passes and collects what went wrong in them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> float | None:
        """Time one pass, then check its output; None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.workload.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        elapsed = time.perf_counter() - start
        found = self.workload.check(out)
        if found:
            self.failed += 1
            self.problems += found
        return elapsed


def main(argv: list[str]) -> dict:
    mode, name = argv[0], argv[1]
    calibrate = Calibration()
    calibrations = [calibrate()]
    result = {"imported_at": IMPORTED_AT, "calibrations": calibrations}
    if mode == "setup":
        return result
    workload = WORKLOADS[name]
    passes = Passes(workload)

    def timed() -> float | None:
        elapsed = passes.run()
        calibrations.append(calibrate())
        return elapsed

    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(treehopf)
        tracer.install()
        try:
            result["cold_s"] = passes.run()
        finally:
            tracer.uninstall()
        calibrations.append(calibrate())
        tracer.write(argv[2])
        result["layers"] = tracer.metrics()
    else:
        result["cold_s"] = timed()
        if mode == "run":
            result["warm_s"] = [timed() for _ in range(workload.warm_passes)]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if workload.final_check is not None:
                passes.problems += workload.final_check()
    result.update(attempted=passes.attempted, failed=passes.failed, problems=passes.problems)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
