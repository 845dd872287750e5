"""One workload pass in a fresh process.

Reads a job from stdin, {"workload", "configs", "trace", "setup_only"}, and
prints one JSON line: setup_s, verdict_s, peak_rss_mb, calib_s, the verdict
window and the host probes (see HostProbe), the counts of passed and of failed
checks by name and, when traced, the span summary.
kdeform is imported from the source tree next to this directory, after the
host calibration, so that setup_s covers the import.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import threading
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


PROBE_ITERATIONS = 100
PROBE_INTERVAL_S = 0.02
CALIBRATION_PROBES = 20
# bound before a traced pass wraps Fraction, so that probes are not counted
_ADD, _MUL = Fraction.__add__, Fraction.__mul__


def probe() -> float:
    """Seconds for a fixed Fraction loop that does not touch kdeform."""
    collecting = gc.isenabled()
    gc.disable()  # a collection here would time kdeform's heap, not the host
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_ITERATIONS + 1):
        acc = _MUL(_ADD(acc, Fraction(1, i)), Fraction(i, i + 1))
    seconds = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return seconds


class HostProbe(threading.Thread):
    """Runs probe() every PROBE_INTERVAL_S beside the workload and keeps
    (start, seconds) of each, so the harness can tell how fast the host ran
    during any interval of the pass."""

    def __init__(self, origin: float):
        super().__init__(daemon=True)
        self.origin = origin
        self.samples = []
        self._done = threading.Event()

    def sample(self):
        start = time.perf_counter() - self.origin
        self.samples.append([start, probe()])

    def run(self):
        while not self._done.wait(PROBE_INTERVAL_S):
            self.sample()

    def stop(self) -> list:
        self._done.set()
        self.join()
        return self.samples


def main() -> int:
    job = json.load(sys.stdin)
    origin = time.perf_counter()
    host = HostProbe(origin)
    for _ in range(CALIBRATION_PROBES):
        host.sample()
    out = {"calib_s": sum(d for _, d in host.samples)}
    host.start()
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kdeform

    if Path(kdeform.__file__).resolve().parent != SRC / "kdeform":
        raise SystemExit(f"kdeform was imported from {kdeform.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("setup"):
        prepared = workloads.prepare(kdeform, job["configs"])
    out["setup_s"] = time.perf_counter() - t0

    if not job["setup_only"]:
        t1 = time.perf_counter()
        with span("verdict"):
            reports = workloads.run(kdeform, prepared, span)
            with span("output.report_json"):
                text = json.dumps([r.to_json() for r in reports], indent=2)
        out["verdict_s"] = time.perf_counter() - t1
        out["verdict_window"] = [t1 - origin, t1 - origin + out["verdict_s"]]
        out["report_bytes"] = len(text)
        out["passed"], out["failed"] = workloads.count_checks(reports)
    out["probes"] = host.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
