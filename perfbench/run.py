"""Host-time benchmark of the GBooster reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_session --seed 0 \\
        --seconds 20 --trace 0

One process runs one workload.  ``setup_s`` is the median time to import
the program in ``SETUP_REPEATS`` fresh interpreters plus the median of
``SETUP_REPEATS`` set-ups (input generation and cache warm-up).  Each
median is rescaled like the wall times below, by the median of the
calibration loops run before and after each of its timings.  Then the
workload repeats until ``--seconds`` have passed:

* ``--trace 0`` times every repeat with no tracing and reports the
  end-to-end metrics: the median wall ms per simulated second, set-up
  time, peak RSS, the fraction of simulated frames presented and the
  simulated FPS and response time.  The calibration loop of
  ``calibrate.py`` runs right before every repeat, and each repeat's wall
  time is rescaled to a host on which that loop takes
  ``REFERENCE_CALIBRATION_MS``: the host's speed drifts by 10-20% within
  a run, and the rescaled median moves about a third as much as the raw
  one.
* ``--trace 1`` interleaves untraced and traced passes over the variants
  (U, T, U, T, ...) and reports the per-layer metrics of the traced pass
  with the median wall time; ``trace.overhead_ratio`` is the median T / U
  over the pairs.  That pass's spans are written as a Chrome trace to
  ``perfbench/out/<workload>-seed<seed>.trace.json``.

Every repeat's output digest must equal the first repeat's (set-up's
steady session for replay_warm), the traced repeats' must equal the
untraced ones', and for a seed listed in ``references.json`` all must
equal the recorded reference.  A repeat that raises or fails the check
counts all its frames as failed.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (repeats) and
``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from calibrate import calibration_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
OUT_DIR = os.path.join(HERE, "out")

#: the calibration loop's typical time on the 2-core host where the first
#: numbers were recorded; ``wall_ms_per_sim_s`` is scaled to that speed
REFERENCE_CALIBRATION_MS = 45.0

SETUP_REPEATS = 5
MIN_REPEATS = 3
MIN_TRACED_PASSES = 2

#: ``(name, unit)`` of the end-to-end metrics, in report order
END_TO_END = (
    ("wall_ms_per_sim_s", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("presented_frac", "ratio"),
    ("sim_fps_median", "fps"),
    ("sim_response_ms", "ms"),
)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


class Checker:
    """The output check: repeat identity plus the recorded reference."""

    def __init__(self, workload, seed: int):
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)
        #: one recorded digest per variant, or None for an unrecorded seed
        self.reference = references.get(workload.name, {}).get(str(seed))
        self.expected = dict(workload.expected_digests)
        self.failures = []

    def check(self, label: str, variant: int, digest: str) -> bool:
        expected = self.expected.setdefault(variant, digest)
        ok = digest == expected and (
            self.reference is None or digest == self.reference[variant]
        )
        if not ok:
            self.failures.append(f"{label}: digest {digest[:16]}")
        return ok

    def describe(self) -> str:
        if self.reference is None:
            return "no recorded reference for this seed: repeat identity only"
        return "every repeat matches the recorded reference for this seed"


class Tally:
    """Repeats and frames attempted and failed over one run."""

    def __init__(self, workload, checker: Checker) -> None:
        self.workload = workload
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.frames = 0
        self.frames_failed = 0
        #: first checked outcome of each variant
        self.outcomes = {}

    def run(self, variant: int, label: str):
        """One repeat: returns ``(wall seconds, outcome or None)``.

        Garbage left by earlier repeats is collected first, so neither
        its collection time nor its memory lands in this repeat.
        """
        self.attempted += 1
        label = f"{label} {self.attempted} (variant {variant})"
        gc.collect()
        start = time.perf_counter()
        try:
            outcome = self.workload.repeat(variant)
        except Exception:  # a failed repeat is reported, not fatal
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.checker.failures.append(f"{label}: raised")
            self._fail(None)
            return wall, None
        wall = time.perf_counter() - start
        if self.checker.check(label, variant, outcome.digest):
            self.frames += outcome.frames_offered
            self.frames_failed += outcome.frames_failed
            self.outcomes.setdefault(variant, outcome)
        else:
            self._fail(outcome)
        return wall, outcome

    def _fail(self, outcome) -> None:
        self.failed += 1
        frames = outcome.frames_offered if outcome is not None else max(
            1, self.frames // max(1, self.attempted - self.failed)
        )
        self.frames += frames
        self.frames_failed += frames


def rescaled(seconds: float, calibration: float) -> float:
    """``seconds`` on a host where the calibration loop takes the reference."""
    return seconds * REFERENCE_CALIBRATION_MS / calibration


def bracketed(step) -> float:
    """Median rescaled seconds of ``SETUP_REPEATS`` calls of ``step``.

    ``step()`` returns the seconds it measured.  A single calibration loop
    moves by up to 20% on its own, so the median time is rescaled by the
    median of the loops run before the first call and after every call.
    """
    times, calibrations = [], [calibration_ms()]
    for _ in range(SETUP_REPEATS):
        times.append(step())
        calibrations.append(calibration_ms())
    return rescaled(statistics.median(times), statistics.median(calibrations))


def import_seconds() -> float:
    """Median rescaled seconds a fresh interpreter takes to import."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]\n"
        "start = time.perf_counter()\n"
        "import workloads\n"
        "print(time.perf_counter() - start)\n"
    )

    def step():
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=120,
        )
        return float(done.stdout)

    return bracketed(step)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, tally, deadline):
    """Untraced repeats in whole passes over the variants.

    Returns each repeat's wall seconds and the calibration loop's
    milliseconds measured right before it.
    """
    walls, calibrations = [], []
    while True:
        for variant in range(workload.variants):
            calibrations.append(calibration_ms())
            wall, _ = tally.run(variant, "repeat")
            walls.append(wall)
        if len(walls) >= MIN_REPEATS and time.perf_counter() >= deadline:
            return walls, calibrations


def end_to_end(workload, tally, walls, calibrations, setup_s):
    outcomes = list(tally.outcomes.values())

    def mean(attr):
        values = [getattr(o, attr) for o in outcomes]
        return statistics.fmean(values) if values else 0.0

    return {
        "wall_ms_per_sim_s": statistics.median(
            rescaled(wall, calibration)
            for wall, calibration in zip(walls, calibrations)
        ) * 1000.0 / workload.sim_seconds,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "presented_frac": 1.0 - tally.frames_failed / max(1, tally.frames),
        "sim_fps_median": mean("sim_fps_median"),
        "sim_response_ms": mean("sim_response_ms"),
    }


def traced_run(workload, tally, args, deadline):
    """Interleaved untraced / traced passes; returns per-layer metrics.

    A pass runs every variant once.  Self times and counters sum over the
    traced pass, so the counts are exact for the run's inputs.
    """
    import layers
    from layertrace import LayerTrace, repro_modules, write_layer_trace

    modules = repro_modules()
    trace = LayerTrace()
    sizes = layers.Sizes()
    sizes.attach(trace)
    sim_seconds = workload.sim_seconds * workload.variants
    ratios = []
    passes = []   # (wall, metrics, spans, spans dropped)
    while True:
        trace.reset()
        untraced = sum(
            tally.run(v, "untraced")[0] for v in range(workload.variants)
        )
        if sum(trace.calls):
            tally.checker.failures.append("wrappers called after uninstall")
        traced, counters = layers.traced_pass(
            trace, sizes, modules, workload.variants,
            lambda v: tally.run(v, "traced"),
        )
        ratios.append(traced / untraced)
        metrics = layers.layer_metrics(
            trace, sizes, counters, sim_seconds, traced
        )
        passes.append((traced, metrics, trace.spans, trace.spans_dropped))
        if len(passes) >= MIN_TRACED_PASSES and time.perf_counter() >= deadline:
            break
    passes.sort(key=lambda item: item[0])
    wall, metrics, spans, dropped = passes[(len(passes) - 1) // 2]
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    trace.spans, trace.spans_dropped = spans, dropped
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
    write_layer_trace(path, trace, metadata={
        "workload": args.workload,
        "seed": args.seed,
        "sim_seconds": sim_seconds,
        "traced_wall_s": wall,
    })
    print(f"chrome trace: {os.path.relpath(path, ROOT)}")
    return metrics


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload_cls = workloads.WORKLOADS[args.workload]

    built = []

    def setup():
        built.clear()
        gc.collect()
        workload = workload_cls()
        start = time.perf_counter()
        workload.setup(args.seed)
        seconds = time.perf_counter() - start
        built.append(workload)
        return seconds

    setup_s = bracketed(setup)
    workload = built[0]
    workload.settle()
    if not args.trace:
        setup_s += import_seconds()

    checker = Checker(workload, args.seed)
    tally = Tally(workload, checker)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        import layers

        metrics = traced_run(workload, tally, args, deadline)
        units = dict(layers.metric_units())
    else:
        walls, calibrations = timed_run(workload, tally, deadline)
        metrics = end_to_end(workload, tally, walls, calibrations, setup_s)
        units = dict(END_TO_END)
        print(
            f"repeats: {len(walls)} over {workload.variants} variant(s), "
            f"{workload.sim_seconds:g} simulated s each; unscaled median "
            f"{statistics.median(walls) * 1000.0 / workload.sim_seconds:.4f}"
            f" ms per simulated s; calibration loop median "
            f"{statistics.median(calibrations):.2f} ms"
        )

    print(f"output check: {checker.describe()}")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": not checker.failures and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
