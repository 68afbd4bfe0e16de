"""Self-tests of the benchmark: wrapper coverage, counters, output check.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
The workloads run here at a fraction of their benchmark size.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import layers
import workloads
from layertrace import LayerTrace, repro_modules, write_layer_trace
from repro.obs.export import validate_chrome_trace
from repro.sim.kernel import Interrupt, Simulator

HERE = os.path.dirname(os.path.abspath(__file__))

#: per-layer counter -> (workload that must drive it, workloads where it is 0)
STRESS_AND_CONTROL = {
    "sim.events": ("fleet_crash", ()),
    "fleet.frames": (
        "fleet_crash", ("paper_session", "planner_session", "replay_warm"),
    ),
    "fleet.placements": (
        "fleet_crash", ("paper_session", "planner_session", "replay_warm"),
    ),
    "apps.commands_built": ("paper_session", ("fleet_crash",)),
    "gles.key_calls": ("paper_session", ("fleet_crash",)),
    "gles.commands_serialized": ("paper_session", ("fleet_crash",)),
    "gles.commands_executed": ("replay_warm", ("fleet_crash",)),
    "codec.frames": ("paper_session", ("fleet_crash",)),
    "codec.lz77_calls": ("planner_session", ("fleet_crash",)),
    "core.frames_submitted": ("paper_session", ("fleet_crash",)),
    "net.sends": ("paper_session", ("fleet_crash",)),
    "switching.decisions": ("paper_session", ("fleet_crash",)),
    "plan.probes": (
        "planner_session", ("paper_session", "fleet_crash", "replay_warm"),
    ),
    "plan.commits": (
        "planner_session", ("paper_session", "fleet_crash", "replay_warm"),
    ),
    "replay.classifications": (
        "replay_warm", ("paper_session", "planner_session", "fleet_crash"),
    ),
    "obs.spans": ("fleet_crash", ()),
    "obs.telemetry_observations": (
        "planner_session", ("paper_session", "fleet_crash", "replay_warm"),
    ),
    "obs.causal_events": (
        "planner_session", ("paper_session", "fleet_crash", "replay_warm"),
    ),
    "check.sweeps": (
        "replay_warm", ("paper_session", "planner_session", "fleet_crash"),
    ),
    "check.digests": (
        "replay_warm", ("paper_session", "planner_session", "fleet_crash"),
    ),
}


@pytest.fixture(scope="module")
def modules():
    return repro_modules()


@pytest.fixture(scope="module")
def small_workloads():
    """The four workloads at a fraction of their size, one variant each."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "SESSION_MS", 2_000.0)
        mp.setattr(workloads, "FLEET_SESSIONS", 32)
        mp.setattr(workloads, "FLEET_SESSION_MS", 2_000.0)
        built = {}
        for name, cls in workloads.WORKLOADS.items():
            workload = cls()
            workload.variants = 1
            workload.setup(0)
            workload.settle()
            built[name] = workload
        yield built


@pytest.fixture(scope="module")
def traced(small_workloads, modules):
    """Per workload: untraced outcome, traced outcome, metrics, trace."""
    out = {}
    for name, workload in small_workloads.items():
        untraced = workload.repeat(0)
        trace = LayerTrace()
        sizes = layers.Sizes()
        sizes.attach(trace)
        outcomes = []

        def run_variant(variant):
            start = time.perf_counter()
            outcome = workload.repeat(variant)
            outcomes.append(outcome)
            return time.perf_counter() - start, outcome

        wall, counters = layers.traced_pass(
            trace, sizes, modules, 1, run_variant
        )
        metrics = layers.layer_metrics(
            trace, sizes, counters, workload.sim_seconds, wall
        )
        out[name] = (untraced, outcomes[0], metrics, trace)
    return out


def test_every_wrapped_name_resolves(modules):
    import repro.codec.lz77
    import repro.codec.pipeline

    original = repro.codec.lz77.compress
    trace = LayerTrace()
    trace.install(modules)
    try:
        # The benchmark's own call sites count too.
        assert trace.unresolved(modules + [workloads]) == []
        # pipeline.py imports ``compress`` by name: its binding must be
        # the wrapper too, or every compression call would go unseen.
        assert repro.codec.pipeline.compress is not original
        assert repro.codec.pipeline.compress is repro.codec.lz77.compress
        assert repro.codec.pipeline.compress.__wrapped__ is original
    finally:
        trace.uninstall()
    assert repro.codec.pipeline.compress is original
    assert repro.codec.lz77.compress is original


@pytest.mark.parametrize("name, layer, function", [
    ("paper_session", "core", "session.run_offload_session"),
    ("replay_warm", "core", "session.run_offload_session"),
    ("fleet_crash", "experiments", "fleet.run_fleet_point"),
])
def test_workload_entry_point_is_traced(traced, name, layer, function):
    """The body of a session or fleet point is charged to its own layer."""
    trace = traced[name][3]
    assert trace.count(layer, function) == 1
    assert trace.self_s[trace.key_id(layer, function)] > 0


def test_counted_functions_are_wrapped(modules):
    trace = LayerTrace()
    trace.install(modules)
    trace.uninstall()
    wrapped = set(trace.keys)
    missing = [key for key in layers.COUNTED if key not in wrapped]
    assert missing == []


def test_every_layer_directory_is_reported(modules):
    found = {m.__name__.split(".")[1] for m in modules if "." in m.__name__}
    assert found == set(layers.LAYERS)


def test_process_proxy_keeps_kernel_semantics(modules):
    """Interrupts, kills and return values pass through the proxy."""

    def scenario():
        sim = Simulator(seed=3)
        log = []

        def sleeper():
            try:
                yield 50.0
            except Interrupt as exc:
                log.append(("interrupted", sim.now, exc.cause))
            yield 5.0
            return "done"

        def victim():
            try:
                yield 100.0
            finally:
                log.append(("closed", sim.now))

        def driver(target, doomed):
            yield 10.0
            target.interrupt("poke")
            doomed.kill()
            value = yield target
            log.append(("joined", sim.now, value))

        target = sim.spawn(sleeper())
        doomed = sim.spawn(victim(), name="victim")
        sim.spawn(driver(target, doomed))
        sim.run()
        return log, target.name, doomed.name

    untraced = scenario()
    trace = LayerTrace()
    trace.install(modules)
    try:
        traced = scenario()
    finally:
        trace.uninstall()
    assert traced == untraced
    assert trace.process_resumes() > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced(traced, name):
    untraced, traced_outcome, _metrics, _trace = traced[name]
    assert traced_outcome.digest == untraced.digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_add_up_to_the_traced_wall(traced, small_workloads, name):
    _u, _t, metrics, trace = traced[name]
    per_sim_s = 1000.0 / small_workloads[name].sim_seconds
    total = sum(metrics[f"{layer}.self_ms"] for layer in layers.LAYERS)
    assert total == pytest.approx(trace.top_level_s * per_sim_s, rel=1e-9)
    shares = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS)
    assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0)
    assert set(metrics) == {name for name, _unit in layers.metric_units()}


@pytest.mark.parametrize("counter", sorted(STRESS_AND_CONTROL))
def test_counter_stressed_and_bypassed(traced, counter):
    stress, controls = STRESS_AND_CONTROL[counter]
    assert traced[stress][2][counter] > 0
    for control in controls:
        assert traced[control][2][counter] == 0, control


def test_key_calls_per_command_near_two(traced):
    ratio = traced["paper_session"][2]["gles.key_calls_per_command"]
    assert 1.9 < ratio < 2.0


def test_chrome_trace_has_one_track_per_layer(traced, tmp_path):
    _u, _t, _metrics, trace = traced["paper_session"]
    path = tmp_path / "trace.json"
    written = write_layer_trace(str(path), trace)
    assert validate_chrome_trace(written) == []
    tracks = {
        event["args"]["name"]
        for event in written["traceEvents"]
        if event["name"] == "thread_name"
    }
    assert {"sim", "gles", "codec", "net", "core"} <= tracks
    assert tracks <= set(layers.LAYERS)
    assert json.loads(path.read_text())["otherData"]["clock"] == (
        "host wall time"
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_session",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


def test_benchmark_json_lists_what_the_run_prints():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == (
        layers.metric_units()
    )
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY


def test_references_cover_every_variant():
    import record_references

    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)
    assert set(references) == set(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        for seed in record_references.SEEDS:
            assert len(references[name][str(seed)]) == cls.variants
