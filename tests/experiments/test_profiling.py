"""The profiling harness: artifact schema, determinism, trace coverage."""

import json

import pytest

from repro.experiments.bench import SPECS, validate, write_json
from repro.experiments.profiling import (
    BENCH_SCHEMA,
    MIN_TRACE_CATEGORIES,
    REQUIRED_STAGES,
    bench_session,
    run_profile,
)
from repro.obs.export import validate_chrome_trace

# Runs the wall-clock micro-benches; numbers are machine-dependent even
# though the assertions only gate schema and determinism.
pytestmark = pytest.mark.bench


def validate_bench(bench):
    return validate(SPECS["profile"], bench)


@pytest.fixture(scope="module")
def smoke_bench(tmp_path_factory):
    trace = tmp_path_factory.mktemp("profile") / "trace.json"
    return run_profile(seed=0, smoke=True, trace_path=str(trace)), trace


class TestArtifactSchema:
    def test_smoke_run_validates_clean(self, smoke_bench):
        bench, _ = smoke_bench
        assert validate_bench(bench) == []
        assert bench["schema"] == BENCH_SCHEMA

    def test_required_stages_have_percentiles(self, smoke_bench):
        bench, _ = smoke_bench
        stages = bench["deterministic"]["session"]["pipeline_stages"]
        for stage in REQUIRED_STAGES:
            for key in ("count", "p50", "p95", "p99"):
                assert key in stages[stage], (stage, key)
        # The session must actually exercise the client-side stages.
        assert stages["intercept"]["count"] > 0
        assert stages["encode"]["count"] > 0
        assert stages["present"]["count"] > 0
        assert stages["execute"]["count"] > 0

    def test_wall_clock_benches_present_but_not_digested(self, smoke_bench):
        bench, _ = smoke_bench
        wall = bench["wall_clock"]
        assert wall["kernel"]["events_per_s"] > 0
        assert wall["serialization"]["bytes"] > 0
        assert wall["codec"]["frames"] > 0
        assert "wall_clock" not in bench["deterministic"]

    def test_fleet_trace_loads_and_keeps_categories(self, smoke_bench):
        bench, trace_path = smoke_bench
        cats = bench["deterministic"]["fleet"]["span_categories"]
        assert len(cats) >= MIN_TRACE_CATEGORIES
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []

    def test_validate_flags_drift(self, smoke_bench):
        bench, _ = smoke_bench
        broken = json.loads(json.dumps(bench))
        broken["schema"] = "other/2"
        del broken["deterministic"]["session"]["pipeline_stages"]["encode"]
        broken["deterministic"]["fleet"]["span_categories"] = ["fleet.queue"]
        del broken["wall_clock"]["kernel"]
        problems = validate_bench(broken)
        assert any("schema" in p for p in problems)
        assert any("'encode'" in p for p in problems)
        assert any("categories" in p for p in problems)
        assert any("kernel" in p for p in problems)

    def test_write_round_trips(self, smoke_bench, tmp_path):
        bench, _ = smoke_bench
        out = tmp_path / "bench.json"
        write_json(str(out), bench)
        assert json.loads(out.read_text()) == bench


class TestDeterminism:
    def test_same_seed_same_session_section(self):
        a, _ = bench_session(duration_ms=1_000.0, seed=3)
        b, _ = bench_session(duration_ms=1_000.0, seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a, _ = bench_session(duration_ms=1_000.0, seed=3)
        b, _ = bench_session(duration_ms=1_000.0, seed=4)
        assert a != b
