"""The shared bench gate: spec table, exact baseline diff, runner."""

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.bench import (
    MAX_LISTED_DIFFERENCES,
    SPECS,
    BenchSpec,
    Output,
    diff_leaves,
    load_json,
    run,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "name", [n for n, s in SPECS.items() if s.baseline is not None]
)
def test_committed_baseline_matches_what_smoke_emits(name):
    """A schema bump without a re-baseline fails here, before any run."""
    spec = SPECS[name]
    baseline = load_json(str(REPO / spec.baseline))
    assert baseline["schema"] == spec.schema
    # The default ``--smoke`` run is seed 0 at smoke scale; a baseline of
    # another seed or scale would make the gate skip instead of compare.
    assert baseline["deterministic"]["smoke"] is True
    assert baseline["deterministic"]["seed"] == 0


class TestDiffLeaves:
    def test_equal_documents_have_no_differences(self):
        doc = {"a": [1, {"b": None}], "c": {}, "d": []}
        assert diff_leaves(doc, json.loads(json.dumps(doc))) == []

    def test_changed_added_and_missing_leaves_by_path(self):
        base = {"alerts": [{"at": 1.0, "kind": "page"}], "n": 2}
        cur = {"alerts": [{"at": 1.5, "labels": {}}], "n": 2}
        assert diff_leaves(base, cur) == [
            "alerts[0].at: 1.0 → 1.5",
            'alerts[0].kind: "page" → (missing)',
            "alerts[0].labels: (missing) → {}",
        ]

    def test_type_change_is_a_difference(self):
        assert diff_leaves({"x": 1}, {"x": 1.0}) == ["x: 1 → 1.0"]
        assert diff_leaves({"x": []}, {"x": {}}) == ["x: [] → {}"]

    def test_list_growth_is_listed(self):
        assert diff_leaves({"xs": [1]}, {"xs": [1, 2]}) == [
            "xs[1]: (missing) → 2"
        ]


def _toy_spec(artifact):
    """A spec whose builder returns copies of ``artifact`` (no simulation)."""
    calls = []

    def build(seed, smoke, workers):
        calls.append(workers)
        return json.loads(json.dumps(artifact(len(calls))))

    spec = BenchSpec(
        "toy", "repro.toy/1", build,
        check=lambda bench: [],
        format=lambda bench: "toy report",
        outputs=(Output("--out", "TOY.json", "toy artifact path"),),
        baseline="base.json",
        parallel=True,
    )
    return spec, calls


def _toy_artifact(value=1, seed=0):
    det = {"seed": seed, "smoke": True, "value": value, "digest": "d"}
    return {"schema": "repro.toy/1", "deterministic": det}


def _args(tmp_path, baseline, **overrides):
    values = dict(
        seed=0, smoke=True, workers=2, out=str(tmp_path / "TOY.json"),
        baseline=baseline,
    )
    values.update(overrides)
    return argparse.Namespace(**values)


class TestRunner:
    def test_matching_baseline_passes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_toy_artifact()))
        spec, calls = _toy_spec(lambda _: _toy_artifact())
        run(spec, _args(tmp_path, str(base)))
        out = capsys.readouterr().out
        assert "toy report" in out
        assert f"baseline diff vs {base}: ok" in out
        assert out.rstrip().endswith("toy smoke: ok")
        # First build fans out, the smoke rerun is serial.
        assert calls == [2, 1]
        assert json.loads((tmp_path / "TOY.json").read_text()) == (
            _toy_artifact()
        )

    def test_stale_baseline_fails_and_names_the_leaf(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_toy_artifact(value=1)))
        spec, _ = _toy_spec(lambda _: _toy_artifact(value=2))
        with pytest.raises(SystemExit) as exc:
            run(spec, _args(tmp_path, str(base)))
        message = str(exc.value.code)
        assert "value: 1 → 2" in message
        assert "re-baseline" in message

    def test_schema_mismatch_fails(self, tmp_path):
        stale = _toy_artifact()
        stale["schema"] = "repro.toy/0"
        base = tmp_path / "base.json"
        base.write_text(json.dumps(stale))
        spec, _ = _toy_spec(lambda _: _toy_artifact())
        with pytest.raises(SystemExit) as exc:
            run(spec, _args(tmp_path, str(base)))
        assert 'schema: "repro.toy/0" → "repro.toy/1"' in str(exc.value.code)

    def test_long_difference_lists_are_cut(self, tmp_path):
        n = MAX_LISTED_DIFFERENCES + 5
        wide = _toy_artifact()
        wide["deterministic"]["value"] = list(range(n))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_toy_artifact(value=[-1] * n)))
        spec, _ = _toy_spec(lambda _: wide)
        with pytest.raises(SystemExit) as exc:
            run(spec, _args(tmp_path, str(base)))
        message = str(exc.value.code)
        assert f"value[{MAX_LISTED_DIFFERENCES - 1}]:" in message
        assert f"value[{MAX_LISTED_DIFFERENCES}]:" not in message
        assert "… and 5 more" in message

    def test_other_seed_skips_the_diff(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_toy_artifact(value=9, seed=7)))
        spec, _ = _toy_spec(lambda _: _toy_artifact())
        run(spec, _args(tmp_path, str(base)))
        assert "baseline diff skipped:" in capsys.readouterr().out

    def test_missing_or_disabled_baseline(self, tmp_path, capsys):
        spec, _ = _toy_spec(lambda _: _toy_artifact())
        run(spec, _args(tmp_path, str(tmp_path / "absent.json")))
        assert "diff skipped" in capsys.readouterr().out
        run(spec, _args(tmp_path, ""))
        assert "diff" not in capsys.readouterr().out

    def test_nondeterministic_build_fails_smoke(self, tmp_path):
        spec, _ = _toy_spec(lambda call: _toy_artifact(value=call))
        with pytest.raises(SystemExit) as exc:
            run(spec, _args(tmp_path, ""))
        assert exc.value.code == "toy smoke: same seed, different artifact"

    def test_wall_clock_section_is_not_compared(self, tmp_path, capsys):
        def artifact(call):
            bench = _toy_artifact()
            bench["wall_clock"] = {"s": call}
            return bench

        spec, _ = _toy_spec(artifact)
        run(spec, _args(tmp_path, ""))
        assert "toy smoke: ok" in capsys.readouterr().out

    def test_failed_acceptance_check_fails_after_writing(self, tmp_path):
        spec, _ = _toy_spec(lambda _: _toy_artifact())
        spec = dataclasses.replace(spec, check=lambda b: ["value too small"])
        with pytest.raises(SystemExit) as exc:
            run(spec, _args(tmp_path, ""))
        assert "toy: acceptance gate failed" in exc.value.code
        assert "value too small" in exc.value.code
        assert (tmp_path / "TOY.json").exists()

    def test_part_that_cannot_be_built_is_a_listed_problem(self, tmp_path, capsys):
        def no_bundle(bench):
            raise ValueError("bench carries no flight bundle")

        spec, _ = _toy_spec(lambda _: _toy_artifact())
        spec = dataclasses.replace(
            spec,
            check=lambda b: ["incident: loss burst froze no flight bundle"],
            outputs=spec.outputs + (
                Output("--bundle", "BUNDLE.json", "bundle path", part=no_bundle),
            ),
        )
        bundle = tmp_path / "BUNDLE.json"
        with pytest.raises(SystemExit) as exc:
            run(spec, _args(tmp_path, "", bundle=str(bundle)))
        assert "toy: acceptance gate failed" in exc.value.code
        assert "incident: loss burst froze no flight bundle" in exc.value.code
        assert (
            f"{bundle} not written: bench carries no flight bundle"
            in exc.value.code
        )
        assert not bundle.exists()
        assert (tmp_path / "TOY.json").exists()
        assert capsys.readouterr().out.rstrip().endswith(
            f"wrote {tmp_path / 'TOY.json'}"
        )
