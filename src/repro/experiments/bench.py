"""One gate for every benchmark command: spec, envelope, baseline, runner.

``profile``, ``slo``, ``replay``, ``capacity``, ``planner`` and
``postmortem`` each build a JSON artifact whose ``deterministic``
section is a pure function of the seed and carries a sha256 digest over
itself.  Each is described here by one :class:`BenchSpec` — schema id,
``run_*`` builder, the experiment module's semantic acceptance checks
and the artifacts to write — and run by one :func:`run`:

1. build the artifact and validate it (envelope + the module's checks);
2. write every artifact file and print the module's report;
3. under ``--smoke``, build it again serially and demand the same bytes
   (everything but the ``wall_clock`` section, the only host-time part);
4. diff the ``deterministic`` section against the committed baseline.

The baseline diff is exact.  A baseline of another seed or scale is not
comparable and the diff is skipped; a baseline of another schema, or
any differing leaf, fails the run and lists the differing JSON paths.
Committed digests are the correctness oracle: a change that moves one
must re-baseline (``docs/TESTING.md``, "Re-baselining").
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    capacity,
    planner,
    postmortem,
    profiling,
    replay,
    slo,
)

#: differing leaf paths listed when a run does not match its baseline
MAX_LISTED_DIFFERENCES = 20

Artifact = Dict[str, Any]


@dataclass(frozen=True)
class Output:
    """One file a bench command writes, named by a CLI flag."""

    flag: str
    default: str
    help: str
    #: the part of the artifact written to the file; ``None`` means the
    #: builder writes the file itself and takes its path as ``build_arg``
    part: Optional[Callable[[Artifact], Any]] = lambda bench: bench
    build_arg: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class BenchSpec:
    """One artifact command: how to build, check, print and write it."""

    name: str
    schema: str
    #: ``run_*_bench(seed=, smoke=, [workers=], [<build_arg>=])``
    build: Callable[..., Artifact]
    #: semantic acceptance checks on an artifact whose envelope is valid
    check: Callable[[Artifact], List[str]]
    format: Callable[[Artifact], str]
    #: the ``--out`` artifact first, then any side artifacts
    outputs: Tuple[Output, ...]
    #: committed baseline (``--baseline`` default); ``None``: no diff
    baseline: Optional[str] = None
    #: the builder fans jobs across ``--workers`` processes
    parallel: bool = False


SPECS: Dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            "profile", profiling.BENCH_SCHEMA, profiling.run_profile,
            profiling.check_bench, profiling.format_bench,
            (
                Output("--out", "BENCH_PIPELINE.json",
                       "benchmark artifact path"),
                Output("--trace-out", "BENCH_TRACE.json",
                       "Chrome trace-event export path",
                       part=None, build_arg="trace_path"),
            ),
        ),
        BenchSpec(
            "slo", slo.BENCH_SLO_SCHEMA, slo.run_slo_bench,
            slo.check_bench, slo.format_bench,
            (Output("--out", "BENCH_SLO.json",
                    "SLO benchmark artifact path"),),
            baseline="benchmarks/baselines/BENCH_SLO.json",
            parallel=True,
        ),
        BenchSpec(
            "replay", replay.BENCH_REPLAY_SCHEMA, replay.run_replay_bench,
            replay.check_bench, replay.format_bench,
            (Output("--out", "BENCH_REPLAY.json",
                    "replay benchmark artifact path"),),
            baseline="benchmarks/baselines/BENCH_REPLAY.json",
        ),
        BenchSpec(
            "capacity", capacity.BENCH_CAPACITY_SCHEMA,
            capacity.run_capacity_bench, capacity.check_bench,
            capacity.format_bench,
            (Output("--out", "BENCH_CAPACITY.json",
                    "capacity benchmark artifact path"),),
            baseline="benchmarks/baselines/BENCH_CAPACITY.json",
            parallel=True,
        ),
        BenchSpec(
            "planner", planner.BENCH_PLANNER_SCHEMA,
            planner.run_planner_bench, planner.check_bench,
            planner.format_bench,
            (Output("--out", "BENCH_PLANNER.json",
                    "planner benchmark artifact path"),),
            baseline="benchmarks/baselines/BENCH_PLANNER.json",
            parallel=True,
        ),
        BenchSpec(
            "postmortem", postmortem.BENCH_POSTMORTEM_SCHEMA,
            postmortem.run_postmortem_bench, postmortem.check_bench,
            postmortem.format_bench,
            (
                Output("--out", "BENCH_POSTMORTEM.json",
                       "postmortem benchmark artifact path",
                       part=postmortem.without_chrome),
                Output("--bundle-out", "POSTMORTEM_BUNDLE.json",
                       "frozen flight-bundle artifact path",
                       part=postmortem.flight_bundle),
                Output("--trace-out", "POSTMORTEM_TRACE.json",
                       "merged Chrome trace (flow events) path",
                       part=postmortem.chrome_trace),
            ),
            baseline="benchmarks/baselines/BENCH_POSTMORTEM.json",
            parallel=True,
        ),
    )
}


# -- artifact files ----------------------------------------------------------


def write_json(path: str, obj: Any) -> None:
    """The one artifact encoding: sorted keys, one-space indent, newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- validation --------------------------------------------------------------


def validate(spec: BenchSpec, bench: Any) -> List[str]:
    """Envelope + semantic gate for one artifact; empty list == valid."""
    if not isinstance(bench, dict):
        return [f"top level must be an object, got {type(bench).__name__}"]
    problems: List[str] = []
    if bench.get("schema") != spec.schema:
        problems.append(f"'schema' must be {spec.schema!r}")
    if not isinstance(bench.get("deterministic"), dict):
        return problems + ["missing 'deterministic' section"]
    if not isinstance(bench["deterministic"].get("digest"), str):
        problems.append("missing 'deterministic.digest'")
    return problems + spec.check(bench)


# -- the baseline gate -------------------------------------------------------

_MISSING = object()


def _leaves(node: Any, path: Tuple = ()) -> Dict[Tuple, Any]:
    """Every JSON leaf by path; empty objects and lists are leaves too."""
    if isinstance(node, dict) and node:
        out: Dict[Tuple, Any] = {}
        for key in sorted(node):
            out.update(_leaves(node[key], path + (key,)))
        return out
    if isinstance(node, list) and node:
        out = {}
        for i, item in enumerate(node):
            out.update(_leaves(item, path + (i,)))
        return out
    return {path: node}


def _path_text(path: Tuple) -> str:
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else f".{part}"
    return text.lstrip(".") or "(root)"


def _value_text(value: Any) -> str:
    return "(missing)" if value is _MISSING else json.dumps(value)


def diff_leaves(base: Any, cur: Any) -> List[str]:
    """``path: base → cur`` for every leaf that differs, in path order."""
    base_leaves, cur_leaves = _leaves(base), _leaves(cur)
    paths = list(base_leaves)
    paths += [p for p in cur_leaves if p not in base_leaves]
    out = []
    for path in paths:
        a = base_leaves.get(path, _MISSING)
        b = cur_leaves.get(path, _MISSING)
        if _value_text(a) != _value_text(b):
            out.append(f"{_path_text(path)}: {_value_text(a)} → "
                       f"{_value_text(b)}")
    return out


def diff_against_baseline(
    current: Artifact, baseline: Artifact
) -> Tuple[List[str], Optional[str]]:
    """Compare an artifact's ``deterministic`` section with the baseline's.

    Returns ``(differences, skip_reason)``.  A non-``None`` skip reason
    means the baseline is of another seed or scale and is not
    comparable.  Otherwise any difference — a schema mismatch or a
    differing, added or missing leaf — is listed and fails the gate.
    """
    # Round-trip the run through JSON so it compares as it would be read
    # back from disk (tuples as lists, non-string keys as strings).
    cur = json.loads(json.dumps(current.get("deterministic", {})))
    base = baseline.get("deterministic", {})
    if (cur.get("seed"), cur.get("smoke")) != (
        base.get("seed"), base.get("smoke")
    ):
        return [], (
            f"baseline is seed={base.get('seed')} smoke={base.get('smoke')}, "
            f"run is seed={cur.get('seed')} smoke={cur.get('smoke')} — "
            "not comparable"
        )
    if baseline.get("schema") != current.get("schema"):
        return [
            f"schema: {json.dumps(baseline.get('schema'))} → "
            f"{json.dumps(current.get('schema'))}"
        ], None
    return diff_leaves(base, cur), None


def _gate_baseline(spec: BenchSpec, bench: Artifact, path: str) -> None:
    if not path:
        return
    if not os.path.exists(path):
        print(f"no baseline at {path} — diff skipped")
        return
    differences, skip = diff_against_baseline(bench, load_json(path))
    if skip is not None:
        print(f"baseline diff skipped: {skip}")
        return
    if differences:
        shown = differences[:MAX_LISTED_DIFFERENCES]
        if len(differences) > len(shown):
            shown.append(f"… and {len(differences) - len(shown)} more")
        raise SystemExit(
            f"{spec.name}: run does not match the baseline {path} "
            f"({len(differences)} differing leaves):\n  "
            + "\n  ".join(shown)
            + "\nif the change is intended, re-baseline: python -m repro "
            f"{spec.name} --smoke --out {path} --baseline \"\""
        )
    print(f"baseline diff vs {path}: ok")


# -- the runner --------------------------------------------------------------


def _reproducible(bench: Artifact) -> str:
    """The artifact minus its host-time section, as canonical JSON."""
    return json.dumps(
        {k: v for k, v in bench.items() if k != "wall_clock"},
        sort_keys=True,
    )


def run(spec: BenchSpec, args: Any) -> None:
    """Build, validate, write, print and gate one bench command.

    ``args`` carries ``seed``, ``smoke``, one attribute per output's
    ``dest``, plus ``workers`` for a parallel spec and ``baseline`` for a
    spec with one (see ``repro.__main__``).  Raises ``SystemExit`` with
    the reasons when a gate fails.
    """
    kwargs: Dict[str, Any] = {"seed": args.seed, "smoke": args.smoke}
    for output in spec.outputs:
        if output.build_arg:
            kwargs[output.build_arg] = getattr(args, output.dest)
    if spec.parallel:
        kwargs["workers"] = args.workers
    bench = spec.build(**kwargs)
    problems = validate(spec, bench)
    for output in spec.outputs:
        if output.part is not None:
            write_json(getattr(args, output.dest), output.part(bench))
    print(spec.format(bench))
    print("wrote " + ", ".join(getattr(args, o.dest) for o in spec.outputs))
    if problems:
        raise SystemExit(
            f"{spec.name}: acceptance gate failed:\n  " + "\n  ".join(problems)
        )
    if args.smoke:
        # The artifact must be a pure function of the seed.  The rerun is
        # serial, so with --workers > 1 this doubles as the
        # parallel-equals-serial byte-identity check.
        if spec.parallel:
            kwargs["workers"] = 1
        if _reproducible(spec.build(**kwargs)) != _reproducible(bench):
            raise SystemExit(f"{spec.name} smoke: same seed, different artifact")
    if spec.baseline is not None:
        _gate_baseline(spec, bench, args.baseline)
    if args.smoke:
        print(f"{spec.name} smoke: ok")
