"""CLI smoke tests (tiny durations)."""

import pytest

from repro.__main__ import main


def test_quickstart_command(capsys):
    assert main(["--duration", "8", "quickstart", "--game", "G5"]) == 0
    out = capsys.readouterr().out
    assert "Candy Crush" in out
    assert "gbooster" in out


def test_fig1_command(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "throttled at" in out


def test_adaptive_command(capsys):
    assert main(["--duration", "8", "adaptive"]) == 0
    out = capsys.readouterr().out
    assert "gbooster" in out
    assert "cloud" in out
    assert "local" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("duration", ["0", "-5", "nan", "inf", "soon"])
def test_non_positive_duration_rejected(duration, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--duration", duration, "quickstart"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --duration" in err
    assert repr(duration) in err


@pytest.mark.parametrize("argv, flag", [
    (["slo", "--smoke", "--workers", "0"], "--workers"),
    (["slo", "--smoke", "--workers", "-3"], "--workers"),
    (["capacity", "--smoke", "--workers", "0"], "--workers"),
    (["planner", "--smoke", "--workers", "two"], "--workers"),
    (["postmortem", "--smoke", "--workers", "0"], "--workers"),
    (["fleet", "--smoke", "--workers", "0"], "--workers"),
    (["fleet", "--workers", "1", "--shards", "0"], "--shards"),
    (["fleet", "--workers", "1", "--window", "0"], "--window"),
    (["fleet", "--devices", "0"], "--devices"),
    (["fleet", "--sessions", "16", "0"], "--sessions"),
    (["fuzz", "--smoke", "--rounds", "0"], "--rounds"),
])
def test_bad_count_rejected_before_running(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
