"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.uls import uls_schedule
from repro.faults import FaultInjectionAdversary, breakins


def test_benign_scenario_exits_zero(capsys):
    assert main(["benign", "--units", "2"]) == 0
    out = capsys.readouterr().out
    assert "signed+verified=True" in out
    assert "within limits" in out


def test_breakins_scenario(capsys):
    assert main(["breakins", "--units", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "shares valid at end: 5/5" in out


def test_cutoff_scenario_reports_awareness(capsys):
    assert main(["cutoff", "--units", "3", "--victim", "2"]) == 0
    out = capsys.readouterr().out
    assert "alerted in every cut-off unit" in out


def test_flood_scenario_reports_global_awareness(capsys):
    assert main(["flood", "--flood", "1", "--units", "2"]) == 0
    out = capsys.readouterr().out
    assert "GLOBAL AWARENESS" in out
    assert "injected messages" in out


def test_partition_scenario(capsys):
    assert main(["partition", "--n", "25"]) == 0
    out = capsys.readouterr().out
    assert "5 neighborhoods" in out


def test_invalid_n_t_combination(capsys):
    assert main(["benign", "--n", "4", "--t", "2"]) == 2


def test_parser_requires_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unclean_verdict_of_an_in_model_scenario_exits_one(capsys, monkeypatch):
    """A ``benign`` run whose adversary breaks into t + 1 nodes in unit 1
    exceeds Definition 7: its verdict is not clean, so ``main`` returns 1."""
    monkeypatch.setattr(cli, "PassiveAdversary", lambda: FaultInjectionAdversary(
        breakins(uls_schedule(), {1: {0, 1, 2}})))
    assert main(["benign", "--units", "2"]) == 1
    out = capsys.readouterr().out
    assert "(t,t)-limit audit: EXCEEDED" in out
    assert "FAIL: unit 1 exceeds Definition 7: [0, 1, 2] impaired, limit 2" in out
