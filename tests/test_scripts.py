"""Smoke tests: both scripts run to completion on a small family."""
from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

from dfalab import suite_graphs
from dfalab.certification import KINDS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, argv: list[str], monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as e:
        return e.code
    return 0


def test_certify_suite_prints_one_row_per_graph_and_kind(monkeypatch, capsys):
    assert run_script("certify_suite.py", ["--random-graphs", "2"], monkeypatch) == 0
    header, *rows, blank, summary = capsys.readouterr().out.splitlines()
    assert header.split()[:5] == ["graph", "V", "E", "k*", "kind"]
    expected = [(name, kind) for name, g in suite_graphs(2)
                for kind in KINDS if kind != "single" or g.num_edges]
    assert [(r.split()[0], r.split()[4]) for r in rows] == expected
    assert all(r.split()[6] == "PASS" for r in rows)
    assert blank == "" and summary == f"all {len(expected)} round trips certified"


@pytest.mark.parametrize("extra", [[], ["--pta"]])
def test_ratio_experiment_prints_json_lines(extra, monkeypatch, capsys):
    assert run_script("ratio_experiment.py", ["--random-graphs", "2", *extra], monkeypatch) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["graph"] for r in records] == [
        "triangle", "c5", "k4", "demo5", "p4", "gnp6-seed0", "gnp6-seed1"]
    assert all(r["k_star"] <= r["k_hat"] <= r["m_hat"] // r["L"] for r in records)
