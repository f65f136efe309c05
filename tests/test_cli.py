"""End-to-end command-line pipelines and exit-code contracts."""
from __future__ import annotations

import json

import pytest

from dfalab import Graph, emit_dimacs
from dfalab.cli import main
from dfalab.formats import automaton_from_json, sample_from_abbadingo

from conftest import DEMO5_EDGES


@pytest.fixture
def demo5_col(tmp_path):
    path = tmp_path / "demo5.col"
    path.write_text(emit_dimacs(Graph(5, frozenset(DEMO5_EDGES))))
    return str(path)


@pytest.fixture
def k3_col(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text(emit_dimacs(Graph.complete(3)))
    return str(path)


class TestReduce:
    def test_zhang_writes_sample_and_metadata(self, demo5_col, tmp_path):
        out = tmp_path / "z.abb"
        assert main(["reduce", "zhang", "--graph", demo5_col, "--out", str(out)]) == 0
        sample = sample_from_abbadingo(out.read_text())
        assert sample.size() == 18  # 7 positives + 11 negatives
        meta = json.loads((tmp_path / "z.abb.meta.json").read_text())
        assert meta["kind"] == "zhang" and meta["num_vertices"] == 5

    def test_binary_records_l(self, demo5_col, tmp_path):
        out = tmp_path / "b.abb"
        assert main(["reduce", "binary", "--graph", demo5_col, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "b.abb.meta.json").read_text())
        assert meta["L"] == 57 and meta["K"] is None

    def test_single_writes_run_file(self, k3_col, tmp_path):
        out = tmp_path / "s.abb"
        assert main(["reduce", "single", "--graph", k3_col, "--K", "3",
                     "--out", str(out)]) == 0
        run_lines = (tmp_path / "s.abb.run.txt").read_text().splitlines()
        assert len(run_lines) == 2
        assert len(run_lines[0]) == 780
        assert set(run_lines[0]) <= {"0", "1"} and set(run_lines[1]) <= {"+", "-"}

    def test_single_requires_k(self, k3_col, tmp_path):
        assert main(["reduce", "single", "--graph", k3_col,
                     "--out", str(tmp_path / "s.abb")]) == 2

    def test_under_bound_override_warns_not_errors(self, k3_col, tmp_path, capsys):
        out = tmp_path / "b.abb"
        code = main(["reduce", "binary", "--graph", k3_col, "--K", "3",
                     "--L", "5", "--out", str(out)])
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_deterministic_bytes(self, demo5_col, tmp_path):
        a, b = tmp_path / "a.abb", tmp_path / "b.abb"
        main(["reduce", "binary", "--graph", demo5_col, "--out", str(a)])
        main(["reduce", "binary", "--graph", demo5_col, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_graph_file(self, tmp_path):
        assert main(["reduce", "zhang", "--graph", str(tmp_path / "nope.col"),
                     "--out", str(tmp_path / "z.abb")]) == 2


class TestSolve:
    def test_sat_unsat_exit_codes(self, demo5_col, tmp_path):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", demo5_col, "--out", str(out)])
        witness = tmp_path / "w.json"
        assert main(["solve", str(out), "--max-m", "4", "--out", str(witness)]) == 0
        assert witness.exists()
        assert main(["solve", str(out), "--max-m", "3"]) == 1

    def test_minimize_prints_m_star(self, k3_col, tmp_path, capsys):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", k3_col, "--out", str(out)])
        assert main(["solve", str(out), "--max-m", "6", "--minimize"]) == 0
        assert "m* = 4" in capsys.readouterr().out

    def test_timeout_exit_code(self, demo5_col, tmp_path):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", demo5_col, "--out", str(out)])
        assert main(["solve", str(out), "--max-m", "3", "--budget", "1e-9"]) == 3

    def test_minimize_unsat_through_bound(self, demo5_col, tmp_path, capsys):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", demo5_col, "--out", str(out)])
        assert main(["solve", str(out), "--max-m", "3", "--minimize"]) == 1
        assert "unsat" in capsys.readouterr().out

    def test_malformed_sample(self, tmp_path):
        bad = tmp_path / "bad.abb"
        bad.write_text("not a sample\n")
        assert main(["solve", str(bad), "--max-m", "2"]) == 2


class TestWitnessExtract:
    def test_zhang_round_trip(self, demo5_col, tmp_path, capsys):
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", "zhang", "--graph", demo5_col,
                     "--K", "3", "--out", str(w)]) == 0
        assert main(["extract", "--kind", "zhang", "--graph", demo5_col,
                     "--dfa", str(w)]) == 0
        out = capsys.readouterr().out
        assert "num_colors: 3" in out

    def test_explicit_coloring(self, demo5_col, tmp_path):
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", "zhang", "--graph", demo5_col,
                     "--coloring", "1,2,3,1,1", "--out", str(w)]) == 0
        assert automaton_from_json(w.read_text()).num_states == 4

    def test_improper_coloring_rejected(self, k3_col, tmp_path):
        assert main(["witness", "--kind", "zhang", "--graph", k3_col,
                     "--coloring", "1,1,2", "--out", str(tmp_path / "w.json")]) == 2

    def test_uncolorable_graph_fails(self, tmp_path):
        assert main(["witness", "--kind", "zhang", "--graph", "k4",
                     "--K", "3", "--out", str(tmp_path / "w.json")]) == 1

    def test_binary_extract_uses_metadata(self, k3_col, tmp_path, capsys):
        sample_path = tmp_path / "b.abb"
        main(["reduce", "binary", "--graph", k3_col, "--K", "3",
              "--out", str(sample_path)])
        w = tmp_path / "w.json"
        main(["witness", "--kind", "binary", "--graph", k3_col, "--K", "3",
              "--out", str(w)])
        assert main(["extract", "--kind", "binary", "--graph", k3_col,
                     "--dfa", str(w), "--meta", str(tmp_path / "b.abb.meta.json"),
                     "--out", str(tmp_path / "c.json")]) == 0
        coloring = json.loads((tmp_path / "c.json").read_text())
        assert coloring["num_colors"] <= 3

    def test_metadata_graph_mismatch(self, k3_col, demo5_col, tmp_path):
        sample_path = tmp_path / "b.abb"
        main(["reduce", "binary", "--graph", k3_col, "--K", "3", "--out", str(sample_path)])
        w = tmp_path / "w.json"
        main(["witness", "--kind", "binary", "--graph", k3_col, "--K", "3", "--out", str(w)])
        assert main(["extract", "--kind", "binary", "--graph", demo5_col,
                     "--dfa", str(w), "--meta", str(tmp_path / "b.abb.meta.json")]) == 2

    def test_inconsistent_dfa_fails_with_one(self, k3_col, tmp_path):
        from dfalab import Dfa
        from dfalab.formats import automaton_to_json
        from dfalab.reductions import zhang_alphabet

        # an accept-everything DFA contradicts the rejected vertex strings
        alphabet = zhang_alphabet(Graph.complete(3))
        accept_all = Dfa(1, alphabet, 0, ((0,) * alphabet.size,), frozenset({0}))
        w = tmp_path / "w.json"
        w.write_text(automaton_to_json(accept_all))
        assert main(["extract", "--kind", "zhang", "--graph", k3_col, "--dfa", str(w)]) == 1

    def test_single_round_trip(self, k3_col, tmp_path, capsys):
        sample_path = tmp_path / "s.abb"
        main(["reduce", "single", "--graph", k3_col, "--K", "3", "--out", str(sample_path)])
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", "single", "--graph", k3_col, "--K", "3",
                     "--out", str(w)]) == 0
        assert main(["extract", "--kind", "single", "--graph", k3_col,
                     "--dfa", str(w), "--meta", str(tmp_path / "s.abb.meta.json")]) == 0
        assert "num_colors: 3" in capsys.readouterr().out

    def test_zhang_witness_on_a_long_cycle(self, tmp_path, capsys):
        # the coloring search walks more vertices than the recursion limit
        col = tmp_path / "c1201.col"
        col.write_text(emit_dimacs(Graph.cycle(1201)))
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", "zhang", "--graph", str(col), "--K", "3",
                     "--out", str(w)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert automaton_from_json(w.read_text()).num_states == 4

    def test_two_chain_witness(self, k3_col, tmp_path):
        w = tmp_path / "two.json"
        assert main(["witness", "--kind", "two-chain", "--graph", k3_col,
                     "--K", "3", "--out", str(w)]) == 0
        machine = automaton_from_json(w.read_text())
        assert machine.num_states < 2 * (101 + 2 * 25)


class TestVerify:
    def test_zhang_demo5_passes(self, demo5_col, capsys):
        assert main(["verify", "--kind", "zhang", "--graph", demo5_col, "--K", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_zhang_k4_fails_unsat(self, capsys):
        assert main(["verify", "--kind", "zhang", "--graph", "k4", "--K", "3"]) == 1
        out = capsys.readouterr().out
        assert "unsat at m=4" in out

    def test_binary_k3(self, k3_col):
        assert main(["verify", "--kind", "binary", "--graph", k3_col, "--K", "3"]) == 0

    def test_binary_ratio(self, demo5_col, capsys):
        assert main(["verify", "--kind", "binary", "--graph", demo5_col,
                     "--K", "3", "--ratio"]) == 0
        assert "ratio chain" in capsys.readouterr().out

    def test_single_k3(self, k3_col, capsys):
        assert main(["verify", "--kind", "single", "--graph", k3_col, "--K", "3"]) == 0
        out = capsys.readouterr().out
        assert "two-chain" in out

    def test_illegal_override_is_usage_error(self, k3_col):
        assert main(["verify", "--kind", "binary", "--graph", k3_col,
                     "--K", "3", "--L", "5"]) == 2

    def test_zhang_warns_that_lengths_are_ignored(self, k3_col, capsys):
        assert main(["verify", "--kind", "zhang", "--graph", k3_col, "--K", "3"]) == 0
        plain = capsys.readouterr()
        assert main(["verify", "--kind", "zhang", "--graph", k3_col, "--K", "3",
                     "--L", "5", "--N", "7"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out
        assert plain.err == ""
        assert captured.err == "warning: --L/--N are ignored for the zhang reduction\n"

    def test_zhang_budget_timeout(self, demo5_col, capsys):
        assert main(["verify", "--kind", "zhang", "--graph", demo5_col,
                     "--K", "3", "--budget", "1e-9"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("timeout: time budget exhausted")
        assert "VERIFY" not in captured.out


class TestConvertAndDot:
    def test_dfa_to_moore_preserves_structure(self, k3_col, tmp_path):
        w = tmp_path / "w.json"
        main(["witness", "--kind", "zhang", "--graph", k3_col, "--K", "3", "--out", str(w)])
        moore = tmp_path / "m.json"
        assert main(["convert", "--to", "moore", str(w), str(moore)]) == 0
        doc = json.loads(moore.read_text())
        assert doc["type"] == "moore"
        assert doc["states"] == 4

    def test_sample_to_machine_sample_and_back(self, k3_col, tmp_path):
        sample_path = tmp_path / "s.abb"
        main(["reduce", "single", "--graph", k3_col, "--K", "3", "--out", str(sample_path)])
        runs = tmp_path / "runs.txt"
        assert main(["convert", "--to", "machine-sample", str(sample_path), str(runs)]) == 0
        assert runs.read_text() == (tmp_path / "s.abb.run.txt").read_text()
        back = tmp_path / "back.abb"
        assert main(["convert", "--to", "dfa-sample", str(runs), str(back)]) == 0
        original = sample_from_abbadingo(sample_path.read_text())
        restored = sample_from_abbadingo(back.read_text())
        assert restored.positives == original.positives
        assert restored.negatives == original.negatives - {()}

    def test_machine_document_is_usage_error(self, k3_col, tmp_path, capsys):
        w, moore = tmp_path / "w.json", tmp_path / "m.json"
        main(["witness", "--kind", "zhang", "--graph", k3_col, "--K", "3", "--out", str(w)])
        main(["convert", "--to", "moore", str(w), str(moore)])
        capsys.readouterr()
        assert main(["convert", "--to", "mealy", str(moore), str(tmp_path / "out.json")]) == 2
        assert main(["extract", "--kind", "zhang", "--graph", k3_col, "--dfa", str(moore)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: convert --to mealy needs a DFA document (moore/mealy given)",
            "error: extract needs a DFA document (moore/mealy given)",
        ]

    def test_incompatible_conversion(self, demo5_col, tmp_path):
        # demo5's vertex/edge alphabet has 11 symbols, so symbol 10 gets a
        # two-character name and cannot be written as a run file
        sample_path = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", demo5_col, "--out", str(sample_path)])
        code = main(["convert", "--to", "machine-sample", str(sample_path),
                     str(tmp_path / "r.txt")])
        assert code == 2

    def test_dot_is_deterministic(self, k3_col, tmp_path):
        w = tmp_path / "w.json"
        main(["witness", "--kind", "zhang", "--graph", k3_col, "--K", "3", "--out", str(w)])
        d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["dot", str(w), str(d1)]) == 0
        assert main(["dot", str(w), str(d2)]) == 0
        assert d1.read_bytes() == d2.read_bytes()
        assert "doublecircle" in d1.read_text()


class TestParsing:
    def test_usage_error_exit_code(self):
        assert main(["reduce"]) == 2
        assert main(["no-such-command"]) == 2

    def test_generator_specs(self, tmp_path):
        assert main(["reduce", "zhang", "--graph", "c5",
                     "--out", str(tmp_path / "c5.abb")]) == 0
        assert main(["--seed", "3", "reduce", "zhang", "--graph", "gnp6x0.5",
                     "--out", str(tmp_path / "g.abb")]) == 0
