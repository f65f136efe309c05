"""End-to-end command-line pipelines and exit-code contracts."""
from __future__ import annotations

import hashlib
import json
import sys
import tracemalloc

import pytest

from dfalab import Graph, cli, emit_dimacs
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


# the sidecar `reduce binary|single --graph k3 --K 3` wrote, byte for byte,
# when it also recorded the counts and the codes (and binary's K and N);
# %s is the kind
OLDER_K3_SIDECAR = """{
  "K": 3,
  "L": 25,
  "N": 101,
  "edge_codes": [
    "00",
    "01",
    "10"
  ],
  "graph_sha256": "94ff9e2f4dc680aba8373df272cccdb27ae399d1d97a285a0a31e44a98e9d53f",
  "head_len": 2,
  "kind": "%s",
  "num_edges": 3,
  "num_vertices": 3,
  "tail_len": 2,
  "vertex_codes": [
    "00",
    "01",
    "10"
  ]
}
"""


class TestReduce:
    def test_zhang_writes_sample_and_metadata(self, demo5_col, tmp_path):
        out = tmp_path / "z.abb"
        assert main(["reduce", "zhang", "--graph", demo5_col, "--out", str(out)]) == 0
        sample = sample_from_abbadingo(out.read_text())
        assert sample.size() == 18  # 7 positives + 11 negatives
        meta = json.loads((tmp_path / "z.abb.meta.json").read_text())
        assert set(meta) == {"kind", "graph_sha256"} and meta["kind"] == "zhang"

    def test_binary_records_l(self, demo5_col, tmp_path):
        out = tmp_path / "b.abb"
        assert main(["reduce", "binary", "--graph", demo5_col, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "b.abb.meta.json").read_text())
        assert meta["L"] == 57 and "K" not in meta and "N" not in meta

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

    @pytest.mark.parametrize("minimize", [[], ["--minimize"]])
    @pytest.mark.parametrize("budget", ["nan", "0", "-1"])
    def test_a_budget_that_is_not_positive_is_usage_error(self, budget, minimize, k3_col, tmp_path,
                                                          capsys):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", k3_col, "--out", str(out)])
        capsys.readouterr()
        assert main(["solve", str(out), "--max-m", "4", f"--budget={budget}", *minimize]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --budget must be a positive number of seconds\n"

    def test_a_state_bound_below_one_is_usage_error(self, k3_col, tmp_path, capsys):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", k3_col, "--out", str(out)])
        capsys.readouterr()
        for minimize in ([], ["--minimize"]):  # one message for the flag in both modes
            assert main(["solve", str(out), "--max-m", "0", *minimize]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --max-m must be at least 1\n"

    def test_an_infinite_budget_has_no_deadline(self, k3_col, tmp_path):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", k3_col, "--out", str(out)])
        assert main(["solve", str(out), "--max-m", "4", "--budget", "inf"]) == 0
        assert main(["solve", str(out), "--max-m", "4", "--budget", "inf", "--minimize"]) == 0

    def test_minimize_unsat_through_bound(self, demo5_col, tmp_path, capsys):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", demo5_col, "--out", str(out)])
        assert main(["solve", str(out), "--max-m", "3", "--minimize"]) == 1
        assert "unsat" in capsys.readouterr().out

    def test_the_acyclic_flag_is_gone(self, k3_col, tmp_path, capsys):
        out = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", k3_col, "--out", str(out)])
        capsys.readouterr()
        assert main(["solve", str(out), "--max-m", "4", "--acyclic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("minimize", [[], ["--minimize"]])
    def test_the_witness_document_is_a_total_dfa(self, minimize, k3_col, tmp_path):
        out, witness = tmp_path / "z.abb", tmp_path / "w.json"
        main(["reduce", "zhang", "--graph", k3_col, "--out", str(out)])
        assert main(["solve", str(out), "--max-m", "4", *minimize, "--out", str(witness)]) == 0
        assert json.loads(witness.read_text())["type"] == "dfa"

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

    def test_coloring_labels_are_ranked(self, tmp_path):
        # 1,3,1 uses two colors: it is the coloring 1,2,1, within K = 2
        gap, plain = tmp_path / "gap.json", tmp_path / "plain.json"
        assert main(["witness", "--kind", "binary", "--graph", "p3", "--coloring", "1,3,1",
                     "--K", "2", "--out", str(gap)]) == 0
        assert main(["witness", "--kind", "binary", "--graph", "p3", "--coloring", "1,2,1",
                     "--K", "2", "--out", str(plain)]) == 0
        assert gap.read_bytes() == plain.read_bytes()
        assert main(["witness", "--kind", "single", "--graph", "p3", "--coloring", "1,3,1",
                     "--K", "2", "--out", str(tmp_path / "s.json")]) == 0

    def test_a_coloring_label_below_one_is_usage_error(self, tmp_path, capsys):
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", "binary", "--graph", "p3", "--coloring", "0,1,0",
                     "--K", "2", "--out", str(w)]) == 2
        assert capsys.readouterr().err == "error: --coloring label 0 is below 1\n"
        assert not w.exists()

    def test_uncolorable_graph_fails(self, tmp_path):
        assert main(["witness", "--kind", "zhang", "--graph", "k4",
                     "--K", "3", "--out", str(tmp_path / "w.json")]) == 1

    @pytest.mark.parametrize("kind", ["zhang", "binary", "single"])
    @pytest.mark.parametrize("K", ["0", "-1"])
    def test_a_color_bound_below_one_is_usage_error(self, kind, K, k3_col, tmp_path, capsys):
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", kind, "--graph", k3_col, f"--K={K}", "--out", str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: K must be at least 1\n"
        assert not w.exists()

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

    # a sidecar serves only its own reduction's extraction: read by another,
    # it extracted (single as binary), failed the certificate (binary as
    # single) or missed a field (zhang as binary)
    @pytest.mark.parametrize("written, asked, K", [
        ("single", "binary", ["--K", "3"]),
        ("binary", "single", ["--K", "3"]),
        ("zhang", "binary", []),
    ], ids=["single-as-binary", "binary-as-single", "zhang-as-binary"])
    def test_metadata_of_another_reduction_is_usage_error(self, written, asked, K, k3_col,
                                                          tmp_path, capsys):
        assert main(["reduce", written, "--graph", k3_col, *K, "--out", str(tmp_path / "s.abb")]) == 0
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", asked, "--graph", k3_col, "--K", "3", "--out", str(w)]) == 0
        capsys.readouterr()
        assert main(["extract", "--kind", asked, "--graph", k3_col,
                     "--dfa", str(w), "--meta", str(tmp_path / "s.abb.meta.json")]) == 2
        assert capsys.readouterr().err == f"error: metadata is for the {written} reduction, not {asked}\n"

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

    @pytest.mark.parametrize("kind", ["zhang", "binary", "single"])
    def test_a_dfa_over_the_wrong_alphabet_is_usage_error(self, kind, k3_col, tmp_path, capsys):
        # zhang's k3 alphabet has six symbols, binary and single have two
        other = "binary" if kind == "zhang" else "zhang"
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", other, "--graph", k3_col, "--K", "3", "--out", str(w)]) == 0
        meta = []
        if kind != "zhang":
            assert main(["reduce", kind, "--graph", k3_col, "--K", "3",
                         "--out", str(tmp_path / "s.abb")]) == 0
            meta = ["--meta", str(tmp_path / "s.abb.meta.json")]
        capsys.readouterr()
        assert main(["extract", "--kind", kind, "--graph", k3_col, "--dfa", str(w), *meta]) == 2
        assert capsys.readouterr().err.startswith("error: alphabet mismatch")

    def test_zhang_extract_takes_a_partial_dfa_as_it_is(self, tmp_path, capsys):
        from dfalab import PartialDfa
        from dfalab.formats import automaton_to_json
        from dfalab.reductions import zhang_alphabet

        # consistent only as given: completion would loop on the accepting
        # initial state and accept the rejected vertex strings
        alphabet = zhang_alphabet(Graph.edgeless(2))
        w = tmp_path / "w.json"
        w.write_text(automaton_to_json(PartialDfa(1, alphabet, 0, ((None, None),), frozenset({0}))))
        assert main(["extract", "--kind", "zhang", "--graph", "edgeless2", "--dfa", str(w)]) == 0
        assert "colors: 1 1\n" in capsys.readouterr().out

    def test_single_round_trip(self, k3_col, tmp_path, capsys):
        sample_path = tmp_path / "s.abb"
        main(["reduce", "single", "--graph", k3_col, "--K", "3", "--out", str(sample_path)])
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", "single", "--graph", k3_col, "--K", "3",
                     "--out", str(w)]) == 0
        assert main(["extract", "--kind", "single", "--graph", k3_col,
                     "--dfa", str(w), "--meta", str(tmp_path / "s.abb.meta.json")]) == 0
        assert "num_colors: 3" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["binary", "single"])
    def test_an_older_sidecar_extracts_as_a_new_one(self, kind, k3_col, tmp_path, capsys):
        assert main(["reduce", kind, "--graph", k3_col, "--K", "3", "--out", str(tmp_path / "s.abb")]) == 0
        w = tmp_path / "w.json"
        assert main(["witness", "--kind", kind, "--graph", k3_col, "--K", "3", "--out", str(w)]) == 0
        old = tmp_path / "old.meta.json"
        old.write_text(OLDER_K3_SIDECAR % kind)
        outs = []
        for meta in (tmp_path / "s.abb.meta.json", old):
            capsys.readouterr()
            assert main(["extract", "--kind", kind, "--graph", k3_col, "--dfa", str(w),
                         "--meta", str(meta)]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        assert outs[0].out == "colors: 1 2 3\nnum_colors: 3\n" and outs[0].err == ""

    def test_zhang_warns_that_lengths_and_meta_are_ignored(self, k3_col, tmp_path, capsys):
        plain, lengths = tmp_path / "plain.json", tmp_path / "lengths.json"
        assert main(["witness", "--kind", "zhang", "--graph", k3_col, "--K", "3",
                     "--out", str(plain)]) == 0
        quiet = capsys.readouterr()
        assert main(["witness", "--kind", "zhang", "--graph", k3_col, "--K", "3",
                     "--L", "5", "--N", "7", "--out", str(lengths)]) == 0
        warned = capsys.readouterr()
        assert lengths.read_bytes() == plain.read_bytes()
        assert warned.out == quiet.out.replace("plain", "lengths") and quiet.err == ""
        assert warned.err == "warning: --L/--N are ignored for the zhang reduction\n"
        assert main(["extract", "--kind", "zhang", "--graph", k3_col, "--dfa", str(plain)]) == 0
        quiet = capsys.readouterr()
        assert main(["extract", "--kind", "zhang", "--graph", k3_col, "--dfa", str(plain),
                     "--meta", str(tmp_path / "nowhere.json")]) == 0
        warned = capsys.readouterr()
        assert warned.out == quiet.out and quiet.err == ""
        assert warned.err == "warning: --meta is ignored for the zhang reduction\n"

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

    @pytest.mark.parametrize("kind", ["zhang", "binary", "single"])
    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_a_color_bound_below_one_is_usage_error(self, kind, K, k3_col, capsys):
        assert main(["verify", "--kind", kind, "--graph", k3_col, f"--K={K}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: K must be at least 1\n"

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

    @pytest.mark.parametrize("kind", ["binary", "single"])
    def test_a_budget_is_ignored_outside_zhang_with_a_warning(self, kind, k3_col, capsys):
        assert main(["verify", "--kind", kind, "--graph", k3_col, "--K", "3"]) == 0
        plain = capsys.readouterr()
        assert main(["verify", "--kind", kind, "--graph", k3_col, "--K", "3", "--budget", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out and plain.err == ""
        assert captured.err == f"warning: --budget is ignored for the {kind} reduction\n"

    @pytest.mark.parametrize("kind", ["zhang", "binary"])
    @pytest.mark.parametrize("budget", ["nan", "0", "-1"])
    def test_a_budget_that_is_not_positive_is_usage_error(self, kind, budget, k3_col, capsys):
        assert main(["verify", "--kind", kind, "--graph", k3_col, "--K", "3",
                     f"--budget={budget}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget must be a positive number of seconds\n"

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

    # Outputs of the tuple-per-line Abbadingo parser, which read every file
    # into sets of word tuples before building the prefix tree: (length and
    # sha256 of `runs.txt`, sha256 of the minimal witness, `solve` stdouts).
    PINNED = {
        "k3": (Graph.complete(3), 3, 1562,
               "0f14e9e9b28c4f1cd703bf1352f0c04f6aeec690cd05dc9e5a2152e48e13a956",
               "e47bf21b82f6b6101f96a5161771fa1bf3c22d4919546fa3ab78ad83abc24246",
               "m* = 4 (4 states)\n", "unsat at m = 3 (0 search steps)\n"),
        "p4": (Graph.path(4), 2, 1454,
               "4872a86fb6a778e5bdc66dfdfc4c6a08a255efaefba90e9124d7afc06c68d637",
               "347aec590ea29ca479ee8ac586f969d802eff8406e4a71a924761803a04c4118",
               "m* = 3 (3 states)\n", "unsat at m = 2 (0 search steps)\n"),
        "c4": (Graph.cycle(4), 2, 2194,
               "7369337dc307df840dc3193ccc060103d6e93fed7291df903c0041b208929161",
               "5537338fa0844a364324cf7523ef2f26d940719764fd98aec50c6e127e100c0a",
               "m* = 3 (3 states)\n", "unsat at m = 2 (0 search steps)\n"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_sample_file_outputs_are_pinned(self, name, tmp_path, capsys):
        g, chi, runs_len, runs_sha, witness_sha, minimize_out, unsat_out = self.PINNED[name]
        col = tmp_path / "g.col"
        col.write_text(emit_dimacs(g))
        s, z, runs, w = (str(tmp_path / f) for f in ("s.abb", "z.abb", "runs.txt", "zw.json"))
        assert main(["reduce", "single", "--graph", str(col), "--K", str(chi), "--out", s]) == 0
        assert main(["reduce", "zhang", "--graph", str(col), "--out", z]) == 0
        assert main(["convert", "--to", "machine-sample", s, runs]) == 0
        text = (tmp_path / "runs.txt").read_bytes()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (runs_len, runs_sha)
        capsys.readouterr()
        assert main(["solve", z, "--max-m", str(g.num_vertices + 1), "--minimize", "--out", w]) == 0
        assert capsys.readouterr().out == minimize_out
        assert hashlib.sha256((tmp_path / "zw.json").read_bytes()).hexdigest() == witness_sha
        assert main(["solve", z, "--max-m", str(chi)]) == 1
        assert capsys.readouterr().out == unsat_out

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
        # demo5's vertex/edge alphabet has 11 symbols, and run files hold
        # only the binary alphabet
        sample_path = tmp_path / "z.abb"
        main(["reduce", "zhang", "--graph", demo5_col, "--out", str(sample_path)])
        code = main(["convert", "--to", "machine-sample", str(sample_path),
                     str(tmp_path / "r.txt")])
        assert code == 2

    def test_a_ternary_sample_is_refused_not_written(self, tmp_path, capsys):
        # prefix-complete over 3 symbols: the runs 02 and 21 were written,
        # and the reader then refused the file
        sample_path, runs = tmp_path / "t.abb", tmp_path / "r.txt"
        sample_path.write_text("5 3\n1 0\n0 1 0\n1 2 0 2\n1 1 2\n0 2 2 1\n")
        assert main(["convert", "--to", "machine-sample", str(sample_path), str(runs)]) == 2
        assert not runs.exists()
        runs.write_text("02\n-+\n21\n+-\n")
        assert main(["convert", "--to", "dfa-sample", str(runs), str(tmp_path / "back.abb")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: run files hold only the binary alphabet with symbols '0' and '1'",
            "error: line 1: unknown input symbol '2'",
        ]

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

    def test_mycielski_spec(self, capsys):
        # M_4, the Grotzsch graph: triangle-free, chromatic number 4
        assert main(["verify", "--kind", "zhang", "--graph", "myciel4", "--K", "4"]) == 0
        assert main(["verify", "--kind", "zhang", "--graph", "myciel4", "--K", "3"]) == 1
        assert main(["verify", "--kind", "zhang", "--graph", "myciel1", "--K", "1"]) == 2
        assert "M_2" in capsys.readouterr().err

    def test_the_console_script_reads_sys_argv(self, monkeypatch, tmp_path, capsys):
        w = tmp_path / "w.json"
        for argv in (["witness", "--kind", "zhang", "--graph", "c5", "--K", "3", "--out", str(w)],
                     ["extract", "--kind", "zhang", "--graph", "c5", "--dfa", str(w)]):
            monkeypatch.setattr(sys, "argv", ["dfalab", *argv])
            assert main() == 0
        assert capsys.readouterr().out.endswith("num_colors: 3\n")


COMMANDS = ["reduce", "solve", "witness", "extract", "verify", "convert", "dot"]
# argvs that end in help or a usage error: top-level help before or without
# a command (abbreviated too), no command, a bad --seed before one, an
# unknown command, each command's help, a missing required option, a bad
# choice and an unknown option
REFUSED_ARGVS = [
    [], ["-h"], ["--help"], ["--he"],
    ["--seed", "3"], ["--seed", "x", "reduce"], ["--se", "2", "dot", "a", "b", "c"],
    ["bogus"], ["-h", "dot"],
    *([command, "-h"] for command in COMMANDS),
    ["reduce", "zhang", "--out", "z.abb"],
    ["witness", "--kind", "nope", "--graph", "k3", "--out", "w.json"],
    ["solve", "s", "--max-m", "3", "--acyclic"],
]
VALID_ARGVS = [
    ["reduce", "single", "--graph", "k3", "--K", "3", "--L", "9", "--N", "40", "--out", "s.abb",
     "--meta", "m.json", "--run", "r.txt"],
    ["solve", "s.abb", "--max-m", "4", "--minimize", "--budget", "2.5", "--out", "w.json"],
    ["witness", "--kind", "two-chain", "--graph", "c5", "--K", "3", "--coloring", "1,2,1,2,3",
     "--L", "9", "--N", "40", "--out", "w.json"],
    ["extract", "--kind", "binary", "--dfa", "w.json", "--graph", "k3", "--meta", "m.json",
     "--out", "c.json"],
    ["verify", "--kind", "binary", "--graph", "p4", "--K", "2", "--L", "9", "--N", "40", "--ratio",
     "--budget", "5"],
    ["convert", "--to", "dfa-sample", "r.txt", "s.abb"],
    ["dot", "w.json", "w.dot"],
    ["--seed", "7", "reduce", "zhang", "--graph", "gnp6x0.5", "--out", "g.abb"],
]


def _commands_built(parser) -> list[str]:
    sub = next(a for a in parser._actions if isinstance(a.choices, dict))
    return list(sub.choices)


@pytest.mark.parametrize("argv", REFUSED_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    code = main(argv)
    got = capsys.readouterr()
    full = cli._build_parser([])
    assert _commands_built(full) == COMMANDS
    with pytest.raises(SystemExit) as exit_:
        full.parse_args(argv)
    assert (code, got.out, got.err) == (exit_.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_a_command_parses_as_on_the_full_parser(argv):
    parser = cli._build_parser(argv)
    args = parser.parse_args(argv)
    assert args == cli._build_parser([]).parse_args(argv)
    assert args.func is getattr(cli, f"cmd_{args.command}")
    assert _commands_built(parser) == ([argv[0]] if argv[0] in COMMANDS else COMMANDS)


# documents of the right JSON syntax whose fields have the wrong type: each
# is a parse error (exit 2), never a traceback
MALFORMED_DOCUMENTS = [
    *[(command, "dfa", patch)
      for command in ("dot", "extract", "moore", "mealy")
      for patch in ({"states": None}, {"accepting": ["x"]}, {"alphabet": 5}, {"transitions": 5})],
    ("extract", "meta", [1]),
    ("extract", "meta", {"L": [3]}),
]
# lengths that int() would coerce: a float, a bool and a numeric string
MALFORMED_LENGTHS = [{"L": 25.9}, {"head_len": True}, {"tail_len": "2"}]


def _binary_k3_with(patch, target, k3_col, tmp_path):
    """The paths of k3's binary witness and sidecar, `patch` written over
    the one `target` names."""
    w, meta = tmp_path / "w.json", tmp_path / "b.abb.meta.json"
    main(["reduce", "binary", "--graph", k3_col, "--K", "3", "--out", str(tmp_path / "b.abb")])
    main(["witness", "--kind", "binary", "--graph", k3_col, "--K", "3", "--out", str(w)])
    path = w if target == "dfa" else meta
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, **patch} if isinstance(patch, dict) else patch))
    return w, meta


@pytest.mark.parametrize("command, target, patch",
                         MALFORMED_DOCUMENTS + [("extract", "meta", p) for p in MALFORMED_LENGTHS],
                         ids=[f"{c}-{t}-{''.join(p) if isinstance(p, dict) else 'array'}"
                              for c, t, p in MALFORMED_DOCUMENTS]
                         + [f"extract-meta-{k}-{type(v).__name__}"
                            for p in MALFORMED_LENGTHS for k, v in p.items()])
def test_malformed_json_is_usage_error(command, target, patch, k3_col, tmp_path, capsys):
    w, meta = _binary_k3_with(patch, target, k3_col, tmp_path)
    argv = {
        "dot": ["dot", str(w), str(tmp_path / "w.dot")],
        "extract": ["extract", "--kind", "binary", "--graph", k3_col, "--dfa", str(w),
                    "--meta", str(meta)],
        "moore": ["convert", "--to", "moore", str(w), str(tmp_path / "m.json")],
        "mealy": ["convert", "--to", "mealy", str(w), str(tmp_path / "m.json")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_head_length_the_witness_does_not_have_fails_extraction(k3_col, tmp_path, capsys):
    # head_len 3 on k3 is a legal instance, but not the one k3's 2-bit
    # witness was built for: its codes are rebuilt at 3 bits and miss
    w, meta = _binary_k3_with({"head_len": 3}, "meta", k3_col, tmp_path)
    capsys.readouterr()
    assert main(["extract", "--kind", "binary", "--graph", k3_col, "--dfa", str(w),
                 "--meta", str(meta)]) == 1
    assert capsys.readouterr().err.startswith("failed: ")


def test_declared_states_beyond_the_listed_transitions_are_rejected_unbuilt(tmp_path, capsys):
    # 300000 states over one symbol and no transition: a dfa document that
    # cannot be total, rejected from the transitions it lists before any
    # row of its table is built
    w = tmp_path / "w.json"
    w.write_text('{"type": "dfa", "states": 300000, "alphabet": ["0"], "initial": 0, "transitions": []}')
    tracemalloc.start()
    try:
        code = main(["dot", str(w), str(tmp_path / "w.dot")])
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == "error: dfa document is missing transitions, e.g. (0, 0)\n"
    assert peak < 2**20
