"""End-to-end command-line pipelines and exit-code contracts."""
from __future__ import annotations

import hashlib
import json
import tracemalloc

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

    @pytest.mark.parametrize("kind", ["zhang", "binary", "single"])
    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_a_color_bound_below_one_is_usage_error(self, kind, K, k3_col, capsys):
        assert main(["verify", "--kind", kind, "--graph", k3_col, f"--K={K}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: K must be a positive integer\n"

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


# documents of the right JSON syntax whose fields have the wrong type: each
# is a parse error (exit 2), never a traceback
MALFORMED_DOCUMENTS = [
    *[(command, "dfa", patch)
      for command in ("dot", "extract", "moore", "mealy")
      for patch in ({"states": None}, {"accepting": ["x"]}, {"alphabet": 5}, {"transitions": 5})],
    ("extract", "meta", [1]),
    ("extract", "meta", {"vertex_codes": 5}),
    ("extract", "meta", {"L": [3]}),
]
# lengths that int() would coerce: a float, a bool and a numeric string
MALFORMED_LENGTHS = [{"L": 25.9}, {"head_len": True}, {"tail_len": "2"}]


@pytest.mark.parametrize("command, target, patch",
                         MALFORMED_DOCUMENTS + [("extract", "meta", p) for p in MALFORMED_LENGTHS],
                         ids=[f"{c}-{t}-{''.join(p) if isinstance(p, dict) else 'array'}"
                              for c, t, p in MALFORMED_DOCUMENTS]
                         + [f"extract-meta-{k}-{type(v).__name__}"
                            for p in MALFORMED_LENGTHS for k, v in p.items()])
def test_malformed_json_is_usage_error(command, target, patch, k3_col, tmp_path, capsys):
    w, meta = tmp_path / "w.json", tmp_path / "b.abb.meta.json"
    main(["reduce", "binary", "--graph", k3_col, "--K", "3", "--out", str(tmp_path / "b.abb")])
    main(["witness", "--kind", "binary", "--graph", k3_col, "--K", "3", "--out", str(w)])
    path = w if target == "dfa" else meta
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, **patch} if isinstance(patch, dict) else patch))
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
