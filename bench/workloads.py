"""The benchmark's four workloads.

Each workload holds a fixed list of instances, built once at set-up. A pass
runs every instance's operations once; an operation is one timed call
chain into `dfalab` (for `cli-files`, one `dfalab` invocation), followed
by an untimed check of its outputs against `checks`.

The instance lists are fixed so that every run does the same work whatever
its seed; the seed only orders the instances within each pass. Exact-search
and RPNI times depend strongly on the graph and even on its vertex
numbering, so drawing graphs from the seed would make two runs of the same
code disagree by far more than any bound worth keeping.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import dfalab as d
from dfalab import cli

import checks as ck

DEMO5 = d.Graph(5, frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)}))


@dataclass
class Instance:
    name: str
    graph: d.Graph
    K: int = 0
    params: Any = None
    enc: Any = None


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, ck.Verdicts], None]
    span: tuple[str, str] | None = None  # (name, metric) of a span the benchmark opens itself
    fresh: bool = False  # clear the program's caches first, as a new process would start


def _reduced(name: str, g: d.Graph, K: int) -> Instance:
    params = d.default_params(g, K)
    return Instance(name, g, K, params, d.make_encoding(g, params))


def _same_params(params, K: int, g, v: ck.Verdicts):
    """The smallest legal parameters, recomputed; checks the instance used them."""
    own = ck.legal_params(g, K)
    used = (params.K, params.L, params.N, params.head_len, params.tail_len)
    v.expect(used == (own.K, own.L, own.N, own.head_len, own.tail_len),
             "parameters are the smallest legal ones")
    return own


class Workload:
    def order(self, rng) -> list[Instance]:
        """The instances in the order one pass visits them."""
        order = list(self.instances)
        rng.shuffle(order)
        return order

    def ops(self, inst: Instance) -> list[Op]:
        return [Op(inst.name, partial(self.run, inst), partial(self.check, inst))]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class ZhangExact(Workload):
    """min_consistent on the vertex/edge sample of G(n, 0.5) graphs.

    Graph seeds were picked so that each exact solve takes 0.3-0.8 s on
    the reference machine; the time goes to the merge search, about half to
    the UNSAT proofs up to m = chi and half to the SAT search at chi + 1.
    """

    GRAPHS = ((19, 1), (20, 0), (21, 2), (23, 4), (24, 1), (24, 9))

    def __init__(self, workdir: str):
        self.instances = [Instance(f"gnp{n}-{s}", d.Graph.gnp(n, 0.5, s)) for n, s in self.GRAPHS]

    @staticmethod
    def run(inst: Instance):
        g = inst.graph
        k_star, coloring = d.chromatic_number(g)
        m_star, dfa = d.min_consistent(d.zhang_sample(g), g.num_vertices + 1)
        extracted = d.coloring_from_zhang_dfa(dfa, g)
        return k_star, coloring, m_star, dfa, extracted

    @staticmethod
    def check(inst: Instance, out, v: ck.Verdicts) -> None:
        k_star, coloring, m_star, dfa, extracted = out
        g = inst.graph
        edges = ck.canonical_edges(g)
        v.expect(m_star == k_star + 1, f"m* = {m_star} is not chi + 1 = {k_star + 1}")
        v.expect(ck.is_proper(edges, coloring.colors) and ck.num_colors(coloring.colors) <= k_star,
                 "the chi-coloring is proper")
        clique = ck.max_clique(g.num_vertices, edges)
        v.expect(ck.is_clique(clique, edges) and len(clique) <= k_star,
                 f"a {len(clique)}-clique exceeds chi = {k_star}")
        pos, neg = ck.zhang_expected(g)
        v.expect(dfa.num_states == m_star and ck.replay_violations(ck.table_of(dfa), pos, neg) == 0,
                 "the witness is consistent by replay")
        v.expect(ck.is_proper(edges, extracted.colors), "the extracted coloring is proper")


class BinaryRpni(Workload):
    """rpni and ratio_report on the all-prefixes binary sample of small graphs."""

    GRAPHS = (
        ("demo5", DEMO5, 3),
        ("c5", d.Graph.cycle(5), 3),
        ("k4", d.Graph.complete(4), 4),
        ("gnp6-0", d.Graph.gnp(6, 0.5, 0), 3),
        ("gnp6-2", d.Graph.gnp(6, 0.5, 2), 3),
    )

    def __init__(self, workdir: str):
        self.instances = [_reduced(f"rpni-{name}", g, K) for name, g, K in self.GRAPHS]

    @staticmethod
    def run(inst: Instance):
        g, params, enc = inst.graph, inst.params, inst.enc
        sample = d.binary_sample(g, params, enc)
        pta = d.prefix_tree_acceptor(sample)
        heuristic = d.rpni(sample)
        report = d.ratio_report(g, heuristic, params, enc)
        _k, coloring = d.chromatic_number(g)
        witness = d.binary_dfa_from_coloring(g, coloring, params, enc)
        return sample, pta, heuristic, report, witness

    @staticmethod
    def check(inst: Instance, out, v: ck.Verdicts) -> None:
        sample, pta, heuristic, report, witness = out
        g, K = inst.graph, inst.K
        p = _same_params(inst.params, K, g, v)
        edges = ck.canonical_edges(g)
        pos, neg = ck.binary_expected(g, p)
        v.expect(sample.positives == pos and sample.negatives == neg,
                 "the sample is the labeled prefix closure of the generated strings")
        nodes = ck.prefix_count(pos | neg)
        v.expect(pta.num_states == nodes and ck.replay_violations(ck.table_of(pta), pos, neg) == 0,
                 "the prefix tree has one state per prefix and is consistent")
        m = ck.table_of(heuristic)
        v.expect(ck.replay_violations(m, pos, neg) == 0, "the rpni output is consistent by replay")
        chi = ck.brute_chromatic(g.num_vertices, edges)
        v.expect(chi == K, f"chi = {chi}, the instance list says {K}")
        heads, _tails = ck.codes(g, p.head_len, p.tail_len)
        colors = ck.chain_classes(m, heads, p.L)
        k_hat, m_hat = ck.num_colors(colors), heuristic.num_states
        v.expect(ck.is_proper(edges, colors), "the extracted coloring is proper")
        v.expect((report.k_star, report.k_hat, report.m_hat, report.L) == (chi, k_hat, m_hat, p.L),
                 "the ratio report matches the recomputation")
        v.expect(chi <= k_hat <= m_hat // p.L, "k* <= k_hat <= floor(m_hat / L)")
        v.expect(chi * p.L <= m_hat <= nodes, "k* L <= m_hat <= prefix-tree nodes")
        v.expect(witness.num_states < (K + 1) * p.L
                 and ck.replay_violations(ck.table_of(witness), pos, neg) == 0,
                 "the forward witness is consistent with fewer than (K+1)L states")


class SingleRoundtrip(Workload):
    """The single-string instance and everything built from it, on legal
    parameters. Prefix materialization dominates time and memory."""

    GRAPHS = (
        ("k4", d.Graph.complete(4), 4),
        ("c4", d.Graph.cycle(4), 3),
        ("k3", d.Graph.complete(3), 3),
        ("p4", d.Graph.path(4), 2),
    )

    def __init__(self, workdir: str):
        self.instances = [_reduced(f"single-{name}", g, K) for name, g, K in self.GRAPHS]

    @staticmethod
    def run(inst: Instance):
        g, params, enc = inst.graph, inst.params, inst.enc
        _k, coloring = d.chromatic_number(g)
        word, sample, run = d.single_string(g, params, enc)
        witness = d.single_dfa_from_coloring(g, coloring, params, enc)
        two = d.two_chain_dfa(g, params, enc)
        pta = d.prefix_tree_acceptor(sample)
        machine_sample = d.dfa_sample_to_machine_sample(sample)
        extracted = d.coloring_from_single_dfa(witness, g, params, enc)
        violations = (len(d.consistency_violations(witness, sample)),
                      len(d.consistency_violations(two, sample)))
        return word, sample, run, witness, two, pta, machine_sample, extracted, violations

    @staticmethod
    def check(inst: Instance, out, v: ck.Verdicts) -> None:
        word, sample, run, witness, two, pta, machine_sample, extracted, violations = out
        g, K = inst.graph, inst.K
        p = _same_params(inst.params, K, g, v)
        expected, labels = ck.single_expected(g, p)
        v.expect(len(word) == ck.single_length(g, p), f"|Str| = {len(word)} is not 2|E|(N+head+L+tail)")
        v.expect(word == expected, "the string matches the definition")
        v.expect(ck.is_prefix_sample(sample.positives, sample.negatives, expected, labels),
                 "the sample is exactly the |Str|+1 prefixes, labeled by the pattern")
        v.expect(run.runs == {(expected, labels)} and machine_sample.runs == run.runs,
                 "the run sample and the converted machine sample hold the one run")
        v.expect(witness.num_states <= p.N + (K + 1) * p.L
                 and ck.run_consistent(ck.table_of(witness), expected, labels),
                 "the witness is consistent with at most N+(K+1)L states")
        v.expect(two.num_states < 2 * (p.N + 2 * p.L)
                 and ck.run_consistent(ck.table_of(two), expected, labels),
                 "the two-chain machine is consistent with fewer than 2(N+2L) states")
        v.expect(pta.num_states == len(expected) + 1
                 and ck.run_consistent(ck.table_of(pta), expected, labels),
                 "the prefix tree is one consistent path of |Str|+1 states")
        v.expect(extracted.num_colors <= K and ck.is_proper(ck.canonical_edges(g), extracted.colors),
                 "the extracted coloring is proper with at most K colors")
        v.expect(violations == (0, 0), "the library's consistency check rejects a consistent automaton")


# ---------------------------------------------------------------------------


def invoke(argv: list[str]) -> tuple[int, str]:
    """One `dfalab` invocation, in process, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


class CliFiles(Workload):
    """The documented `dfalab` pipelines, each invocation starting from
    empty caches as a fresh process would."""

    GRAPHS = (
        ("k3", d.Graph.complete(3), 3),
        ("p4", d.Graph.path(4), 2),
        ("c4", d.Graph.cycle(4), 2),
    )

    def __init__(self, workdir: str):
        self.root = os.path.join(workdir, "cli")
        self.instances = []
        for name, g, K in self.GRAPHS:
            inst = Instance(f"cli-{name}", g, K)
            os.makedirs(os.path.join(self.root, inst.name), exist_ok=True)
            with open(os.path.join(self.root, inst.name, "graph.col"), "w") as fh:
                fh.write(ck.dimacs(g))
            self.instances.append(inst)

    def close(self) -> None:
        shutil.rmtree(self.root)

    def ops(self, inst: Instance) -> list[Op]:
        g, K = inst.graph, inst.K
        n, edges = g.num_vertices, ck.canonical_edges(g)
        p = ck.legal_params(g, K)
        path = partial(os.path.join, self.root, inst.name)
        graph = path("graph.col")
        zpos, zneg = ck.zhang_expected(g)
        word, labels = ck.single_expected(g, p)

        def sample_is(file, pos, neg):
            def check(v):
                got_pos, got_neg = ck.parse_abbadingo(_read(path(file)))
                v.expect(got_pos == pos and got_neg == neg, f"{file} parses back to the expected sample")
            return check

        def prefix_sample(file, empty_included):
            def check(v):
                got_pos, got_neg = ck.parse_abbadingo(_read(path(file)))
                v.expect((() in got_neg) == empty_included
                         and ck.is_prefix_sample(got_pos, got_neg | {()}, word, labels),
                         f"{file} parses back to the labeled prefixes of the single string")
            return check

        def consistent(file, pos, neg, max_states):
            def check(v):
                m = ck.table_from_json(_read(path(file)))
                v.expect(m.num_states <= max_states and ck.replay_violations(m, pos, neg) == 0,
                         f"{file} is consistent with at most {max_states} states")
            return check

        def on_run(file, max_states):
            def check(v):
                m = ck.table_from_json(_read(path(file)))
                v.expect(m.num_states <= max_states and ck.run_consistent(m, word, labels),
                         f"{file} is consistent along the string with at most {max_states} states")
            return check

        def coloring(file, max_colors):
            def check(v):
                doc = json.loads(_read(path(file)))
                colors = doc["colors"]
                v.expect(len(colors) == n and ck.is_proper(edges, colors)
                         and ck.num_colors(colors) <= max_colors,
                         f"{file} is a proper coloring with at most {max_colors} colors")
            return check

        def text_is(file, expected):
            def check(v):
                v.expect(_read(path(file)) == expected, f"{file} holds the expected run")
            return check

        def machine(file, kind, source):
            def check(v):
                doc, src = json.loads(_read(path(file))), ck.table_from_json(_read(path(source)))
                if kind == "moore":
                    accepted = [q in src.accepting for q in range(src.num_states)]
                else:
                    accepted = [t in src.accepting for _q, _a, t in doc["transitions"]]
                v.expect(doc["type"] == kind and doc["states"] == src.num_states
                         and doc["output"] == ["+" if b else "-" for b in accepted],
                         f"{file} is the {kind} form of {source}")
            return check

        def dot(file, source):
            def check(v):
                src, text = ck.table_from_json(_read(path(source))), _read(path(file))
                v.expect(text.startswith("digraph")
                         and text.count("[shape=circle") + text.count("[shape=doublecircle")
                         == src.num_states
                         and text.count("[shape=doublecircle") == len(src.accepting),
                         f"{file} draws every state of {source}")
            return check

        def stdout_has(fragment):
            def check(v, text):
                v.expect(fragment in text, f"output lacks {fragment!r}")
            return check

        chi = ck.brute_chromatic(n, edges)
        steps = [
            (["reduce", "zhang", "--graph", graph, "--out", path("z.abb")], 0,
             sample_is("z.abb", zpos, zneg)),
            (["solve", path("z.abb"), "--max-m", str(n + 1), "--minimize", "--out", path("zw.json")], 0,
             consistent("zw.json", zpos, zneg, chi + 1), stdout_has(f"m* = {chi + 1} ")),
            (["solve", path("z.abb"), "--max-m", str(chi)], 1, None, stdout_has("unsat")),
            (["extract", "--kind", "zhang", "--graph", graph, "--dfa", path("zw.json"),
              "--out", path("zc.json")], 0, coloring("zc.json", chi)),
            (["convert", "--to", "moore", path("zw.json"), path("zm.json")], 0,
             machine("zm.json", "moore", "zw.json")),
            (["reduce", "binary", "--graph", graph, "--K", str(K), "--out", path("b.abb")], 0,
             sample_is("b.abb", *ck.binary_expected(g, p))),
            (["witness", "--kind", "binary", "--graph", graph, "--K", str(K), "--out", path("bw.json")], 0,
             consistent("bw.json", *ck.binary_expected(g, p), (K + 1) * p.L - 1)),
            (["extract", "--kind", "binary", "--graph", graph, "--dfa", path("bw.json"),
              "--meta", path("b.abb.meta.json"), "--out", path("bc.json")], 0, coloring("bc.json", K)),
            (["convert", "--to", "mealy", path("bw.json"), path("bm.json")], 0,
             machine("bm.json", "mealy", "bw.json")),
            (["dot", path("bw.json"), path("bw.dot")], 0, dot("bw.dot", "bw.json")),
            (["reduce", "single", "--graph", graph, "--K", str(K), "--out", path("s.abb")], 0,
             prefix_sample("s.abb", True)),
            (["witness", "--kind", "single", "--graph", graph, "--K", str(K), "--out", path("sw.json")], 0,
             on_run("sw.json", p.N + (K + 1) * p.L)),
            (["witness", "--kind", "two-chain", "--graph", graph, "--K", str(K),
              "--out", path("tw.json")], 0, on_run("tw.json", 2 * (p.N + 2 * p.L) - 1)),
            (["extract", "--kind", "single", "--graph", graph, "--dfa", path("sw.json"),
              "--meta", path("s.abb.meta.json"), "--out", path("sc.json")], 0, coloring("sc.json", K)),
            (["convert", "--to", "machine-sample", path("s.abb"), path("runs.txt")], 0,
             text_is("runs.txt", ck.run_text(word, labels))),
            (["convert", "--to", "dfa-sample", path("s.abb.run.txt"), path("s2.abb")], 0,
             prefix_sample("s2.abb", False)),
            (["verify", "--kind", "zhang", "--graph", graph, "--K", str(chi)], 0, None,
             stdout_has(": PASS")),
            (["verify", "--kind", "zhang", "--graph", graph, "--K", str(chi - 1)], 1, None,
             stdout_has(": FAIL")),
            (["verify", "--kind", "binary", "--graph", graph, "--K", str(K), "--ratio"], 0, None,
             stdout_has(": PASS")),
            (["verify", "--kind", "single", "--graph", graph, "--K", str(K)], 0, None,
             stdout_has(": PASS")),
        ]
        return [self._op(inst.name, *step) for step in steps]

    @staticmethod
    def _op(instance, argv, code, check_files, check_stdout=None) -> Op:
        label = f"{instance}: dfalab {' '.join(a for a in argv if '/' not in a)}"

        def check(out, v: ck.Verdicts) -> None:
            got, text = out
            v.expect(got == code, f"exit code {got}, documented {code}")
            if check_stdout is not None:
                check_stdout(v, text)
            if check_files is not None and got == code:
                check_files(v)

        return Op(label, partial(invoke, argv), check,
                  span=(f"cli.{argv[0]}", f"cli.{argv[0]}_s"), fresh=True)


WORKLOADS = {
    "zhang-exact": ZhangExact,
    "binary-rpni": BinaryRpni,
    "single-roundtrip": SingleRoundtrip,
    "cli-files": CliFiles,
}
