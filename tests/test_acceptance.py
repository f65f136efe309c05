"""Acceptance suite: every constructive equivalence certified at desk scale.

One test per criterion; each prints a PASS/FAIL line (visible with -s) and
enforces its runtime budget.
"""
from __future__ import annotations

import contextlib
import random
import time

from dfalab import (
    BoundExceededError,
    Graph,
    ReductionParams,
    binary_dfa_from_coloring,
    binary_sample,
    brute_force_min,
    chromatic_number,
    coloring_from_binary_dfa,
    coloring_from_single_dfa,
    consistency_violations,
    default_params,
    dfa_sample_to_machine_sample,
    is_proper_coloring,
    machine_sample_to_dfa_sample,
    make_encoding,
    min_consistent,
    prefix_tree_acceptor,
    ratio_report,
    rpni,
    single_dfa_from_coloring,
    single_string,
    two_chain_dfa,
    zhang_dfa_from_coloring,
    zhang_sample,
)

from conftest import random_sample, suite_graphs


@contextlib.contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds the {budget}s budget"


def oracle_coloring(g: Graph):
    found = chromatic_number(g)
    assert found is not None
    return found


def test_criterion_1_zhang_equivalence_exact():
    with criterion(1, "zhang equivalence: min consistent = chromatic + 1", 60):
        results = {}
        for name, g in suite_graphs():
            k_star = chromatic_number(g)[0]
            m_star, witness = min_consistent(zhang_sample(g), k_star + 2)
            assert m_star == k_star + 1, f"{name}: m*={m_star}, k*={k_star}"
            assert not consistency_violations(witness, zhang_sample(g)), name
            results[name] = m_star
        assert results["demo5"] == 4  # chromatic number 3


def test_criterion_2_binary_forward():
    with criterion(2, "binary forward witness: consistent, acyclic, < (K+1)L", 5):
        demo5 = dict(suite_graphs())["demo5"]
        for g, bound in ((demo5, 228), (Graph.complete(3), 100)):
            params = default_params(g, 3)
            enc = make_encoding(g, params)
            assert (3 + 1) * params.L == bound
            _k, coloring = oracle_coloring(g)
            w = binary_dfa_from_coloring(g, coloring, params, enc)
            assert not consistency_violations(w, binary_sample(g, params, enc))
            assert w.is_acyclic()
            assert w.num_states < bound


def test_criterion_3_binary_converse():
    with criterion(3, "binary converse: proper extraction, chain counting", 10):
        for name, g in suite_graphs():
            k_star, coloring = oracle_coloring(g)
            params = default_params(g, k_star)
            enc = make_encoding(g, params)
            w = binary_dfa_from_coloring(g, coloring, params, enc)
            extracted = coloring_from_binary_dfa(w.completed(), g, params, enc)
            assert is_proper_coloring(g, extracted), name
            assert extracted.num_colors <= k_star, name
            assert extracted.num_colors * params.L <= w.num_states, name
            pta = prefix_tree_acceptor(binary_sample(g, params, enc)).completed()
            from_pta = coloring_from_binary_dfa(pta, g, params, enc)
            assert from_pta.num_colors == g.num_vertices, name


def test_criterion_4_single_string_threshold():
    with criterion(4, "single-string: sample shape, witness bound, extraction", 10):
        demo5 = dict(suite_graphs())["demo5"]
        for g, expected_len in ((Graph.complete(3), 780), (demo5, None)):
            k = 3
            params = default_params(g, k)
            enc = make_encoding(g, params)
            word, sample, run = single_string(g, params, enc)
            # (a) the sample is exactly the labeled prefixes of one string
            formula = 2 * g.num_edges * (
                params.N + params.head_len + params.L + params.tail_len
            )
            assert len(word) == formula
            if expected_len is not None:
                assert len(word) == expected_len
            assert sample.strings() == {word[:i] for i in range(len(word) + 1)}
            assert len(dfa_sample_to_machine_sample(sample).runs) == 1
            # (b) witness within N+(K+1)L states, consistent
            _k_star, coloring = oracle_coloring(g)
            w = single_dfa_from_coloring(g, coloring, params, enc)
            bound = params.N + (k + 1) * params.L
            if g.num_vertices == 3:
                assert bound == 201
            assert w.num_states <= bound
            assert not consistency_violations(w, sample)
            # (c) extraction recovers a proper coloring within K classes
            extracted = coloring_from_single_dfa(w, g, params, enc)
            assert is_proper_coloring(g, extracted)
            assert extracted.num_colors <= k
            # (d) the zero-run labels hold verbatim
            for j in range(1, params.N):
                assert sample.label((0,) * j) is True
            assert sample.label((0,) * params.N) is False


def test_criterion_5_two_chain_bound():
    with criterion(5, "two-chain automaton: consistent, < 2(N+2L), any k*", 10):
        demo5 = dict(suite_graphs())["demo5"]
        for g in (Graph.complete(3), demo5, Graph.complete(4)):
            params = default_params(g, 3)
            enc = make_encoding(g, params)
            dfa = two_chain_dfa(g, params, enc)  # consistency checked at build
            bound = 2 * (params.N + 2 * params.L)
            if g.num_vertices == 3:
                assert bound == 302
            assert dfa.num_states < bound
        assert chromatic_number(Graph.complete(4))[0] == 4  # exceeds K = 3


def test_criterion_6_solver_exactness():
    with criterion(6, "exact search agrees with brute force on 200 samples", 120):
        rng = random.Random(20)
        disagreements = 0
        for _ in range(200):
            s = random_sample(rng, max_strings=8, max_len=5)
            try:
                expected, _ = brute_force_min(s)
            except BoundExceededError:
                expected = None
            try:
                got, witness = min_consistent(s, 3)
            except BoundExceededError:
                got, witness = None, None
            if got != expected:
                disagreements += 1
            if witness is not None:
                assert not consistency_violations(witness, s)
        assert disagreements == 0


def test_criterion_7_ratio_chain():
    with criterion(7, "ratio chain: k* <= k_hat <= floor(m_hat/L)", 30):
        demo5 = dict(suite_graphs())["demo5"]
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        sample = binary_sample(demo5, params, enc)
        heuristic = rpni(sample)
        assert not consistency_violations(heuristic, sample)
        report = ratio_report(demo5, heuristic, params, enc)
        assert report.k_star <= report.k_hat <= report.m_hat // report.L
        assert report.m_star_lower == report.k_star * report.L
        assert report.k_star * report.L <= report.m_hat


def _witnesses_with_samples():
    demo5 = dict(suite_graphs())["demo5"]
    for g in (Graph.complete(3), demo5):
        k_star, coloring = oracle_coloring(g)
        zs = zhang_sample(g)
        yield zhang_dfa_from_coloring(g, coloring).completed(), zs
        params = default_params(g, k_star)
        enc = make_encoding(g, params)
        bs = binary_sample(g, params, enc)
        yield binary_dfa_from_coloring(g, coloring, params, enc).completed(), bs
        _word, ss, _run = single_string(g, params, enc)
        yield single_dfa_from_coloring(g, coloring, params, enc), ss
        yield two_chain_dfa(g, params, enc), ss


def test_criterion_8_machine_transfer():
    with criterion(8, "moore/mealy transfer and sample round trips", 10):
        rng = random.Random(8)
        for dfa, sample in _witnesses_with_samples():
            moore, mealy = dfa.to_moore(), dfa.to_mealy()
            ms = dfa_sample_to_machine_sample(sample)
            # per-position labels along every maximal string cover every
            # labeled prefix of the sample
            for word, expected in ms.runs:
                assert moore.outputs(word) == expected
            for _ in range(1000):
                w = tuple(rng.randint(0, dfa.alphabet.size - 1)
                          for _ in range(rng.randint(0, 40)))
                assert moore.outputs(w) == mealy.outputs(w)
            back = machine_sample_to_dfa_sample(ms)
            assert back.positives == sample.positives - {()}
            assert back.negatives == sample.negatives - {()}
            assert dfa_sample_to_machine_sample(back) == ms


def test_criterion_9_adfa_facts():
    with criterion(9, "prefix trees acyclic+consistent; tiny single string's tree = |Str|+1 path", 30):
        demo5 = dict(suite_graphs())["demo5"]
        generated = []
        for _name, g in suite_graphs():
            generated.append(zhang_sample(g))
            params = default_params(g, 3)
            enc = make_encoding(g, params)
            generated.append(binary_sample(g, params, enc))
        for g in (Graph.complete(3), demo5):
            params = default_params(g, 3)
            enc = make_encoding(g, params)
            generated.append(single_string(g, params, enc)[1])
        for sample in generated:
            pta = prefix_tree_acceptor(sample)
            assert pta.is_acyclic()
            assert not consistency_violations(pta, sample)
        # under-bound instance: the equivalences no longer apply, but the
        # prefix tree is the bare path over the string, and no acyclic
        # automaton is smaller: its run on Str visits |Str|+1 distinct
        # states, since a state met twice would lie on a cycle
        tri = Graph.complete(3)
        tiny = ReductionParams(K=3, L=2, N=3, head_len=2, tail_len=2)
        enc = make_encoding(tri, tiny)
        word, sample, _run = single_string(tri, tiny, enc)
        pta = prefix_tree_acceptor(sample)
        assert pta.num_states == len(word) + 1
        assert [pta.walk(word[:i]) for i in range(len(word) + 1)] == list(range(len(word) + 1))
        assert pta.is_acyclic()
        assert not consistency_violations(pta, sample)
