"""Both directions of every size equivalence, the two-chain machine, and
the ratio bookkeeping."""
from __future__ import annotations

from collections import Counter

import pytest

from dfalab import (
    Alphabet,
    Coloring,
    Dfa,
    ExtractionError,
    Graph,
    InconsistentDfaError,
    PartialDfa,
    binary_dfa_from_coloring,
    binary_sample,
    chromatic_number,
    coloring_from_binary_dfa,
    coloring_from_single_dfa,
    coloring_from_zhang_dfa,
    consistency_violations,
    default_params,
    is_proper_coloring,
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
from dfalab.reductions import binary_runs
from dfalab.witnesses import _extract_grouping, _quotient, _replay

from conftest import suite_graphs


def oracle_coloring(g: Graph) -> tuple[int, Coloring]:
    found = chromatic_number(g)
    assert found is not None
    return found


class TestZhangForward:
    def test_demo5_reference_coloring(self, demo5):
        w = zhang_dfa_from_coloring(demo5, Coloring((1, 2, 3, 1, 1), 3))
        assert w.num_states == 4
        assert not consistency_violations(w, zhang_sample(demo5))

    def test_single_edge(self):
        g = Graph.path(2)
        w = zhang_dfa_from_coloring(g, Coloring((1, 2), 2))
        assert w.num_states == 3
        assert not consistency_violations(w, zhang_sample(g))

    def test_edgeless_one_coloring(self):
        g = Graph.edgeless(3)
        w = zhang_dfa_from_coloring(g, Coloring((1, 1, 1), 1))
        assert w.num_states == 2
        assert not consistency_violations(w, zhang_sample(g))

    def test_improper_coloring_rejected(self, triangle):
        with pytest.raises(ValueError, match="not proper"):
            zhang_dfa_from_coloring(triangle, Coloring((1, 1, 2), 2))


class TestZhangConverse:
    def test_round_trip_demo5(self, demo5):
        k, coloring = oracle_coloring(demo5)
        w = zhang_dfa_from_coloring(demo5, coloring).completed()
        back = coloring_from_zhang_dfa(w, demo5)
        assert is_proper_coloring(demo5, back)
        assert back.num_colors <= k

    def test_edgeless_two_state_dfa(self):
        g = Graph.edgeless(3)
        w = zhang_dfa_from_coloring(g, Coloring((1, 1, 1), 1)).completed()
        assert coloring_from_zhang_dfa(w, g).num_colors == 1

    def test_solver_witness_for_triangle(self, triangle):
        m_star, w = min_consistent(zhang_sample(triangle), 5)
        assert m_star == 4
        assert isinstance(w, Dfa)
        back = coloring_from_zhang_dfa(w, triangle)
        assert is_proper_coloring(triangle, back)
        assert back.num_colors == 3

    def test_inconsistent_dfa_rejected(self, triangle):
        from dfalab import Alphabet

        alphabet = zhang_sample(triangle).alphabet
        accept_all = Dfa(1, alphabet, 0, ((0,) * alphabet.size,), frozenset({0}))
        with pytest.raises(InconsistentDfaError):
            coloring_from_zhang_dfa(accept_all, triangle)


class TestBinaryForward:
    @pytest.mark.parametrize("which,bound", [("demo5", 228), ("triangle", 100)])
    def test_consistent_acyclic_under_bound(self, which, bound, demo5, triangle):
        g = {"demo5": demo5, "triangle": triangle}[which]
        params = default_params(g, 3)
        enc = make_encoding(g, params)
        k, coloring = oracle_coloring(g)
        w = binary_dfa_from_coloring(g, coloring, params, enc)
        assert not consistency_violations(w, binary_sample(g, params, enc))
        assert w.is_acyclic()
        assert w.num_states < bound == (k + 1) * params.L

    def test_illegal_params_rejected(self, triangle):
        from dfalab import ReductionParams

        bad = ReductionParams(K=3, L=4, N=101, head_len=2, tail_len=2)
        enc = make_encoding(triangle, bad)
        with pytest.raises(ValueError, match="illegal"):
            binary_dfa_from_coloring(triangle, Coloring((1, 2, 3), 3), bad, enc)


class TestBinaryConverse:
    def test_round_trip_demo5(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        k, coloring = oracle_coloring(demo5)
        w = binary_dfa_from_coloring(demo5, coloring, params, enc)
        back = coloring_from_binary_dfa(w.completed(), demo5, params, enc)
        assert is_proper_coloring(demo5, back)
        assert back.num_colors <= k
        assert back.num_colors * params.L <= w.num_states

    def test_chain_analysis_invariants(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        _k, coloring = oracle_coloring(demo5)
        w = binary_dfa_from_coloring(demo5, coloring, params, enc).completed()
        back = coloring_from_binary_dfa(w, demo5, params, enc)
        # each vertex's chain is its head + 0^L states on the extractor's replay
        walks = _replay(w, Alphabet.binary(), binary_runs(demo5, params, enc), False, "test")
        h, L = params.head_len, params.L
        chains = [walks[v][h - 1 : h + L] for v in range(demo5.num_vertices)]
        first = {}
        for c, chain in zip(back.colors, chains):
            first.setdefault(c, chain)
            assert chain[-1] == first[c][-1]  # a class is one end state
        assert len({chain[-1] for chain in first.values()}) == back.num_colors
        seen = set()
        for chain in first.values():
            assert len(chain) == L + 1
            assert len(set(chain)) == len(chain)
            assert not (seen & set(chain))
            seen |= set(chain)

    def test_pta_keeps_all_vertices_apart(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        pta = prefix_tree_acceptor(binary_sample(demo5, params, enc)).completed()
        back = coloring_from_binary_dfa(pta, demo5, params, enc)
        assert back.num_colors == demo5.num_vertices

    def test_triangle_pta_matches_chromatic_number(self, triangle):
        # coincidence specific to complete graphs: every proper coloring of
        # the triangle uses exactly three colors
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        pta = prefix_tree_acceptor(binary_sample(triangle, params, enc)).completed()
        back = coloring_from_binary_dfa(pta, triangle, params, enc)
        assert back.num_colors == 3 == chromatic_number(triangle)[0]

    def test_consistency_is_required(self, triangle):
        from dfalab import Alphabet

        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        reject_all = Dfa(1, Alphabet.binary(), 0, ((0, 0),), frozenset())
        with pytest.raises(InconsistentDfaError):
            coloring_from_binary_dfa(reject_all, triangle, params, enc)

    def test_properness_needs_only_consistency(self):
        # any consistent automaton extracts to a proper coloring, whatever
        # its size: test on prefix trees of random graphs
        import random

        rng = random.Random(5)
        for _ in range(5):
            g = Graph.gnp(5, 0.6, seed=rng.randint(0, 10**6))
            params = default_params(g, 3)
            enc = make_encoding(g, params)
            pta = prefix_tree_acceptor(binary_sample(g, params, enc)).completed()
            back = coloring_from_binary_dfa(pta, g, params, enc)
            assert is_proper_coloring(g, back)


class TestSingleString:
    def test_triangle_witness_and_round_trip(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _word, sample, _run = single_string(triangle, params, enc)
        k, coloring = oracle_coloring(triangle)
        w = single_dfa_from_coloring(triangle, coloring, params, enc)
        assert not consistency_violations(w, sample)
        assert w.num_states <= params.N + (k + 1) * params.L == 201
        back = coloring_from_single_dfa(w, triangle, params, enc)
        assert is_proper_coloring(triangle, back)
        assert back.num_colors <= k

    def test_demo5_round_trip(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        k, coloring = oracle_coloring(demo5)
        w = single_dfa_from_coloring(demo5, coloring, params, enc)
        back = coloring_from_single_dfa(w, demo5, params, enc)
        assert is_proper_coloring(demo5, back)
        assert back.num_colors == 3

    def test_zero_run_ends_rejecting(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _k, coloring = oracle_coloring(triangle)
        w = single_dfa_from_coloring(triangle, coloring, params, enc)
        assert not w.accepts((0,) * params.N)

    def test_inconsistent_input_rejected(self, triangle):
        from dfalab import Alphabet

        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        reject_all = Dfa(1, Alphabet.binary(), 0, ((0, 0),), frozenset())
        with pytest.raises(InconsistentDfaError):
            coloring_from_single_dfa(reject_all, triangle, params, enc)

    def test_oversized_input_rejected(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _k, coloring = oracle_coloring(triangle)
        w = single_dfa_from_coloring(triangle, coloring, params, enc)
        extra = 200
        rows = w.transitions + (w.transitions[0],) * extra
        big = Dfa(w.num_states + extra, w.alphabet, w.initial, rows, w.accepting)
        with pytest.raises(ValueError, match="above the bound"):
            coloring_from_single_dfa(big, triangle, params, enc)


class TestTwoChain:
    @pytest.mark.parametrize("maker", [Graph.complete, None], ids=["k3", "demo5"])
    def test_consistent_under_bound(self, maker, demo5):
        g = Graph.complete(3) if maker else demo5
        params = default_params(g, 3)
        enc = make_encoding(g, params)
        dfa = two_chain_dfa(g, params, enc)
        assert dfa.num_states < 2 * (params.N + 2 * params.L)
        _word, sample, _run = single_string(g, params, enc)
        assert not consistency_violations(dfa, sample)

    def test_k4_independent_of_chromatic_number(self, k4):
        # chromatic number 4 exceeds K=3, yet the bound still holds
        params = default_params(k4, 3)
        enc = make_encoding(k4, params)
        dfa = two_chain_dfa(k4, params, enc)
        assert chromatic_number(k4)[0] == 4
        assert dfa.num_states < 2 * (params.N + 2 * params.L)
        _word, sample, _run = single_string(k4, params, enc)
        assert not consistency_violations(dfa, sample)

    def test_needs_an_edge(self):
        g = Graph.edgeless(2)
        params = default_params(g, 1)
        with pytest.raises(ValueError, match="at least one edge"):
            two_chain_dfa(g, params, make_encoding(g, params))


class TestRatioReport:
    def test_pta_of_triangle(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        sample = binary_sample(triangle, params, enc)
        pta = prefix_tree_acceptor(sample).completed()
        report = ratio_report(triangle, pta, params, enc)
        assert report.k_hat == 3 == report.k_star
        assert report.m_hat == pta.num_states
        assert report.m_star_lower == 3 * params.L

    def test_rpni_on_demo5(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        heuristic = rpni(binary_sample(demo5, params, enc))
        report = ratio_report(demo5, heuristic, params, enc)
        assert report.k_star <= report.k_hat <= report.m_hat // params.L
        assert report.k_star * params.L == report.m_star_lower

    def test_witness_as_its_own_heuristic(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        _k, coloring = oracle_coloring(demo5)
        w = binary_dfa_from_coloring(demo5, coloring, params, enc)
        report = ratio_report(demo5, w.completed(), params, enc)
        assert report.k_hat <= 3
        assert report.m_hat < 228

    def test_as_dict_fields(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        pta = prefix_tree_acceptor(binary_sample(triangle, params, enc)).completed()
        d = ratio_report(triangle, pta, params, enc).as_dict()
        assert set(d) == {"m_hat", "k_hat", "L", "k_star", "m_star_lower"}


def _flip_one_inner_prefix(dfa: Dfa, sample, inner) -> Dfa:
    """`dfa` with one state's verdict flipped: the first state, in preorder,
    that exactly one sample prefix reaches, where that prefix ends no run
    (its tree node has children) and its length passes `inner`.  So the
    result disagrees with `dfa` on that one sample prefix and no other."""
    state, depth = [dfa.initial] * len(sample.labels), [0] * len(sample.labels)
    for node, children in enumerate(sample.children):  # parents come first
        for a, child in children.items():
            state[child], depth[child] = dfa.transitions[state[node]][a], depth[node] + 1
    reached = Counter(state)
    node = next(n for n in range(len(state))
                if reached[state[n]] == 1 and sample.children[n] and inner(depth[n]))
    flipped = Dfa(dfa.num_states, dfa.alphabet, dfa.initial, dfa.transitions,
                  dfa.accepting ^ {state[node]})
    assert len(consistency_violations(dfa, sample)) == 0
    assert len(consistency_violations(flipped, sample)) == 1
    return flipped


class TestReplay:
    """Each extractor replays every prefix of its family's runs, not only
    their ends, and checks the automaton's alphabet first."""

    @staticmethod
    def _inner(params, offset=0):
        # a body or tail prefix short of the body end and of the tail end
        head_end = offset + params.head_len
        body_end = head_end + params.L
        return lambda d: head_end < d < body_end or body_end < d < body_end + params.tail_len

    def test_zhang_rejects_one_wrong_vertex_prefix(self, triangle):
        _k, coloring = oracle_coloring(triangle)
        w = zhang_dfa_from_coloring(triangle, coloring).completed()
        flipped = _flip_one_inner_prefix(w, zhang_sample(triangle), lambda d: d == 1)
        with pytest.raises(InconsistentDfaError):
            coloring_from_zhang_dfa(flipped, triangle)

    def test_binary_rejects_one_wrong_inner_prefix(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _k, coloring = oracle_coloring(triangle)
        w = binary_dfa_from_coloring(triangle, coloring, params, enc).completed()
        flipped = _flip_one_inner_prefix(w, binary_sample(triangle, params, enc), self._inner(params))
        with pytest.raises(InconsistentDfaError):
            coloring_from_binary_dfa(flipped, triangle, params, enc)

    def test_single_rejects_one_wrong_inner_prefix(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _k, coloring = oracle_coloring(triangle)
        w = single_dfa_from_coloring(triangle, coloring, params, enc)
        inner = self._inner(params, offset=params.N)
        flipped = _flip_one_inner_prefix(w, single_string(triangle, params, enc)[1],
                                         lambda d: inner((d - 1) % params.block_len() + 1))
        with pytest.raises(InconsistentDfaError):
            coloring_from_single_dfa(flipped, triangle, params, enc)

    def test_a_dfa_over_the_wrong_alphabet_is_rejected(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _k, coloring = oracle_coloring(triangle)
        six = zhang_dfa_from_coloring(triangle, coloring).completed()
        two = binary_dfa_from_coloring(triangle, coloring, params, enc).completed()
        with pytest.raises(ValueError, match="machine has 2 symbols, sample has 6"):
            coloring_from_zhang_dfa(two, triangle)
        for extract in (coloring_from_binary_dfa, coloring_from_single_dfa):
            with pytest.raises(ValueError, match="machine has 6 symbols, sample has 2"):
                extract(six, triangle, params, enc)


def test_round_trips_across_the_suite():
    for name, g in suite_graphs():
        k, coloring = oracle_coloring(g)
        zw = zhang_dfa_from_coloring(g, coloring).completed()
        back = coloring_from_zhang_dfa(zw, g)
        assert back.num_colors <= k, name

        params = default_params(g, k)
        enc = make_encoding(g, params)
        bw = binary_dfa_from_coloring(g, coloring, params, enc)
        assert bw.num_states < (k + 1) * params.L, name
        extracted = coloring_from_binary_dfa(bw.completed(), g, params, enc)
        assert extracted.num_colors <= k, name


class TestChainsOffTheReplay:
    """Extractors read each vertex's chain off the replay, so they accept any
    consistent automaton as given, partial or not."""

    @staticmethod
    def _seed5_head_edge():
        # gnp6-seed5's vertex 0 is isolated, so no block of the single string
        # reads its head code; return the forward witness at K = 3 and the
        # 0-edge that only that code uses
        g = dict(suite_graphs())["gnp6-seed5"]
        params = default_params(g, 3)
        enc = make_encoding(g, params)
        w = single_dfa_from_coloring(g, oracle_coloring(g)[1], params, enc)
        code = enc.vertex_codes[0]
        source = w.walk((0,) * params.N + code[:-1])
        assert code[-1] == 0 and not any(0 in edge for edge in g.edges)
        return g, params, enc, w, source

    @pytest.mark.parametrize("target", ["self-loop", "missing"])
    def test_an_isolated_vertex_joins_block_0(self, target):
        g, params, enc, w, source = self._seed5_head_edge()
        rows = [list(row) for row in w.transitions]
        rows[source][0] = source if target == "self-loop" else None
        m = (Dfa if target == "self-loop" else PartialDfa)(
            w.num_states, w.alphabet, w.initial, tuple(map(tuple, rows)), w.accepting)
        assert m.num_states <= params.N + (params.K + 1) * params.L
        assert not consistency_violations(m, single_string(g, params, enc)[1])
        coloring = coloring_from_single_dfa(m, g, params, enc)
        assert is_proper_coloring(g, coloring) and coloring.num_colors <= params.K
        assert coloring.colors[0] == coloring.colors[1]  # vertex 1 heads block 0

    def test_a_revisiting_chain_is_rejected(self):
        with pytest.raises(ExtractionError, match="revisit"):
            _extract_grouping([[0, 1, 0]], Graph.edgeless(1), 2)

    def test_classes_sharing_a_state_are_rejected(self):
        g = Graph(2, frozenset({(0, 1)}))
        with pytest.raises(ExtractionError, match="overlap"):
            _extract_grouping([[0, 1, 2], [3, 1, 4]], g, 2)
        assert _extract_grouping([[0, 1, 2], [3, 5, 4]], g, 2).colors == (1, 2)
        # only a class's first chain is counted: vertex 2 shares vertex 0's end
        # state, and its chain's other states are not checked against the rest
        g3 = Graph(3, frozenset({(0, 1)}))
        assert _extract_grouping([[0, 1, 2], [3, 5, 4], [3, 1, 2]], g3, 2).colors == (1, 2, 1)

    @pytest.mark.parametrize("name,g", suite_graphs(), ids=[n for n, _ in suite_graphs()])
    def test_partial_automata_extract_as_their_completions(self, name, g):
        k, coloring = oracle_coloring(g)
        params = default_params(g, k)
        enc = make_encoding(g, params)
        zw = zhang_dfa_from_coloring(g, coloring)
        assert coloring_from_zhang_dfa(zw, g) == coloring_from_zhang_dfa(zw.completed(), g)
        for m in (binary_dfa_from_coloring(g, coloring, params, enc),
                  prefix_tree_acceptor(binary_sample(g, params, enc))):
            assert isinstance(m, PartialDfa)
            assert (coloring_from_binary_dfa(m, g, params, enc)
                    == coloring_from_binary_dfa(m.completed(), g, params, enc))


class TestQuotient:
    def test_keys_become_states_in_order_of_first_appearance(self):
        # the strings 0, 00 and 1 with 00 merged into the empty prefix
        runs = [[(None, "root", False), (0, "zero", True), (0, "root", False)],
                [(None, "root", False), (1, "one", True)]]
        q = _quotient(Alphabet.binary(), runs)
        assert q.transitions == ((1, 2), (0, None), (None, None))
        assert q.accepting == frozenset({1, 2})

    def test_one_key_both_accepting_and_rejecting(self):
        runs = [[(None, "root", False), (0, "x", True)],
                [(None, "root", False), (1, "x", False)]]
        with pytest.raises(ExtractionError, match="both accepting and rejecting"):
            _quotient(Alphabet.binary(), runs)

    def test_one_key_two_successors(self):
        runs = [[(None, "root", False), (0, "x", False), (1, "y", True)],
                [(None, "root", False), (1, "x", False), (1, "z", True)]]
        with pytest.raises(ExtractionError, match="two successors on 1"):
            _quotient(Alphabet.binary(), runs)


# Forward-witness state counts at K = k*: (zhang, binary, single, two-chain),
# single and two-chain only on graphs with an edge.
WITNESS_STATES = {
    "triangle": (4, 92, 193, 265),
    "c5": (4, 184, 389, 533),
    "k4": (5, 248, 514, 657),
    "demo5": (4, 207, 436, 593),
    "edgeless4": (2, 21),
    "p4": (3, 73, 161, 245),
    "gnp6-seed0": (4, 218, 463, 633),
    "gnp6-seed1": (4, 344, 733, 1003),
    "gnp6-seed2": (4, 216, 461, 633),
    "gnp6-seed3": (5, 338, 704, 901),
    "gnp6-seed4": (5, 519, 1085, 1391),
    "gnp6-seed5": (4, 197, 418, 573),
    "gnp6-seed6": (4, 240, 509, 695),
    "gnp6-seed7": (4, 401, 854, 1165),
    "gnp6-seed8": (4, 368, 789, 1083),
    "gnp6-seed9": (4, 259, 552, 755),
}


@pytest.mark.parametrize("name,g", suite_graphs(), ids=[n for n, _ in suite_graphs()])
def test_forward_witness_state_counts(name, g):
    k, coloring = oracle_coloring(g)
    params = default_params(g, k)
    enc = make_encoding(g, params)
    binary = binary_dfa_from_coloring(g, coloring, params, enc)
    assert binary.is_acyclic()
    counts = [zhang_dfa_from_coloring(g, coloring).num_states, binary.num_states]
    if g.num_edges:
        counts.append(single_dfa_from_coloring(g, coloring, params, enc).num_states)
        counts.append(two_chain_dfa(g, params, enc).num_states)
    assert tuple(counts) == WITNESS_STATES[name]
