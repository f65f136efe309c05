"""Exact search, brute-force oracle agreement, RPNI baseline."""
from __future__ import annotations

import functools
import hashlib
import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfalab import (
    Alphabet,
    BoundExceededError,
    Dfa,
    DfaSample,
    Graph,
    PartialDfa,
    SolveStatus,
    binary_sample,
    brute_force_min,
    chromatic_number,
    consistency_violations,
    default_params,
    exists_consistent,
    make_encoding,
    min_consistent,
    prefix_tree_acceptor,
    rpni,
    single_string,
    suite_graphs,
    zhang_sample,
)

from dfalab import solver
from dfalab.formats import automaton_to_json
from dfalab.solver import _MergeSearch, _Pta

from conftest import DEMO5_EDGES, random_sample

BIN = Alphabet.binary()


def sample(positives, negatives, alphabet=BIN) -> DfaSample:
    return DfaSample(alphabet, frozenset(positives), frozenset(negatives))


def _reduced_sample(kind: str, g: Graph, K: int | None) -> DfaSample:
    if kind == "zhang":
        return zhang_sample(g)
    params = default_params(g, K)
    enc = make_encoding(g, params)
    return binary_sample(g, params, enc) if kind == "binary" else single_string(g, params, enc)[1]


class TestExistsConsistent:
    def test_demo5_zhang_sat_at_four(self, demo5):
        out = exists_consistent(zhang_sample(demo5), 4)
        assert out.status is SolveStatus.SAT
        assert isinstance(out.witness, Dfa)
        assert out.witness.num_states <= 4

    def test_demo5_zhang_unsat_at_three(self, demo5):
        # three states would mean a 2-coloring; the graph has a triangle, so
        # the root and the triangle's vertex nodes are a 4-clique of
        # conflicting tree nodes, and the clique bound decides without search
        out = exists_consistent(zhang_sample(demo5), 3)
        assert out.status is SolveStatus.UNSAT
        assert out.witness is None
        assert out.states_explored == 0

    def test_c5_zhang_unsat_at_three_needs_the_search(self):
        # c5 has no triangle: the greedy clique has 3 nodes, so the odd cycle
        # must be refuted by the merge search itself
        out = exists_consistent(zhang_sample(Graph.cycle(5)), 3)
        assert out.status is SolveStatus.UNSAT
        assert out.witness is None
        assert out.states_explored > 0

    def test_max_states_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^max_states must be at least 1$"):
            exists_consistent(sample([()], []), 0)

    @pytest.mark.parametrize("bound", [3.5, True], ids=["float", "bool"])
    def test_max_states_that_is_not_an_int_is_refused(self, bound):
        # decided as m = 3 and m = 1 if taken for ints
        with pytest.raises(ValueError, match="^max_states must be an int$"):
            exists_consistent(zhang_sample(Graph.cycle(5)), bound)

    def test_epsilon_positive_needs_one_state(self):
        out = exists_consistent(sample([()], []), 1)
        assert out.status is SolveStatus.SAT
        assert out.witness.num_states == 1

    def test_timeout_is_reported_not_wrong(self, k4):
        out = exists_consistent(zhang_sample(k4), 4, time_budget=1e-9)
        assert out.status is SolveStatus.TIMEOUT
        assert out.witness is None

    def test_deadline_comes_before_the_clique_bound(self, k4):
        # with the order and clique already built, as min_consistent shares
        # them, the clique bound (5 nodes > 4) would answer at once
        s = zhang_sample(k4)
        pta = _Pta(s)
        pta.search_plan(None)
        out = exists_consistent(s, 4, time_budget=1e-9, _pta=pta)
        assert out.status is SolveStatus.TIMEOUT
        assert exists_consistent(s, 4, _pta=pta).status is SolveStatus.UNSAT

    def test_deadline_interrupts_the_clique_pass(self, k4, monkeypatch):
        # the k4 single string is a 3889-node path, so the plan checks the
        # deadline once per one-node level, then once per clique candidate;
        # a clock that ticks one second per reading runs out at the first
        # candidate, where the clique bound would answer UNSAT at m=4 once
        # the pass were done
        params = default_params(k4, 4)
        _word, s, _run = single_string(k4, params, make_encoding(k4, params))
        pta = _Pta(s)
        n = len(pta.labels)
        ticks = itertools.count()
        monkeypatch.setattr(solver.time, "monotonic", lambda: float(next(ticks)))
        out = exists_consistent(s, 4, time_budget=n + 1.5, _pta=pta)
        assert out.status is SolveStatus.TIMEOUT
        assert out.states_explored == 0
        assert next(ticks) == n + 3  # the deadline, the check before the plan, n levels, one candidate
        assert pta._plan is None
        monkeypatch.undo()
        out = exists_consistent(s, 4, _pta=pta)
        assert (out.status, out.states_explored) == (SolveStatus.UNSAT, 0)

    def test_search_plan_memory_is_bounded(self, k4):
        # 3889 conflict rows of 3889 bits are about 1.9 MB; a byte per node
        # pair would be 7.6 MB
        params = default_params(k4, 4)
        _word, s, _run = single_string(k4, params, make_encoding(k4, params))
        tracemalloc.start()
        try:
            _Pta(s).search_plan(None)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_monotone_in_m(self):
        rng = random.Random(2)
        for _ in range(10):
            s = random_sample(rng)
            sat_at = None
            for m in range(1, 5):
                status = exists_consistent(s, m).status
                if sat_at is None and status is SolveStatus.SAT:
                    sat_at = m
                if sat_at is not None:
                    assert status is SolveStatus.SAT


class TestMinConsistent:
    @pytest.mark.parametrize("bound", [4.5, float("inf"), True], ids=["float", "inf", "bool"])
    def test_upper_bound_that_is_not_an_int_is_refused(self, bound):
        # a float fails in range() and True would be taken for 1
        with pytest.raises(ValueError, match="^upper_bound must be an int$"):
            min_consistent(zhang_sample(Graph.cycle(5)), bound)

    def test_triangle_zhang(self, triangle):
        m_star, w = min_consistent(zhang_sample(triangle), 6)
        assert m_star == 4
        assert not consistency_violations(w, zhang_sample(triangle))

    def test_edgeless_three_vertices(self):
        m_star, _ = min_consistent(zhang_sample(Graph.edgeless(3)), 4)
        assert m_star == 2

    def test_one_bit_distinction(self):
        s = sample([(0,)], [(1,)])
        assert min_consistent(s, 3)[0] == 2 == brute_force_min(s)[0]

    def test_default_bound_is_the_rpni_size(self, demo5, monkeypatch):
        def refuse(_sample, _max_states, _time_budget=None, *, _pta=None):
            # every m UNSAT, so the bound shows in the error
            return solver.SolveOutcome(SolveStatus.UNSAT, None, 0)

        monkeypatch.setattr(solver, "exists_consistent", refuse)
        s = zhang_sample(demo5)
        with pytest.raises(BoundExceededError, match=f"DFA with at most {rpni(s).num_states} states"):
            min_consistent(s)

    def test_default_bound_on_the_empty_sample(self):
        assert min_consistent(sample([], []))[0] == 1

    def test_bound_exhausted(self, triangle):
        with pytest.raises(BoundExceededError):
            min_consistent(zhang_sample(triangle), 3)

    def test_one_prefix_tree_serves_every_m(self, demo5, monkeypatch):
        # every m goes through the module-level exists_consistent (which the
        # benchmark's tracer wraps), all with the same prefix tree
        calls = []
        decide = solver.exists_consistent

        def spy(s, max_states, time_budget=None, *, _pta=None):
            calls.append((max_states, _pta))
            return decide(s, max_states, time_budget, _pta=_pta)

        monkeypatch.setattr(solver, "exists_consistent", spy)
        assert min_consistent(zhang_sample(demo5), 6)[0] == 4
        assert [m for m, _ in calls] == [1, 2, 3, 4]
        assert len({id(pta) for _, pta in calls}) == 1 and calls[0][1] is not None


def _seeded_sample(seed: int) -> DfaSample:
    """Random sample `seed`: binary for even seeds, ternary for odd ones,
    prefix-closed for seeds 2 and 3 mod 4."""
    rng = random.Random(seed)
    symbols = 2 + seed % 2
    words = {tuple(rng.randrange(symbols) for _ in range(rng.randint(0, 6)))
             for _ in range(rng.randint(1, 8))}
    if seed // 2 % 2:
        words = {w[:i] for w in words for i in range(len(w) + 1)}
    pos = frozenset(w for w in words if rng.random() < 0.5)
    return sample(pos, frozenset(words) - pos, Alphabet(symbols))


# m* of `_seeded_sample(seed)` for seeds 0..299, one digit each: verdicts,
# not steps, so a change to how the search branches must leave them alone
RANDOM_MIN_PINS = (
    "311422352225313232532234334522431256326533423235216322431143"
    "333532333136131623533367222431433242324532561344227341543213"
    "125212222243237741522166234331552354334411441135126623251233"
    "218231452332226511251264321321453263223432242274124112454361"
    "125432343365136243222285324331364243225521311272224523252246"
)


def test_min_consistent_is_pinned_on_seeded_random_samples():
    got = "".join(str(min_consistent(_seeded_sample(seed))[0]) for seed in range(300))
    assert got == RANDOM_MIN_PINS


def test_a_labeled_leaf_that_gains_transitions_is_placed():
    # the leaf 100 is negative, like a clique node, so the exact search
    # leaves it for the end; but a closure merges it with a node that has
    # children, and it must then be placed like any other class
    s = sample({(0, 0, 2), (1, 0)}, {(), (0, 0, 0), (1, 0, 0), (1, 2, 0, 2, 2), (2, 0, 1, 2, 2)},
               Alphabet(3))
    m_star, witness = min_consistent(s)
    assert m_star == 3
    assert not consistency_violations(witness, s)


@pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0])
def test_a_budget_that_is_not_positive_is_refused(budget, triangle):
    # a NaN deadline never compares as passed, so it would switch the budget off
    s = zhang_sample(triangle)
    with pytest.raises(ValueError, match="time_budget must be a positive number of seconds"):
        exists_consistent(s, 4, time_budget=budget)
    with pytest.raises(ValueError, match="time_budget must be a positive number of seconds"):
        min_consistent(s, 4, time_budget=budget)


def test_an_infinite_budget_has_no_deadline(triangle):
    s = zhang_sample(triangle)
    assert exists_consistent(s, 4, time_budget=float("inf")).status is SolveStatus.SAT
    assert min_consistent(s, 6, time_budget=float("inf"))[0] == 4


def test_rpni_never_builds_the_search_plan(demo5, monkeypatch):
    def refuse(self, deadline):
        raise AssertionError("rpni asked for the exact search's order and clique")

    monkeypatch.setattr(_Pta, "search_plan", refuse)
    assert rpni(zhang_sample(demo5)).num_states >= 4


class TestBruteForce:
    def test_one_bit(self):
        assert brute_force_min(sample([(0,)], [(1,)]))[0] == 2

    def test_empty_sample(self):
        assert brute_force_min(sample([], []))[0] == 1

    def test_flip_flop_shape(self):
        s = sample([(0,)], [(), (0, 0)])
        m, w = brute_force_min(s)
        assert m == 2
        assert not consistency_violations(w, s)

    def test_guards(self):
        with pytest.raises(ValueError, match="binary"):
            brute_force_min(sample([], [], Alphabet(3)))


def test_exact_search_matches_brute_force():
    rng = random.Random(123)
    for _ in range(60):
        s = random_sample(rng)
        try:
            expected, _ = brute_force_min(s)
        except BoundExceededError:
            expected = None
        try:
            got, witness = min_consistent(s, 3)
        except BoundExceededError:
            got, witness = None, None
        assert got == expected
        if witness is not None:
            assert not consistency_violations(witness, s)


class TestRpni:
    def test_collapses_to_one_state(self):
        s = sample([(0,), (0, 0), ()], [])
        assert rpni(s).num_states == 1

    def test_triangle_binary_sample(self, triangle):
        from dfalab import binary_sample, default_params

        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        s = binary_sample(triangle, params, enc)
        dfa = rpni(s)
        assert not consistency_violations(dfa, s)
        assert dfa.num_states <= prefix_tree_acceptor(s).num_states

    def test_demo5_zhang_at_least_four_states(self, demo5):
        # fewer states would contradict the exact minimum
        s = zhang_sample(demo5)
        dfa = rpni(s)
        assert not consistency_violations(dfa, s)
        assert dfa.num_states >= 4

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            rpni(sample([], []))


def test_zhang_equivalence_on_small_graphs():
    # exact certification at desk scale: minimum consistent size is one more
    # than the chromatic number
    for g in [Graph.complete(3), Graph.path(4), Graph.cycle(5), Graph.edgeless(3)]:
        k_star = chromatic_number(g)[0]
        assert min_consistent(zhang_sample(g), k_star + 2)[0] == k_star + 1


def test_deep_prefix_tree_does_not_recurse():
    # a chain of more nodes than the interpreter's recursion limit: every
    # prefix is negative and the full string positive, so no two chain nodes
    # may share a state and the search descends once per node
    import sys

    n = 1100
    assert n > sys.getrecursionlimit()
    s = sample([(0,) * n], [(0,) * k for k in range(n)])
    out = exists_consistent(s, n + 1)
    assert out.status is SolveStatus.SAT
    assert out.witness.num_states == n + 1


# states_explored and the witness of the exact search, pinned to the values
# of the fail-first node choice over the conflict-degree order, with
# clique-seeded classes and labeled leaves placed last: an m below the clique
# size is decided with 0 steps, as is a search where every node outside the
# clique is such a leaf, and any change to the order, the clique, the choice
# or the branching shows up here
ZHANG_PINS = [
    ("triangle", Graph.complete(3), [0, 0, 0, 0],
     ((1, 2, 3, 0, 0, 0), (1, 1, 1, 0, 0, 1), (2, 2, 2, 1, 2, 0), (3, 3, 3, 3, 1, 1))),
    ("p4", Graph.path(4), [0, 0, 2],
     ((1, 2, 1, 2, 0, 0, 0), (1, 1, 1, 1, 0, 2, 0), (2, 2, 2, 2, 2, 0, 2))),
    ("c5", Graph.cycle(5), [0, 0, 2, 3],
     ((1, 2, 1, 2, 3, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 0, 0, 1, 0, 1),
      (2, 2, 2, 2, 2, 1, 2, 0, 1, 0), (3, 3, 3, 3, 3, 3, 1, 3, 3, 1))),
    ("demo5", Graph(5, frozenset(DEMO5_EDGES)), [0, 0, 0, 2],
     ((1, 2, 3, 1, 2, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 0, 0, 1, 3, 3, 1),
      (2, 2, 2, 2, 2, 3, 2, 0, 0, 2, 3), (3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0))),
    ("k4", Graph.complete(4), [0, 0, 0, 0, 0],
     ((1, 2, 3, 4, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0, 1, 1, 1),
      (2, 2, 2, 2, 1, 2, 2, 0, 0, 2), (3, 3, 3, 3, 3, 1, 3, 1, 3, 0),
      (4, 4, 4, 4, 4, 4, 1, 4, 1, 1))),
]


@pytest.mark.parametrize("name, g, explored, rows", ZHANG_PINS, ids=[p[0] for p in ZHANG_PINS])
def test_exact_search_steps_and_witness_are_pinned(name, g, explored, rows):
    s = zhang_sample(g)
    for m, steps in enumerate(explored, start=1):
        out = exists_consistent(s, m)
        assert out.states_explored == steps
        expected = SolveStatus.SAT if m == len(explored) else SolveStatus.UNSAT
        assert out.status is expected
    assert out.witness.initial == 0
    assert out.witness.transitions == rows
    assert out.witness.accepting == {0}


@pytest.mark.parametrize("n, seed, unsat_steps, sat_steps, coloring", [
    (9, 1, 3, 5, (1, 2, 3, 3, 2, 3, 4, 1, 5)),
    (10, 3, 0, 6, (1, 2, 1, 3, 1, 2, 4, 2, 1, 3)),
], ids=["gnp9-1", "gnp10-3"])
def test_exact_search_steps_are_pinned_on_random_graphs(n, seed, unsat_steps, sat_steps, coloring):
    g = Graph.gnp(n, 0.5, seed)
    chi = max(coloring)
    s = zhang_sample(g)
    unsat = exists_consistent(s, chi)
    assert (unsat.status, unsat.states_explored) == (SolveStatus.UNSAT, unsat_steps)
    sat = exists_consistent(s, chi + 1)
    assert (sat.status, sat.states_explored) == (SolveStatus.SAT, sat_steps)
    assert sat.witness.transitions[0][:n] == coloring


# the binary upper side, m = (chi+1)L - 1: a search that backtracks with
# hundreds of classes; witnesses pinned by the sha256 of their JSON
BINARY_UPPER_PINS = [
    ("triangle", Graph.complete(3), 3, 5, 81,
     "c15d170676966212f0497536cf5abfd957bda9ea93a59ccfae794f08c9bb86fe"),
    ("p4", Graph.path(4), 2, 6, 62,
     "e5e3606e6cb6adbb3a2f5be7bbdc38e67777bbe2ee2111a937f310bc761fb1af"),
    ("k4", Graph.complete(4), 4, 8, 219,
     "098bc94e91d350702b24663cf5c02f4438664b7157c565a76558e13ec82520af"),
    ("c5", Graph.cycle(5), 3, 62, 161,
     "fea9beb3c3e40556bea98c401def6107dbb630c0604eae65c3d9977aff49971c"),
]


@pytest.mark.parametrize("name, g, chi, steps, states, digest", BINARY_UPPER_PINS,
                         ids=[p[0] for p in BINARY_UPPER_PINS])
def test_binary_upper_side_steps_and_witness_are_pinned(name, g, chi, steps, states, digest):
    params = default_params(g, chi)
    s = binary_sample(g, params, make_encoding(g, params))
    out = exists_consistent(s, (chi + 1) * params.L - 1)
    assert (out.status, out.states_explored) == (SolveStatus.SAT, steps)
    assert out.witness.num_states == states
    assert hashlib.sha256(automaton_to_json(out.witness).encode()).hexdigest() == digest


def test_c5_binary_lower_side_steps_are_pinned():
    # no DFA with fewer than chi*L states: the clique (109 nodes) is far
    # below m = 152, so the search itself proves UNSAT
    g = Graph.cycle(5)
    params = default_params(g, 3)
    s = binary_sample(g, params, make_encoding(g, params))
    out = exists_consistent(s, 3 * params.L - 1)
    assert (out.status, out.states_explored) == (SolveStatus.UNSAT, 2023)


def test_gnp6_binary_lower_side_is_decided():
    # no DFA with fewer than chi*L states on gnp(6, .5, 0): the clique (129
    # nodes) is far below m = 182, and the forced-class bound cuts the search
    g = Graph.gnp(6, 0.5, 0)
    params = default_params(g, 3)
    s = binary_sample(g, params, make_encoding(g, params))
    out = exists_consistent(s, 3 * params.L - 1)
    assert (out.status, out.states_explored) == (SolveStatus.UNSAT, 107)


def test_m3_binary_minimum_is_160():
    # Mycielski's M3 is a 5-cycle numbered otherwise than Graph.cycle(5):
    # with the same K = 3 and L = 51 its binary m* is 160, where c5's is
    # 161 (BINARY_UPPER_PINS), so m* depends on how the vertices are numbered
    g = Graph.mycielski(3)
    params = default_params(g, 3)
    assert params.L == 51
    s = binary_sample(g, params, make_encoding(g, params))
    unsat = exists_consistent(s, 159)
    assert (unsat.status, unsat.states_explored) == (SolveStatus.UNSAT, 2807)
    sat = exists_consistent(s, 160)
    assert (sat.status, sat.states_explored) == (SolveStatus.SAT, 27_673)
    assert sat.witness.num_states == 160
    assert not consistency_violations(sat.witness, s)


def test_zhang_minimum_on_forty_vertices():
    g = Graph.gnp(40, 0.5, 4)
    chi = chromatic_number(g)[0]
    assert min_consistent(zhang_sample(g), 41)[0] == chi + 1 == 10


# the bench's zhang-exact graphs: the steps of each m from the clique size
# up to the first SAT (every m below takes 0) and the witness's sha256
ZHANG_EXACT_PINS = [
    ("gnp19-1", 19, 1, 6, (5, 14),
     "0a57249f2c424ce843b86c8c57d2657e0056078131b38477c4d65b5b8c504adc"),
    ("gnp20-0", 20, 0, 6, (6, 15),
     "6380268c185b0ad87a91336aab72c1890458f30509acd781b9e2ecbd1e8cc84b"),
    ("gnp21-2", 21, 2, 6, (3, 16),
     "fac5e933f03de08391234afb02b832aa02daacb99f7ee298b5e7e577e028f96b"),
    ("gnp23-4", 23, 4, 6, (1, 29),
     "628661b8d6e3b4d4eee97de0b346a3cafabecda88d018370e63b6e75846a78fd"),
    ("gnp24-1", 24, 1, 7, (18,),
     "f87910e2906e77c75ad3e60ec7c85eb9baaa03db888ca6eae03899730a3a14b3"),
    ("gnp24-9", 24, 9, 5, (2, 11, 182, 20),
     "ca4dcdb3795ed1526e4c1ed056c012bf083854d7dfe4b55d57bb024bbeb6fda8"),
]


@pytest.mark.parametrize("name, n, seed, first, steps, digest", ZHANG_EXACT_PINS,
                         ids=[p[0] for p in ZHANG_EXACT_PINS])
def test_zhang_exact_steps_and_witness_are_pinned(name, n, seed, first, steps, digest):
    s = zhang_sample(Graph.gnp(n, 0.5, seed))
    pta = _Pta(s)
    for m in range(1, first):
        assert exists_consistent(s, m, _pta=pta).states_explored == 0
    outs = [exists_consistent(s, m, _pta=pta) for m in range(first, first + len(steps))]
    assert [out.states_explored for out in outs] == list(steps)
    assert [out.status for out in outs] == [SolveStatus.UNSAT] * (len(steps) - 1) + [SolveStatus.SAT]
    assert hashlib.sha256(automaton_to_json(outs[-1].witness).encode()).hexdigest() == digest


@st.composite
def labeled_words(draw, symbols=2, max_len=5):
    """A small sample, prefix-closed or not: binary by default."""
    words = draw(st.sets(st.lists(st.integers(0, symbols - 1), max_size=max_len).map(tuple),
                         max_size=10))
    if draw(st.booleans()):
        words = {w[:i] for w in words for i in range(len(w) + 1)}
    words = sorted(words)
    labels = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    pos = frozenset(w for w, keep in zip(words, labels) if keep)
    return sample(pos, frozenset(words) - pos, Alphabet(symbols))


# three symbols and longer words: some nodes lack symbol 0, so a symbol's
# edges go to children at several preorder offsets
ternary_words = labeled_words(3, 7)


def _suffixes(pta: _Pta, node: int):
    """Every w with node.w in the tree, paired with the node it reaches."""
    stack = [((), node)]
    while stack:
        w, x = stack.pop()
        yield w, x
        stack.extend((w + (a,), y) for a, y in pta.children[x].items())


def _brute_conflict(pta: _Pta, u: int, v: int) -> bool:
    for w, x in _suffixes(pta, u):
        y = v
        for a in w:
            y = pta.children[y].get(a)
            if y is None:
                break
        if y is not None and pta.labels[x] and pta.labels[y] and pta.labels[x] != pta.labels[y]:
            return True
    return False


def _check_conflict_matches_its_definition(s, rng):
    pta = _Pta(s)
    n = len(pta.labels)
    pairs = [(u, v) for u in range(n) for v in range(n)]
    rng.shuffle(pairs)  # the answers must not depend on the order of queries
    for u, v in pairs:
        assert bool(pta.rows[u] >> v & 1) == _brute_conflict(pta, u, v), (u, v)


@settings(max_examples=150, deadline=None)
@given(labeled_words(), st.randoms(use_true_random=False))
def test_conflict_matches_its_definition(s, rng):
    _check_conflict_matches_its_definition(s, rng)


@settings(max_examples=150, deadline=None)
@given(ternary_words, st.randoms(use_true_random=False))
def test_conflict_matches_its_definition_on_three_symbols(s, rng):
    _check_conflict_matches_its_definition(s, rng)


# sha256 of repr(rows) on the bench's samples: the five binary-rpni samples
# and the six zhang-exact graphs' vertex/edge samples
ROWS_PINS = [
    ("demo5", "binary", Graph(5, frozenset(DEMO5_EDGES)), 3, 324,
     "ce405b4e54add96e6fe3111934b3b221c75d22f86bee0d5775503ea5a8ed259c"),
    ("c5", "binary", Graph.cycle(5), 3, 291,
     "c8abd0d2befc693ca7a6305392624076001f669e93246e49e96b2b5afd8dce83"),
    ("k4", "binary", Graph.complete(4), 4, 248,
     "9607e119d991a230fde73212f045cef214b510ae9000f7a07a619f3485b67e9b"),
    ("gnp6-0", "binary", Graph.gnp(6, 0.5, 0), 3, 409,
     "14700ea0cf212b304977c2fdfc8bcaa30361e296ddec624a1a529f4b34f23aa9"),
    ("gnp6-2", "binary", Graph.gnp(6, 0.5, 2), 3, 409,
     "82490ebbb9054b05a4be5a9c2a052274c7edb270d8a2084aef312491bead9f40"),
    ("gnp19-1", "zhang", Graph.gnp(19, 0.5, 1), None, 192,
     "ce5ddb18a299e7a1f7ae3ebc0ab0a6f2ca1eb314581ecf6da72ff24850272d91"),
    ("gnp20-0", "zhang", Graph.gnp(20, 0.5, 0), None, 197,
     "b71dad8d3d749e04e8dc0a20b5ae5a72d74106310f852e79007ee79b3dcab44d"),
    ("gnp21-2", "zhang", Graph.gnp(21, 0.5, 2), None, 228,
     "9401717627217ed6324f150b10314b40ca88eb061be4f99adcb7c6d839630772"),
    ("gnp23-4", "zhang", Graph.gnp(23, 0.5, 4), None, 282,
     "0351434b88cd9f254ff51b868afd1d94df68b924ff84c13cd52e0e0929135c73"),
    ("gnp24-1", "zhang", Graph.gnp(24, 0.5, 1), None, 303,
     "8a5fd2eb02f779a37d465060fdb3bef4ebaa5941ba58e142743a43df9ed328f8"),
    ("gnp24-9", "zhang", Graph.gnp(24, 0.5, 9), None, 321,
     "c75f694052fe9d9038e8244849a6f2e31a816425035f6a348d828dcb37b4467d"),
]


@pytest.mark.parametrize("name, kind, g, K, nodes, digest", ROWS_PINS,
                         ids=[p[0] for p in ROWS_PINS])
def test_conflict_rows_are_pinned(name, kind, g, K, nodes, digest):
    rows = _Pta(_reduced_sample(kind, g, K)).rows
    assert len(rows) == nodes
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def _unbounded_search(pta: _Pta) -> _MergeSearch:
    """A search as rpni builds it: no clique, no state bound below the tree size."""
    return _MergeSearch(pta, pta.bfs, [], len(pta.labels), None)


@settings(max_examples=150, deadline=None)
@given(labeled_words())
def test_conflicting_nodes_never_fold(s):
    pta = _Pta(s)
    n = len(pta.labels)
    for u in range(n):
        for v in range(n):
            if pta.rows[u] >> v & 1:
                assert not _unbounded_search(pta).fold(u, v), (u, v)


def _classes(search: _MergeSearch):
    """The union-find, the labels, every transition dict in insertion order,
    and the class rows."""
    return (list(search.rep), list(search.label), [list(t.items()) for t in search.trans],
            list(search.crow))


@settings(max_examples=150, deadline=None)
@given(labeled_words(), st.data())
def test_undo_restores_the_classes_at_its_mark(s, data):
    pta = _Pta(s)
    nodes = st.integers(0, len(pta.labels) - 1)
    folds = st.lists(st.tuples(nodes, nodes), max_size=6)
    search = _unbounded_search(pta)
    reds = data.draw(st.lists(nodes, max_size=3, unique=True))
    for red in reds:
        search.commit(red)
    for keep, drop in data.draw(folds):  # successful or not, none undone
        search.fold(keep, drop)
    mark = len(search.trail)
    before = _classes(search)
    for keep, drop in data.draw(folds):
        search.fold(keep, drop)
    search.undo(mark)
    assert len(search.trail) == mark
    assert _classes(search) == before


@settings(max_examples=150, deadline=None)
@given(labeled_words(), st.data())
def test_a_class_row_is_its_members_or_and_blocks_the_folds_it_meets(s, data):
    pta = _Pta(s)
    n = len(pta.labels)
    nodes = st.integers(0, n - 1)
    search = _unbounded_search(pta)
    marks = []
    for keep, drop in data.draw(st.lists(st.tuples(nodes, nodes), max_size=8)):
        marks.append(len(search.trail))
        if not search.fold(keep, drop):
            search.undo(marks.pop())
        elif data.draw(st.booleans()):  # undo a successful fold, or several
            search.undo(marks[data.draw(st.integers(0, len(marks) - 1))])
            marks = [m for m in marks if m < len(search.trail)]
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(search.find(v), []).append(v)
    for root, nodes_in in classes.items():  # a class row is the OR of its nodes' rows
        assert search.crow[root] == functools.reduce(operator.or_, (pta.rows[v] for v in nodes_in))
    for a in classes:
        for b, nodes_in in classes.items():
            if a != b and any(search.crow[a] >> v & 1 for v in nodes_in):
                mark = len(search.trail)
                assert not search.fold(a, b), (a, b)
                search.undo(mark)


def _partial_quotient(search: _MergeSearch, alphabet: Alphabet) -> PartialDfa:
    """A reference for the search's result: its classes as a partial DFA,
    numbered by their lowest node, with a missing entry where no node of a
    class has the symbol."""
    roots: list[int] = []
    index: dict[int, int] = {}
    for node in range(len(search.rep)):
        r = search.find(node)
        if r not in index:
            index[r] = len(roots)
            roots.append(r)
    rows = []
    for r in roots:
        row: list[int | None] = [None] * alphabet.size
        for sym, target in search.trans[r].items():
            row[sym] = index[search.find(target)]
        rows.append(tuple(row))
    accepting = frozenset(index[r] for r in roots if search.label[r] == 1)
    return PartialDfa(len(roots), alphabet, index[search.find(0)], tuple(rows), accepting)


def _greedy_folds(s: DfaSample) -> PartialDfa:
    """RPNI without the conflict check: try every fold, undo the failures."""
    pta = _Pta(s)
    search = _unbounded_search(pta)
    for node in pta.bfs:
        if search.find(node) != node:
            continue
        for red in tuple(search.rank):
            mark = len(search.trail)
            if search.fold(red, node):
                break
            search.undo(mark)
        else:
            search.commit(node)
    return _partial_quotient(search, s.alphabet)


def test_rpni_matches_fold_only_greedy_on_random_samples():
    rng = random.Random(11)
    for _ in range(200):
        s = random_sample(rng, max_strings=10, max_len=6)
        if s.strings():
            assert rpni(s) == _greedy_folds(s).completed()


# binary samples are bushy and shallow; single strings (K = chi) give the
# deepest first descents; zhang samples are small but many-symboled
GREEDY_SAMPLES = [
    ("demo5", "binary", Graph(5, frozenset(DEMO5_EDGES)), 3),
    ("c5", "binary", Graph.cycle(5), 3),
    ("k4", "binary", Graph.complete(4), 4),
    ("gnp6-0", "binary", Graph.gnp(6, 0.5, 0), 3),
    ("gnp6-2", "binary", Graph.gnp(6, 0.5, 2), 3),
    ("single-p4", "single", Graph.path(4), 2),
    ("single-k3", "single", Graph.complete(3), 3),
    ("single-c4", "single", Graph.cycle(4), 2),
    *[(f"zhang-{name}", "zhang", g, None) for name, g in suite_graphs(random_graphs=0)],
]


@pytest.mark.parametrize("kind, g, K", [case[1:] for case in GREEDY_SAMPLES],
                         ids=[case[0] for case in GREEDY_SAMPLES])
def test_rpni_matches_fold_only_greedy_on_binary_samples(kind, g, K):
    s = _reduced_sample(kind, g, K)
    assert rpni(s) == _greedy_folds(s).completed()


# sha256 of rpni's JSON on the bench's binary-rpni samples (whose c5 and k4
# results are BINARY_UPPER_PINS' witnesses), the deepest single string and
# a zhang sample: the automaton, its state numbering and its completion by
# self-loops must not change
RPNI_PINS = [
    ("demo5", "binary", Graph(5, frozenset(DEMO5_EDGES)), 3, 178,
     "8b65ea65fe05e3c09e8dcbe259bfb3cef172a541084a7eaaa84fd3235855fee0"),
    ("c5", "binary", Graph.cycle(5), 3, 161,
     "fea9beb3c3e40556bea98c401def6107dbb630c0604eae65c3d9977aff49971c"),
    ("k4", "binary", Graph.complete(4), 4, 219,
     "098bc94e91d350702b24663cf5c02f4438664b7157c565a76558e13ec82520af"),
    ("gnp6-0", "binary", Graph.gnp(6, 0.5, 0), 3, 191,
     "a221d8ae8ac9bc71751ad86f2c7c012d978868e88bd3cf0f143bb3703a5feb56"),
    ("gnp6-2", "binary", Graph.gnp(6, 0.5, 2), 3, 191,
     "cc04fcb0ac8b2aefb0bb72bd1f13b0f9290b43d9247c6c732041dd3a1ee5c5a9"),
    ("single-k3", "single", Graph.complete(3), 3, 260,
     "9d0fc616170b23a2d9ec5f63d6d7e1eb8ee3203b6e7950cae61098d62e5c394a"),
    ("zhang-demo5", "zhang", Graph(5, frozenset(DEMO5_EDGES)), None, 4,
     "1b870501cb9ba67199a628e33b6b54bd08fb0ffb052a9c87cba9018eb583a2a7"),
]


@pytest.mark.parametrize("name, kind, g, K, states, digest", RPNI_PINS,
                         ids=[p[0] for p in RPNI_PINS])
def test_rpni_automaton_is_pinned(name, kind, g, K, states, digest):
    dfa = rpni(_reduced_sample(kind, g, K))
    assert dfa.num_states == states
    assert hashlib.sha256(automaton_to_json(dfa).encode()).hexdigest() == digest


def _check_merges_match_fold(s: DfaSample) -> None:
    """A finished search's merges, in-place, closed by `fold` or deferred to
    the end, replayed by `fold` from the same committed classes give the same
    trail records and classes: for the search as rpni runs it and the exact
    search, with its fail-first choices, at each m from the clique size to
    6."""
    pta = _Pta(s)
    order, clique = pta.search_plan(None)
    searches = [_unbounded_search(pta)]
    searches += [_MergeSearch(pta, order, clique, m, None) for m in range(len(clique), 7)]
    for search in searches:
        if not search.run():
            continue
        twin = _unbounded_search(pta)
        for root in search.rank:
            twin.commit(root)
        for dropped, kept, *_ in search.trail:
            assert twin.fold(kept, dropped)  # a closure's later records fold nothing
        assert twin.trail == search.trail
        assert _classes(twin) == _classes(search)


# rpni's in-place merges meet unlabeled roots of oppositely labeled classes
# here (see the test below); labeled_words rarely builds such a sample
@example(sample({(0, 0, 1, 0), (1, 0, 1)}, {(0, 1)}))
@settings(max_examples=150, deadline=None)
@given(labeled_words())
def test_search_merges_match_fold(s):
    _check_merges_match_fold(s)


# the sample above over three symbols, and one where a deferred leaf gains
# transitions by a closure (see test_a_labeled_leaf_that_gains_transitions_is_placed)
@example(sample({(0, 0, 1, 0), (1, 0, 1)}, {(0, 1)}, Alphabet(3)))
@example(sample({(0, 0, 2), (1, 0)}, {(), (0, 0, 0), (1, 0, 0), (1, 2, 0, 2, 2), (2, 0, 1, 2, 2)},
               Alphabet(3)))
@settings(max_examples=150, deadline=None)
@given(ternary_words)
def test_search_merges_match_fold_on_three_symbols(s):
    _check_merges_match_fold(s)


def test_a_merge_without_closure_still_tests_the_labels():
    # folding 0 into the root closes the negative 01 into the class of 1 and
    # the positive 0010 into the class of 10; the unlabeled roots 1 and 10
    # pass both row tests and share no symbol, so only the label test keeps
    # the class of 10 out of the class of 1
    s = sample({(0, 0, 1, 0), (1, 0, 1)}, {(0, 1)})
    assert rpni(s) == _greedy_folds(s).completed()
    assert not consistency_violations(rpni(s), s)


def _depths(pta: _Pta) -> list[int]:
    depth = [0] * len(pta.labels)
    for node in pta.bfs:
        for child in pta.children[node].values():
            depth[child] = depth[node] + 1
    return depth


def _check_search_order_is_by_level_then_conflict_degree(s):
    pta = _Pta(s)
    order, _clique = pta.search_plan(None)
    assert sorted(order) == list(range(len(pta.labels)))
    at = {node: i for i, node in enumerate(order)}
    assert all(at[node] < at[child] for node in order for child in pta.children[node].values())
    depth = _depths(pta)
    bfs_at = {node: i for i, node in enumerate(pta.bfs)}

    def key(u):  # level, then most conflicts inside the level, then BFS position
        level = [v for v in pta.bfs if depth[v] == depth[u]]
        return depth[u], -sum(_brute_conflict(pta, u, v) for v in level if v != u), bfs_at[u]

    assert order == sorted(order, key=key)


@settings(max_examples=150, deadline=None)
@given(labeled_words())
def test_search_order_is_by_level_then_conflict_degree(s):
    _check_search_order_is_by_level_then_conflict_degree(s)


@settings(max_examples=150, deadline=None)
@given(ternary_words)
def test_search_order_is_by_level_then_conflict_degree_on_three_symbols(s):
    _check_search_order_is_by_level_then_conflict_degree(s)


def _check_greedy_clique_is_a_conflict_clique(s):
    pta = _Pta(s)
    order, clique = pta.search_plan(None)
    assert clique and clique[0] == order[0] == 0
    assert all(_brute_conflict(pta, u, v) for i, u in enumerate(clique) for v in clique[:i])
    at = {node: i for i, node in enumerate(order)}
    assert [at[c] for c in clique] == sorted(at[c] for c in clique)
    for node in set(order) - set(clique):  # greedy: some earlier member refused it
        assert any(not _brute_conflict(pta, node, c) for c in clique if at[c] < at[node])


@settings(max_examples=150, deadline=None)
@given(labeled_words())
def test_greedy_clique_is_a_conflict_clique(s):
    _check_greedy_clique_is_a_conflict_clique(s)


@settings(max_examples=150, deadline=None)
@given(ternary_words)
def test_greedy_clique_is_a_conflict_clique_on_three_symbols(s):
    _check_greedy_clique_is_a_conflict_clique(s)


@settings(max_examples=150, deadline=None)
@given(labeled_words())
def test_clique_never_exceeds_the_brute_force_minimum(s):
    try:
        m_star, _ = brute_force_min(s)
    except BoundExceededError:
        m_star = None
    _order, clique = _Pta(s).search_plan(None)
    if m_star is not None:
        assert len(clique) <= m_star
    for m in range(1, 4):
        out = exists_consistent(s, m)
        assert (out.status is SolveStatus.SAT) == (m_star is not None and m >= m_star)
        if m < len(clique):
            assert out.states_explored == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 12), st.integers(0, 2**16))
def test_zhang_minimum_is_chi_plus_one_on_random_graphs(n, seed):
    g = Graph.gnp(n, 0.5, seed)
    assert min_consistent(zhang_sample(g), n + 1)[0] == chromatic_number(g)[0] + 1


@pytest.mark.parametrize("name, g", suite_graphs(), ids=[name for name, _ in suite_graphs()])
def test_zhang_minimum_is_chi_plus_one_on_suite_graphs(name, g):
    assert min_consistent(zhang_sample(g), g.num_vertices + 1)[0] == chromatic_number(g)[0] + 1


@pytest.mark.parametrize("name, g", suite_graphs(), ids=[name for name, _ in suite_graphs()])
def test_zhang_minimum_is_chi_plus_one_under_the_default_bound(name, g):
    assert min_consistent(zhang_sample(g))[0] == chromatic_number(g)[0] + 1
