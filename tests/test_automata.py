"""Core data model: runs, consistency, prefix trees, completion, transducers."""
from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfalab import (
    Alphabet,
    Dfa,
    DfaSample,
    Graph,
    MachineSample,
    MealyMachine,
    MooreMachine,
    PartialDfa,
    PrefixCompleteness,
    SampleError,
    binary_sample,
    chromatic_number,
    consistency_violations,
    default_params,
    dfa_sample_to_machine_sample,
    machine_sample_to_dfa_sample,
    make_encoding,
    prefix_completeness,
    prefix_tree_acceptor,
    zhang_sample,
)
from dfalab import Coloring
from dfalab.reductions import zhang_alphabet
from dfalab.witnesses import binary_dfa_from_coloring, zhang_dfa_from_coloring

BIN = Alphabet.binary()


def one_state_accepting() -> Dfa:
    return Dfa(1, BIN, 0, ((0, 0),), frozenset({0}))


def flip_flop() -> Dfa:
    # state 0 rejects (initial), state 1 accepts, every symbol toggles
    return Dfa(2, BIN, 0, ((1, 1), (0, 0)), frozenset({1}))


def sample(positives, negatives, alphabet=BIN) -> DfaSample:
    return DfaSample(alphabet, frozenset(positives), frozenset(negatives))


class TestRunDfa:
    def test_single_accepting_state_absorbs_everything(self):
        assert one_state_accepting().accepts((0, 1, 1, 0))

    def test_flip_flop_even_length_rejected(self):
        assert not flip_flop().accepts((0, 0))
        assert flip_flop().accepts((0,))

    def test_zhang_witness_accepts_first_edge_pair(self, demo5):
        coloring = Coloring((1, 2, 3, 1, 1), 3)
        w = zhang_dfa_from_coloring(demo5, coloring).completed()
        # v1 then the edge {v1, v2}: symbol 0 then |V| + rank of the first edge
        assert w.accepts((0, 5))

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            one_state_accepting().accepts((2,))


class TestConsistency:
    def test_pta_consistent_with_its_sample(self):
        s = sample([(0,), (1, 0)], [(), (1,)])
        assert not consistency_violations(prefix_tree_acceptor(s), s)

    def test_binary_witness_consistent(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        s = binary_sample(demo5, params, enc)
        k, coloring = chromatic_number(demo5)
        assert not consistency_violations(binary_dfa_from_coloring(demo5, coloring, params, enc), s)

    def test_all_rejecting_names_the_violation(self):
        reject = Dfa(1, BIN, 0, ((0, 0),), frozenset())
        bad = consistency_violations(reject, sample([(0, 1)], [(0,)]))
        assert bad == [((0, 1), True)]

    def test_partial_falloff_counts_as_rejection(self):
        p = PartialDfa(1, BIN, 0, ((None, None),), frozenset({0}))
        assert not consistency_violations(p, sample([()], [(0,), (1, 1)]))
        assert consistency_violations(p, sample([(0,)], []))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            consistency_violations(one_state_accepting(), sample([], [], Alphabet(3)))


class TestPrefixTree:
    def test_two_leaves(self):
        pta = prefix_tree_acceptor(sample([(0,)], [(1,)]))
        assert pta.num_states == 3
        assert len(pta.accepting) == 1

    def test_epsilon_only(self):
        pta = prefix_tree_acceptor(sample([()], []))
        assert pta.num_states == 1
        assert pta.accepting == {0}

    def test_demo5_binary_sample_has_one_state_per_prefix(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        s = binary_sample(demo5, params, enc)
        # oracle: enumerate the distinct prefixes of the generated strings
        prefixes = set()
        for rank, (i, j) in enumerate(demo5.canonical_edges()):
            for v in (i, j):
                w = enc.vertex_codes[v] + (0,) * params.L + enc.edge_codes[rank]
                prefixes.update(w[:k] for k in range(len(w) + 1))
        pta = prefix_tree_acceptor(s)
        assert pta.num_states == len(prefixes)
        assert not consistency_violations(pta, s)

    def test_empty_sample_rejected(self):
        with pytest.raises(SampleError):
            prefix_tree_acceptor(sample([], []))


class TestPrefixCompleteness:
    def test_binary_reduction_sample_complete(self, triangle):
        params = default_params(triangle, 3)
        s = binary_sample(triangle, params, make_encoding(triangle, params))
        assert prefix_completeness(s) is PrefixCompleteness.COMPLETE

    def test_missing_interior_prefix(self):
        assert prefix_completeness(sample([(0, 1)], [])) is PrefixCompleteness.NEITHER

    def test_missing_only_epsilon(self):
        s = sample([(0,)], [(0, 1)])
        assert prefix_completeness(s) is PrefixCompleteness.ALMOST_COMPLETE


class TestAcyclicity:
    def test_prefix_trees_are_acyclic(self):
        s = sample([(0, 0), (1,)], [(0,)])
        assert prefix_tree_acceptor(s).is_acyclic()

    def test_self_loop_is_a_cycle(self):
        p = PartialDfa(1, BIN, 0, ((0, None),), frozenset())
        assert not p.is_acyclic()

    def test_unreachable_cycle_ignored(self):
        p = PartialDfa(2, BIN, 0, ((None, None), (1, None)), frozenset())
        assert p.is_acyclic()

    def test_a_path_deeper_than_the_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        rows = [(q + 1, None) for q in range(n - 1)]
        assert PartialDfa(n, BIN, 0, (*rows, (None, None)), frozenset()).is_acyclic()
        assert not PartialDfa(n, BIN, 0, (*rows, (0, None)), frozenset()).is_acyclic()


class TestCompletion:
    def test_total_input_unchanged(self):
        p = PartialDfa(2, BIN, 0, ((1, 0), (0, 1)), frozenset({1}))
        assert p.completed().transitions == ((1, 0), (0, 1))

    def test_missing_becomes_self_loop(self):
        p = PartialDfa(1, BIN, 0, ((None, None),), frozenset())
        assert p.completed().transitions == ((0, 0),)

    def test_preserves_state_count_and_consistency(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        s = binary_sample(triangle, params, enc)
        k, coloring = chromatic_number(triangle)
        w = binary_dfa_from_coloring(triangle, coloring, params, enc)
        total = w.completed()
        assert total.num_states == w.num_states
        assert not consistency_violations(total, s)

    def test_a_string_falling_off_an_accepting_state_flips(self):
        # consistent as given, since both vertex strings fall off the
        # accepting initial state; completion loops there and accepts them
        g = Graph.edgeless(2)
        p = PartialDfa(1, zhang_alphabet(g), 0, ((None, None),), frozenset({0}))
        s = zhang_sample(g)
        assert not consistency_violations(p, s)
        assert consistency_violations(p.completed(), s)


class TestTransducers:
    def test_moore_flip_flop(self):
        assert flip_flop().to_moore().outputs((0, 0)) == (True, False)
        assert flip_flop().to_moore().outputs((0, 0, 0)) == (True, False, True)

    def test_moore_all_accepting(self):
        assert one_state_accepting().to_moore().outputs((1, 1, 1)) == (True, True, True)

    def test_moore_empty_input(self):
        assert flip_flop().to_moore().outputs(()) == ()

    def test_mealy_flip_flop(self):
        assert flip_flop().to_mealy().outputs((0, 0)) == (True, False)

    def test_mealy_all_rejecting(self):
        reject = Dfa(1, BIN, 0, ((0, 0),), frozenset())
        assert reject.to_mealy().outputs((0, 1, 0)) == (False, False, False)

    def test_moore_body_end_positive(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        k, coloring = chromatic_number(demo5)
        w = binary_dfa_from_coloring(demo5, coloring, params, enc).completed()
        out = w.to_moore().outputs(enc.vertex_codes[0] + (0,) * params.L)
        assert out[-1] is True

    def test_moore_mealy_agree_on_random_strings(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        k, coloring = chromatic_number(demo5)
        w = binary_dfa_from_coloring(demo5, coloring, params, enc).completed()
        moore, mealy = w.to_moore(), w.to_mealy()
        rng = random.Random(0)
        for _ in range(100):
            word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 80)))
            assert moore.outputs(word) == mealy.outputs(word)


TABLE_TYPES = [Dfa, PartialDfa, MooreMachine, MealyMachine]
ACCEPTORS = [Dfa, PartialDfa]


def table(cls, num_states, initial, rows, last=None):
    """A `cls` over the binary alphabet; `last`, its fifth field, defaults
    to a legal one for `num_states` states."""
    if last is None:
        last = {Dfa: frozenset(), PartialDfa: frozenset(),
                MooreMachine: (False,) * num_states,
                MealyMachine: ((False, False),) * num_states}[cls]
    return cls(num_states, BIN, initial, rows, last)


def by_name(cls) -> str:
    return cls.__name__


@pytest.mark.parametrize("size", [2.5, True, 0], ids=["float", "bool", "zero"])
def test_an_alphabet_size_that_is_not_an_int_of_at_least_1_is_refused(size):
    # 2.5 and True were accepted as sizes
    message = "must be an int" if type(size) is not int else "must be at least 1"
    with pytest.raises(ValueError, match=f"^alphabet size {message}$"):
        Alphabet(size)


class TestTableChecks:
    @pytest.mark.parametrize("cls", TABLE_TYPES, ids=by_name)
    def test_rows_and_targets(self, cls):
        with pytest.raises(ValueError, match=r"^expected 2 transition rows, got 1$"):
            table(cls, 2, 0, ((0, 0),))
        with pytest.raises(ValueError, match=r"^state 1: expected 2 entries, got 3$"):
            table(cls, 2, 0, ((0, 0), (0, 1, 1)))
        with pytest.raises(ValueError, match=r"^state 0 has transition target 2 out of range$"):
            table(cls, 2, 0, ((0, 2), (0, 0)))
        with pytest.raises(ValueError, match=r"^state 1 has transition target -1 out of range$"):
            table(cls, 2, 0, ((0, 0), (-1, 0)))

    @pytest.mark.parametrize("cls", TABLE_TYPES, ids=by_name)
    def test_missing_entries_only_in_a_partial_dfa(self, cls):
        if cls is PartialDfa:
            assert table(cls, 2, 0, ((1, None), (None, None))).transitions == ((1, None), (None, None))
        else:
            kind = {Dfa: "total DFA", MooreMachine: "Moore machine", MealyMachine: "Mealy machine"}[cls]
            with pytest.raises(ValueError, match=rf"^state 1 has a missing transition in a {kind}$"):
                table(cls, 2, 0, ((1, 0), (None, 0)))

    @pytest.mark.parametrize("cls", TABLE_TYPES, ids=by_name)
    def test_states(self, cls):
        with pytest.raises(ValueError, match=r"^automaton needs at least one state$"):
            table(cls, 0, 0, ())
        for initial in (1, -1):
            with pytest.raises(ValueError, match=rf"^initial state {initial} out of range$"):
                table(cls, 1, initial, ((0, 0),))

    @pytest.mark.parametrize("cls", TABLE_TYPES, ids=by_name)
    def test_checks_run_rows_then_states_then_the_last_field(self, cls):
        bad_last = frozenset({3}) if cls in ACCEPTORS else ()
        with pytest.raises(ValueError, match=r"^state 0 has transition target 3 out of range$"):
            table(cls, 1, 5, ((0, 3),), bad_last)
        with pytest.raises(ValueError, match=r"^initial state 5 out of range$"):
            table(cls, 1, 5, ((0, 0),), bad_last)

    @pytest.mark.parametrize("cls", ACCEPTORS, ids=by_name)
    def test_accepting_out_of_range(self, cls):
        for q in (1, -1):
            with pytest.raises(ValueError, match=rf"^accepting state {q} out of range$"):
                table(cls, 1, 0, ((0, 0),), frozenset({0, q}))

    def test_output_lengths(self):
        with pytest.raises(ValueError, match=r"^need one output per state$"):
            table(MooreMachine, 2, 0, ((0, 1), (1, 0)), (True,))
        for output in (((True, False),), ((True, False), (True,))):
            with pytest.raises(ValueError, match=r"^need one output per \(state, symbol\)$"):
                table(MealyMachine, 2, 0, ((0, 1), (1, 0)), output)

    @pytest.mark.parametrize("cls", TABLE_TYPES, ids=by_name)
    def test_fields_are_normalized(self, cls):
        given, normal = {Dfa: ({0}, frozenset({0})), PartialDfa: ({0}, frozenset({0})),
                         MooreMachine: ([1], (True,)),
                         MealyMachine: ([[1, 0]], ((True, False),))}[cls]
        m = table(cls, 1, 0, [[0, 0]], given)
        assert repr(m.transitions) == "((0, 0),)"
        assert repr(m.accepting if cls in ACCEPTORS else m.output) == repr(normal)
        assert m == table(cls, 1, 0, ((0, 0),), normal)
        assert hash(m) == hash(table(cls, 1, 0, ((0, 0),), normal))

    def test_reprs_and_methods(self):
        head = "num_states=1, alphabet=Alphabet(size=2, names=('0', '1')), initial=0, transitions=((0, 0),)"
        assert repr(table(Dfa, 1, 0, ((0, 0),), frozenset({0}))) == f"Dfa({head}, accepting=frozenset({{0}}))"
        assert repr(table(PartialDfa, 1, 0, ((0, 0),))) == f"PartialDfa({head}, accepting=frozenset())"
        assert repr(table(MooreMachine, 1, 0, ((0, 0),))) == f"MooreMachine({head}, output=(False,))"
        assert repr(table(MealyMachine, 1, 0, ((0, 0),))) == f"MealyMachine({head}, output=((False, False),))"
        for cls in (MooreMachine, MealyMachine):
            assert not hasattr(cls, "walk") and not hasattr(cls, "accepts")

    def test_dfa_and_partial_dfa_are_unrelated(self):
        dfa = table(Dfa, 1, 0, ((0, 0),))
        partial = table(PartialDfa, 1, 0, ((0, 0),))
        assert not isinstance(dfa, PartialDfa)
        assert not isinstance(partial, Dfa)
        assert dfa != partial


class TestSampleConversions:
    def test_two_string_chain(self):
        ms = dfa_sample_to_machine_sample(sample([(0,)], [(0, 0)]))
        assert ms.runs == {((0, 0), (True, False))}

    def test_single_run_per_maximal_string(self):
        ms = dfa_sample_to_machine_sample(sample([(0,), (0, 1)], [(), (0, 0)]))
        assert ms.runs == {((0, 0), (True, False)), ((0, 1), (True, True))}

    def test_requires_prefix_completeness(self):
        with pytest.raises(SampleError, match="prefix-complete"):
            dfa_sample_to_machine_sample(sample([(0, 1)], []))

    def test_machine_to_dfa_sample(self):
        ms = MachineSample(BIN, frozenset({((0, 0), (True, False))}))
        s = machine_sample_to_dfa_sample(ms)
        assert s.positives == {(0,)} and s.negatives == {(0, 0)}

    def test_two_runs_merge_labels(self):
        ms = MachineSample(
            BIN,
            frozenset({((0, 1), (True, False)), ((0, 0), (True, True))}),
        )
        s = machine_sample_to_dfa_sample(ms)
        assert s.positives == {(0,), (0, 0)} and s.negatives == {(0, 1)}

    def test_conflicting_runs_rejected(self):
        with pytest.raises(SampleError, match="conflicting runs"):
            MachineSample(BIN, frozenset({((0,), (True,)), ((0, 1), (False, True))}))

    def test_round_trip_drops_epsilon(self):
        s = sample([(), (0,)], [(0, 0)])
        back = machine_sample_to_dfa_sample(dfa_sample_to_machine_sample(s))
        assert back.positives == {(0,)} and back.negatives == {(0, 0)}

    def test_round_trip_from_runs_is_identity(self):
        ms = MachineSample(BIN, frozenset({((0, 1, 1), (True, False, False))}))
        assert dfa_sample_to_machine_sample(machine_sample_to_dfa_sample(ms)) == ms


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def dfas(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    rows = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
    )
    accepting = frozenset(q for q in range(n) if draw(st.booleans()))
    return Dfa(n, Alphabet(k), draw(st.integers(0, n - 1)), rows, accepting)


@st.composite
def dfa_and_word(draw):
    dfa = draw(dfas())
    word = tuple(draw(st.lists(st.integers(0, dfa.alphabet.size - 1), max_size=12)))
    return dfa, word


@st.composite
def samples(draw):
    k = draw(st.integers(1, 3))
    words = draw(
        st.lists(
            st.lists(st.integers(0, k - 1), max_size=5).map(tuple),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    labels = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    pos = frozenset(w for w, l in zip(words, labels) if l)
    return DfaSample(Alphabet(k), pos, frozenset(words) - pos)


@given(samples())
def test_pta_is_acyclic_and_consistent(s):
    pta = prefix_tree_acceptor(s)
    assert pta.is_acyclic()
    assert not consistency_violations(pta, s)
    assert not consistency_violations(pta.completed(), s)


@given(dfa_and_word())
def test_moore_last_symbol_matches_verdict(pair):
    dfa, word = pair
    out = dfa.to_moore().outputs(word)
    if word:
        assert out[-1] == dfa.accepts(word)


@given(dfa_and_word())
def test_mealy_equals_moore(pair):
    dfa, word = pair
    assert dfa.to_mealy().outputs(word) == dfa.to_moore().outputs(word)


@given(samples())
def test_sample_round_trip_up_to_epsilon(s):
    closure = {w[:k] for w in s.strings() for k in range(len(w) + 1)}
    closed = DfaSample(s.alphabet, s.positives, closure - s.positives)
    ms = dfa_sample_to_machine_sample(closed)
    back = machine_sample_to_dfa_sample(ms)
    assert back.positives == closed.positives - {()}
    assert back.negatives == closed.negatives - {()}
    # the reverse composition is the identity on maximal-run samples
    assert dfa_sample_to_machine_sample(back) == ms
