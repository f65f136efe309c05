"""The bulk construction layers against the per-symbol and per-entry loops
they replace: `DfaSample.from_runs`, `MachineSample`, the transition-table
checks, the prefix-tree rows and the sample-to-runs conversion.  Each
reference below is the loop as it was, kept here so that trees, runs and
error messages can be compared exactly."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfalab import (
    Alphabet,
    Dfa,
    DfaSample,
    MachineSample,
    MealyMachine,
    MooreMachine,
    PartialDfa,
    SampleError,
    dfa_sample_to_machine_sample,
    machine_sample_to_dfa_sample,
    prefix_tree_acceptor,
)
from dfalab.automata import output_str

# ---------------------------------------------------------------------------
# References


def _format_run(run) -> str:
    word, out = run
    return f"({list(word)}, {output_str(out)!r})"


def reference_from_runs(size: int, runs, empty=None):
    """The labeled prefix tree of `runs`, one symbol at a time."""
    children = [{}]
    labels = [0 if empty is None else (1 if empty else -1)]
    ordered = sorted(runs)
    for word, out in ordered:
        if len(word) != len(out):
            raise SampleError(f"run {_format_run((word, out))} has |input| != |output|")
        node = 0
        for k, (a, b) in enumerate(zip(word, out)):
            label = 1 if b else -1
            nxt = children[node].get(a)
            if nxt is None:
                if not 0 <= a < size:
                    raise ValueError(f"string {word!r} uses symbols outside alphabet of size {size}")
                nxt = len(labels)
                children[node][a] = nxt
                children.append({})
                labels.append(label)
            elif labels[nxt] != label:
                other = next(r for r in ordered if r[0][: k + 1] == word[: k + 1])
                raise SampleError(f"conflicting runs: {_format_run(other)} and "
                                  f"{_format_run((word, out))} disagree on a shared input prefix")
            node = nxt
    return children, labels


KINDS = {Dfa: "total DFA", PartialDfa: "total DFA", MooreMachine: "Moore machine",
         MealyMachine: "Mealy machine"}


def reference_table_error(cls, num_states: int, size: int, initial: int, rows, accepting):
    """The first message the table checks raise, entry by entry, or None."""
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != num_states:
        return f"expected {num_states} transition rows, got {len(rows)}"
    for q, row in enumerate(rows):
        if len(row) != size:
            return f"state {q}: expected {size} entries, got {len(row)}"
        for t in row:
            if t is None:
                if cls is not PartialDfa:
                    return f"state {q} has a missing transition in a {KINDS[cls]}"
            elif not 0 <= t < num_states:
                return f"state {q} has transition target {t} out of range"
    if num_states < 1:
        return "automaton needs at least one state"
    if not 0 <= initial < num_states:
        return f"initial state {initial} out of range"
    for q in frozenset(accepting) if cls in (Dfa, PartialDfa) else ():
        if not 0 <= q < num_states:
            return f"accepting state {q} out of range"
    return None


def reference_machine_runs(sample: DfaSample) -> frozenset:
    """One run per leaf, read off the preorder walk."""
    children, labels = sample.children, sample.labels
    return frozenset(
        (tuple(word), tuple(labels[node] > 0 for node in nodes[1:]))
        for word, nodes in sample.preorder()
        if word and not children[nodes[-1]]
    )


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def run_lists(draw):
    """(alphabet size, runs): words off a few shared stems, labeled
    consistently or at random, with duplicates, the odd symbol out of range
    or output missing, and words and outputs given as lists or tuples."""
    size = draw(st.integers(1, 3))
    symbol = st.integers(0, size - 1)
    if draw(st.booleans()):
        symbol = st.one_of(symbol, st.sampled_from([-1, size]))
    stems = draw(st.lists(st.lists(symbol, max_size=5), min_size=1, max_size=3))
    tails = st.lists(symbol, max_size=5)
    words = draw(st.lists(st.tuples(st.sampled_from(stems), tails).map(lambda p: p[0] + p[1]),
                          max_size=7))
    consistent = draw(st.booleans())
    truth: dict[tuple, bool] = {}
    runs = []
    for word in words:
        if consistent:
            out = [truth.setdefault(tuple(word[:i + 1]), draw(st.booleans())) for i in range(len(word))]
        else:
            out = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
        if draw(st.integers(0, 9)) == 0:
            out = out[:-1] if out and draw(st.booleans()) else out + [True]
        runs.append((word, out))
    if runs:
        runs += draw(st.lists(st.sampled_from(runs), max_size=2))
    as_list = draw(st.booleans())
    runs = [(list(w), list(o)) if as_list else (tuple(w), tuple(o)) for w, o in runs]
    return size, runs


@st.composite
def tables(draw):
    cls = draw(st.sampled_from([Dfa, PartialDfa, MooreMachine, MealyMachine]))
    n = draw(st.integers(0, 4))
    size = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(0, max(n - 1, 0)),
                      st.sampled_from([None, True, False, -1, n, n + 1, 0.5, float("nan")]))
    if draw(st.booleans()):  # a well-formed table now and then
        entry = st.integers(0, max(n - 1, 0))
    row = st.lists(entry, min_size=size, max_size=size)
    if draw(st.integers(0, 4)) == 0:
        row = st.lists(entry, min_size=max(size - 1, 0), max_size=size + 1)
    rows = draw(st.lists(row, min_size=n, max_size=n + (draw(st.integers(0, 9)) == 0)))
    initial = draw(st.sampled_from([0, 0, 0, -1, n]))
    accepting = draw(st.frozensets(st.one_of(st.integers(-1, n), st.just(float("nan"))), max_size=3))
    return cls, n, size, initial, rows, accepting


@st.composite
def closed_samples(draw):
    """A prefix-closed sample over 1-3 symbols, every prefix labeled, the
    empty one or not."""
    size = draw(st.integers(1, 3))
    words = draw(st.lists(st.lists(st.integers(0, size - 1), max_size=6).map(tuple), max_size=6))
    closure = sorted({w[:k] for w in words for k in range(1, len(w) + 1)})
    signs = draw(st.lists(st.booleans(), min_size=len(closure), max_size=len(closure)))
    pos = {w for w, s in zip(closure, signs) if s}
    neg = set(closure) - pos
    empty = draw(st.sampled_from([None, True, False]))
    if empty is not None:
        (pos if empty else neg).add(())
    return DfaSample(Alphabet(size), pos, neg)


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=300)
@given(run_lists(), st.sampled_from([None, True, False]))
def test_from_runs_is_the_per_symbol_tree(case, empty):
    size, runs = case
    try:
        children, labels = reference_from_runs(size, runs, empty)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            DfaSample.from_runs(Alphabet(size), runs, empty)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return
    sample = DfaSample.from_runs(Alphabet(size), runs, empty)
    assert [list(c.items()) for c in sample.children] == [list(c.items()) for c in children]
    assert sample.labels == tuple(labels)


@settings(max_examples=300)
@given(run_lists())
def test_machine_sample_checks_as_the_per_symbol_tree(case):
    size, runs = case
    normal = frozenset((tuple(w), tuple(map(bool, o))) for w, o in runs)
    try:
        reference_from_runs(size, normal)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            MachineSample(Alphabet(size), runs)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return
    assert MachineSample(Alphabet(size), runs).runs == normal


@pytest.mark.parametrize("runs, message", [
    ([((0, 1), (True, False)), ((0, 1), (True, True))],
     "conflicting runs: ([0, 1], '+-') and ([0, 1], '++') disagree on a shared input prefix"),
    ([((0,), (False,)), ((0, 2, 0), (False, True, True))],
     "string (0, 2, 0) uses symbols outside alphabet of size 2"),
    ([((1, -1), (True, True))], "string (1, -1) uses symbols outside alphabet of size 2"),
    ([((0,), (True,)), ((1, 1), (True,))], "run ([1, 1], '+') has |input| != |output|"),
])
def test_from_runs_names_the_first_error(runs, message):
    for build in (lambda: DfaSample.from_runs(Alphabet(2), runs),
                  lambda: MachineSample(Alphabet(2), runs)):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == message
        with pytest.raises(ValueError) as want:
            reference_from_runs(2, runs)
        assert type(got.value) is type(want.value)


@settings(max_examples=400)
@given(tables())
def test_table_checks_raise_as_the_entry_loop(case):
    cls, n, size, initial, rows, accepting = case
    last = accepting if cls in (Dfa, PartialDfa) else (
        (False,) * n if cls is MooreMachine else ((False,) * size,) * n)
    expected = reference_table_error(cls, n, size, initial, rows, accepting)
    if expected is None:
        machine = cls(n, Alphabet(size), initial, rows, last)
        assert machine.transitions == tuple(map(tuple, rows))
    else:
        with pytest.raises(ValueError) as got:
            cls(n, Alphabet(size), initial, rows, last)
        assert str(got.value) == expected


@pytest.mark.parametrize("cls", [Dfa, PartialDfa, MooreMachine, MealyMachine], ids=lambda c: c.__name__)
@pytest.mark.parametrize("n, initial, rows", [
    (2, 0, ((0, 1), (1,))),  # a short row
    (2, 0, ((0, 1), (None, 1))),  # None, refused outside a partial DFA
    (2, 0, ((0, 2), (0, 0))),  # an entry out of range
    (1, 0, ((0, True),)),  # a bool entry: True is 1, out of range here
    (2, 0, ((0, True), (False, 1))),  # and in range here
    (2, 0, ((0, float("nan")), (0, 1))),  # NaN, which no range holds
    (2, 0, ((0, 0.5), (1, 0))),  # a float in range, passed as before
    (0, 0, ()),  # no states
    (2, 2, ((0, 1), (1, 0))),  # a bad initial state
])
def test_malformed_tables(cls, n, initial, rows):
    last = frozenset() if cls in (Dfa, PartialDfa) else (
        (False,) * n if cls is MooreMachine else ((False, False),) * n)
    expected = reference_table_error(cls, n, 2, initial, rows, ())
    if expected is None:
        assert cls(n, Alphabet(2), initial, rows, last).transitions == rows
    else:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            cls(n, Alphabet(2), initial, rows, last)


@settings(max_examples=200)
@given(closed_samples())
def test_machine_sample_conversion_matches_the_preorder_walk(s):
    ms = dfa_sample_to_machine_sample(s)
    assert ms.runs == reference_machine_runs(s)
    if len(s.labels) > 1:
        back = machine_sample_to_dfa_sample(ms)
        assert back == DfaSample(s.alphabet, s.positives - {()}, s.negatives - {()})


@settings(max_examples=200)
@given(closed_samples())
def test_prefix_tree_rows(s):
    if not s.size():
        return
    size = s.alphabet.size
    pta = prefix_tree_acceptor(s)
    rows = tuple(tuple(ch.get(a) for a in range(size)) for ch in s.children)
    assert pta.transitions == rows
    assert pta.accepting == frozenset(q for q, label in enumerate(s.labels) if label > 0)
    assert pta.completed().transitions == tuple(
        tuple(q if t is None else t for t in row) for q, row in enumerate(rows))
