"""DfaSample as a labeled prefix tree, checked against frozenset references
and against sorted-walk reference implementations of its consumers."""
from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfalab import (
    Alphabet,
    DfaSample,
    Graph,
    MachineSample,
    PartialDfa,
    PrefixCompleteness,
    SampleError,
    consistency_violations,
    default_params,
    dfa_sample_to_machine_sample,
    machine_sample_to_dfa_sample,
    make_encoding,
    prefix_completeness,
    prefix_tree_acceptor,
    single_string,
)
from dfalab.formats import sample_to_abbadingo


@st.composite
def labeled_sets(draw):
    """(alphabet, positives, negatives) as frozensets, prefix-closed or not."""
    k = draw(st.integers(1, 3))
    words = draw(st.sets(st.lists(st.integers(0, k - 1), max_size=6).map(tuple), max_size=12))
    if draw(st.booleans()):
        words = {w[:i] for w in words for i in range(len(w) + 1)}
        if draw(st.booleans()):
            words.discard(())
    words = sorted(words)
    signs = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    pos = frozenset(w for w, plus in zip(words, signs) if plus)
    return Alphabet(k), pos, frozenset(words) - pos


@st.composite
def machines(draw, k: int):
    n = draw(st.integers(1, 4))
    rows = tuple(
        tuple(draw(st.one_of(st.none(), st.integers(0, n - 1))) for _ in range(k))
        for _ in range(n)
    )
    accepting = frozenset(q for q in range(n) if draw(st.booleans()))
    return PartialDfa(n, Alphabet(k), 0, rows, accepting)


@st.composite
def runs(draw):
    """Runs that agree on shared prefixes: outputs from one labeling of prefixes."""
    words = draw(st.lists(st.lists(st.integers(0, 1), max_size=8).map(tuple), max_size=5))
    label: dict = {}
    out = set()
    for w in words:
        for k in range(1, len(w) + 1):
            if w[:k] not in label:
                label[w[:k]] = draw(st.booleans())
        out.add((w, tuple(label[w[:k]] for k in range(1, len(w) + 1))))
    return out


# ---------------------------------------------------------------------------
# Sorted-walk references: the string-set definitions, one word at a time


def ref_pta(alphabet, pos, neg) -> PartialDfa:
    children: list[dict[int, int]] = [{}]
    accepting = set()
    for word in sorted(pos | neg):
        node = 0
        for a in word:
            if a not in children[node]:
                children[node][a] = len(children)
                children.append({})
            node = children[node][a]
        if word in pos:
            accepting.add(node)
    rows = tuple(tuple(ch.get(a) for a in range(alphabet.size)) for ch in children)
    return PartialDfa(len(rows), alphabet, 0, rows, frozenset(accepting))


def ref_violations(machine, pos, neg) -> list[tuple]:
    return [(w, w in pos) for w in sorted(pos | neg) if machine.accepts(w) != (w in pos)]


def ref_machine_runs(pos, neg) -> set:
    words = pos | neg
    maximal = [w for w in words
               if w and not any(len(v) > len(w) and v[: len(w)] == w for v in words)]
    return {(w, tuple(w[:k] in pos for k in range(1, len(w) + 1))) for w in maximal}


def ref_abbadingo(alphabet, pos, neg) -> str:
    words = sorted(pos | neg, key=lambda w: (len(w), w))
    lines = [f"{len(words)} {alphabet.size}"]
    for w in words:
        lines.append(" ".join([str(int(w in pos)), str(len(w))] + [str(a) for a in w]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(labeled_sets(), st.lists(st.integers(0, 2), max_size=6).map(tuple))
def test_views_behave_like_frozensets(case, probe):
    alphabet, pos, neg = case
    s = DfaSample(alphabet, pos, neg)
    for view, ref in ((s.positives, pos), (s.negatives, neg), (s.strings(), pos | neg)):
        assert len(view) == len(ref)
        assert list(view) == sorted(ref)
        assert all(type(w) is tuple for w in view)
        assert view == ref and ref == view and view == frozenset(view)
        assert (probe in view) == (probe in ref)
        assert all(w in view for w in ref)
        assert view - {()} == ref - {()}
        assert isinstance(view - {()}, frozenset)
        assert view | {()} == ref | {()}
    assert s.size() == len(pos) + len(neg)
    assert not s.positives & s.negatives
    for w in pos | neg | {probe}:
        assert s.label(w) == (True if w in pos else False if w in neg else None)


@settings(max_examples=200, deadline=None)
@given(labeled_sets())
def test_equal_sets_make_equal_samples(case):
    alphabet, pos, neg = case
    s = DfaSample(alphabet, pos, neg)
    again = DfaSample(alphabet, list(reversed(sorted(pos))), [list(w) for w in neg])
    assert s == again and hash(s) == hash(again)
    assert s != DfaSample(Alphabet(alphabet.size + 1), pos, neg)
    if pos:
        assert s != DfaSample(alphabet, pos - {min(pos)}, neg | {min(pos)})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=12).map(tuple), st.data())
def test_string_run_and_machine_sample_builds_agree(word, data):
    labels = tuple(data.draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word))))
    pos = {word[:k] for k in range(1, len(word) + 1) if labels[k - 1]}
    neg = {word[:k] for k in range(1, len(word) + 1) if not labels[k - 1]}
    from_strings = DfaSample(Alphabet.binary(), pos, neg | {()})
    from_run = DfaSample.from_runs(Alphabet.binary(), [(word, labels)], empty=False)
    assert from_strings == from_run
    via_machine = machine_sample_to_dfa_sample(MachineSample(Alphabet.binary(), {(word, labels)}))
    assert via_machine == DfaSample(Alphabet.binary(), pos, neg)


@settings(max_examples=200, deadline=None)
@given(runs())
def test_runs_build_the_tree_of_their_prefixes(rs):
    pos = {w[:k] for w, out in rs for k in range(1, len(w) + 1) if out[k - 1]}
    neg = {w[:k] for w, out in rs for k in range(1, len(w) + 1) if not out[k - 1]}
    expected = DfaSample(Alphabet.binary(), pos, neg)
    assert DfaSample.from_runs(Alphabet.binary(), rs) == expected
    assert machine_sample_to_dfa_sample(MachineSample(Alphabet.binary(), frozenset(rs))) == expected


@settings(max_examples=200, deadline=None)
@given(labeled_sets(), st.data())
def test_consumers_match_the_sorted_walk_references(case, data):
    alphabet, pos, neg = case
    s = DfaSample(alphabet, pos, neg)
    assert sample_to_abbadingo(s) == ref_abbadingo(alphabet, pos, neg)
    machine = data.draw(machines(alphabet.size))
    got = [(v.symbols, v.label) for v in consistency_violations(machine, s)]
    assert got == ref_violations(machine, pos, neg)
    if pos | neg:
        assert prefix_tree_acceptor(s) == ref_pta(alphabet, pos, neg)
    else:
        with pytest.raises(SampleError):
            prefix_tree_acceptor(s)
    words = pos | neg
    missing = {w[:-1] for w in words if w} - words
    if missing - {()}:
        assert prefix_completeness(s) is PrefixCompleteness.NEITHER
        with pytest.raises(SampleError, match="prefix-complete"):
            dfa_sample_to_machine_sample(s)
    else:
        assert prefix_completeness(s) is (
            PrefixCompleteness.ALMOST_COMPLETE if missing else PrefixCompleteness.COMPLETE
        )
        assert dfa_sample_to_machine_sample(s).runs == ref_machine_runs(pos, neg)


def test_constructors_keep_their_errors():
    with pytest.raises(SampleError, match="both positive and negative"):
        DfaSample(Alphabet.binary(), {(0,)}, {(0,)})
    with pytest.raises(ValueError, match="outside alphabet"):
        DfaSample(Alphabet.binary(), {(0, 2)}, set())
    with pytest.raises(ValueError, match="outside alphabet"):
        DfaSample.from_runs(Alphabet.binary(), [((0, 2), (True, False))])
    with pytest.raises(SampleError, match="conflicting runs"):
        DfaSample.from_runs(Alphabet.binary(), [((0, 1), (True, False)), ((0, 0), (False, True))])
    with pytest.raises(SampleError, match="input"):
        DfaSample.from_runs(Alphabet.binary(), [((0, 1), (True,))])


def test_single_string_sample_is_one_path():
    g = Graph.complete(4)
    params = default_params(g, 4)
    enc = make_encoding(g, params)
    word, sample, _run = single_string(g, params, enc)
    assert len(sample.labels) == len(word) + 1 and all(sample.labels)
    assert all(len(ch) <= 1 for ch in sample.children)
    assert sample.node(word) == len(word)


def test_single_string_allocates_linear_memory():
    """The k4 instance with K=4 (|Str| = 3888) took 58 MB as prefix tuples."""
    g = Graph.complete(4)
    params = default_params(g, 4)
    enc = make_encoding(g, params)
    tracemalloc.start()
    try:
        word, _sample, _run = single_string(g, params, enc)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(word) == 3888
    assert peak < 5 * 2**20, f"{peak / 2**20:.1f} MB"
