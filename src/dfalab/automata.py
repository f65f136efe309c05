"""Automata and labeled-sample data model.

Total and partial deterministic finite automata, Moore and Mealy
transducers with a binary output alphabet (encoded as booleans, True
meaning "+"), and the two sample representations used throughout:
labeled string sets, stored as labeled prefix trees, and input/output runs.

The four automaton types are one validated transition table (`_Machine`)
with a different last field: accepting states for `Dfa` and `PartialDfa`
(which share one `walk`), outputs for `MooreMachine` and `MealyMachine`.
Only `PartialDfa` admits missing transitions.

All values are frozen dataclasses (or read-only views of one) and every
operation is a pure function of its inputs, so values can be shared freely
between threads.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Set
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import gt, not_

Word = tuple[int, ...]
Run = tuple[Word, tuple[bool, ...]]  # an input word and the label of each nonempty prefix

OUTPUT_PLUS = "+"
OUTPUT_MINUS = "-"


class SampleError(ValueError):
    """A sample violates a structural precondition of an operation."""


def output_str(bits: Iterable[bool]) -> str:
    """Render a boolean output sequence as a +/- string."""
    return "".join(OUTPUT_PLUS if b else OUTPUT_MINUS for b in bits)


@dataclass(frozen=True)
class Alphabet:
    """Dense symbol indices in [0, size); names are display-only."""

    size: int
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("alphabet must have at least one symbol")
        if self.names is not None:
            names = tuple(self.names)
            object.__setattr__(self, "names", names)
            if len(names) != self.size:
                raise ValueError(f"got {len(names)} names for {self.size} symbols")
            if len(set(names)) != len(names):
                raise ValueError("symbol names must be distinct")

    @classmethod
    def binary(cls) -> "Alphabet":
        return cls(2, ("0", "1"))

    def name(self, symbol: int) -> str:
        return self.names[symbol] if self.names is not None else str(symbol)

    def check_word(self, word: Iterable[int]) -> Word:
        word = tuple(word)
        for a in word:
            if not 0 <= a < self.size:
                raise ValueError(
                    f"symbol {a} out of range for alphabet of size {self.size}"
                )
        return word


@dataclass(frozen=True)
class LabeledString:
    symbols: Word
    label: bool  # True = positive (accepted)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))


class SampleWords(Set):
    """Read-only set view of the words a DfaSample labels with a sign in
    `signs` (1 positive, -1 negative); set operations return frozensets."""

    __slots__ = ("_sample", "_signs")

    def __init__(self, sample: "DfaSample", signs: tuple[int, ...]):
        self._sample, self._signs = sample, signs

    def __len__(self) -> int:
        return sum(n for n, sign in zip(self._sample.counts, (1, -1)) if sign in self._signs)

    def __contains__(self, word) -> bool:
        node = self._sample.node(word)
        return node is not None and self._sample.labels[node] in self._signs

    def __iter__(self) -> Iterator[Word]:
        labels, signs = self._sample.labels, self._signs
        for word, nodes in self._sample.preorder():
            if labels[nodes[-1]] in signs:
                yield tuple(word)

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __repr__(self) -> str:
        return f"SampleWords({list(self)!r})"


@dataclass(frozen=True, init=False)
class DfaSample:
    """Disjoint sets of accepted (positive) and rejected (negative) strings,
    stored as their labeled prefix tree.

    One node per distinct prefix of a sample string, node 0 the empty one:
    `children[node]` maps symbols to child nodes and `labels[node]` is 1
    (positive), -1 (negative) or 0 (no sample string).  Nodes are numbered
    in preorder, children maps filled in symbol order, however the sample
    is built; `from_runs` builds in time linear in the run lengths.
    """

    alphabet: Alphabet
    children: tuple[dict[int, int], ...] = field(repr=False)
    labels: tuple[int, ...]
    counts: tuple[int, int] = field(compare=False)  # (positives, negatives)

    def __init__(self, alphabet: Alphabet, positives: Iterable[Word], negatives: Iterable[Word]):
        pos = frozenset(tuple(w) for w in positives)
        neg = frozenset(tuple(w) for w in negatives)
        overlap = pos & neg
        if overlap:
            raise SampleError(f"{len(overlap)} strings labeled both positive and negative")
        children: list[dict[int, int]] = [{}]
        labels = [0]
        for words, sign in ((pos, 1), (neg, -1)):
            for word in words:
                node = 0
                for a in word:
                    child = children[node].get(a)
                    if child is None:
                        child = children[node][a] = len(labels)
                        children.append({})
                        labels.append(0)
                    node = child
                labels[node] = sign
        self._plant(alphabet, children, labels)

    def _set(self, alphabet: Alphabet, children: list[dict[int, int]], labels: list[int]) -> None:
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "counts", (labels.count(1), labels.count(-1)))

    @classmethod
    def from_runs(cls, alphabet: Alphabet, runs: Iterable[Run],
                  empty: bool | None = None) -> "DfaSample":
        """Every prefix of every run input `word`, the length-k one labeled
        `out[k - 1]` and the empty one `empty` (None: unlabeled), in time
        linear in the run lengths.  SampleError if two runs disagree."""
        size = alphabet.size
        children: list[dict[int, int]] = [{}]
        labels = [0 if empty is None else (1 if empty else -1)]
        ordered = sorted(runs)  # inserted in sorted order, nodes come in preorder
        for word, out in ordered:
            if len(word) != len(out):
                raise SampleError(f"run {_format_run((word, out))} has |input| != |output|")
            node = 0
            for k, (a, b) in enumerate(zip(word, out)):
                label = 1 if b else -1
                nxt = children[node].get(a)
                if nxt is None and k + 1 < len(word):  # two or more new symbols: one chain
                    new = word[k:]
                    if not (0 <= min(new) and max(new) < size):
                        raise ValueError(f"string {word!r} uses symbols outside alphabet of size {size}")
                    nxt = children[node][a] = len(labels)
                    children += [{s: c} for s, c in zip(new[1:], range(nxt + 1, nxt + len(new)))]
                    children.append({})
                    labels += [1 if o else -1 for o in out[k:]]
                    break
                if nxt is None:  # one new symbol: one node, at half the chain's cost
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
        sample = cls.__new__(cls)
        sample._set(alphabet, children, labels)
        return sample

    @classmethod
    def _from_tree(cls, alphabet: Alphabet, children: list[dict[int, int]],
                   labels: list[int]) -> "DfaSample":
        """The sample whose labeled prefix tree is `children`/`labels`; see `_plant`."""
        sample = cls.__new__(cls)
        sample._plant(alphabet, children, labels)
        return sample

    def _plant(self, alphabet: Alphabet, children: list[dict[int, int]],
               labels: list[int]) -> None:
        """Make this the sample whose labeled prefix tree is
        `children`/`labels`, rooted at node 0 but numbered in any order,
        every leaf labeled: renumbered into preorder with children maps in
        symbol order.  ValueError names the least string with a symbol
        outside the alphabet."""
        size = alphabet.size
        tree_children: list[dict[int, int]] = []
        tree_labels: list[int] = []
        in_range = True
        stack = [(0, -1, 0)]  # (node, new number of its parent, its symbol)
        while stack:
            old, parent, a = stack.pop()
            node = len(tree_labels)
            if parent >= 0:
                tree_children[parent][a] = node
            tree_children.append({})
            tree_labels.append(labels[old])
            kids = children[old]
            if kids:
                symbols = sorted(kids)
                in_range = in_range and 0 <= symbols[0] and symbols[-1] < size
                stack.extend([(kids[b], node, b) for b in reversed(symbols)])
        self._set(alphabet, tree_children, tree_labels)
        if not in_range:
            word = next(tuple(w) for w, nodes in self.preorder()
                        if tree_labels[nodes[-1]] and not all(0 <= a < size for a in w))
            raise ValueError(f"string {word!r} uses symbols outside alphabet of size {size}")

    @property
    def positives(self) -> SampleWords:
        return SampleWords(self, (1,))

    @property
    def negatives(self) -> SampleWords:
        return SampleWords(self, (-1,))

    def strings(self) -> SampleWords:
        return SampleWords(self, (1, -1))

    def size(self) -> int:
        return sum(self.counts)

    def node(self, word: Iterable[int]) -> int | None:
        """The tree node of `word`, or None when it is no prefix of a sample string."""
        node: int | None = 0
        for a in word:
            node = self.children[node].get(a)
            if node is None:
                break
        return node

    def label(self, word: Word) -> bool | None:
        node = self.node(word)
        return None if node is None or not self.labels[node] else self.labels[node] > 0

    def preorder(self) -> Iterator[tuple[list[int], list[int]]]:
        """(word, nodes) for every node in preorder, so in sorted word order;
        `nodes` holds the nodes of the word's prefixes, the root first and
        the node itself last.  Both lists are updated in place."""
        children = self.children
        word: list[int] = []
        nodes = [0]
        yield word, nodes
        stack = [(c, 1, a) for a, c in reversed(children[0].items())]
        while stack:
            node, depth, a = stack.pop()
            del word[depth - 1:], nodes[depth:]
            word.append(a)
            nodes.append(node)
            yield word, nodes
            stack.extend((c, depth + 1, b) for b, c in reversed(children[node].items()))

    def __hash__(self) -> int:
        return hash((self.alphabet, self.labels))


@dataclass(frozen=True)
class _Machine:
    """The transition table behind all four automaton types: each entry a
    state index, or None (missing) where the class sets `_partial`; a None
    elsewhere is refused naming the class's `_kind`.  The rows are checked,
    then the state count and the initial state."""

    num_states: int
    alphabet: Alphabet
    initial: int
    transitions: tuple[tuple[int, ...], ...]

    _partial = False
    _kind = "total DFA"

    def __post_init__(self) -> None:
        num_states, size, partial = self.num_states, self.alphabet.size, self._partial
        rows = tuple(map(tuple, self.transitions))
        if len(rows) != num_states:
            raise ValueError(f"expected {num_states} transition rows, got {len(rows)}")
        try:  # checked in bulk; the loop below names the first error
            entries = set(chain.from_iterable(rows)) - ({None} if partial else set())
            valid = set(map(len, rows)) <= {size} and _within(entries, num_states)
        except TypeError:  # an unhashable entry
            valid = False
        for q, row in enumerate(() if valid else rows):
            if len(row) != size:
                raise ValueError(f"state {q}: expected {size} entries, got {len(row)}")
            for t in row:
                if t is None:
                    if not partial:
                        raise ValueError(f"state {q} has a missing transition in a {self._kind}")
                elif not 0 <= t < num_states:
                    raise ValueError(f"state {q} has transition target {t} out of range")
        object.__setattr__(self, "transitions", rows)
        if num_states < 1:
            raise ValueError("automaton needs at least one state")
        if not 0 <= self.initial < num_states:
            raise ValueError(f"initial state {self.initial} out of range")


@dataclass(frozen=True)
class _Acceptor(_Machine):
    """A table with accepting states; a run that falls off rejects."""

    accepting: frozenset[int]

    def __post_init__(self) -> None:
        super().__post_init__()
        accepting = frozenset(self.accepting)
        for q in () if _within(accepting, self.num_states) else accepting:
            if not 0 <= q < self.num_states:
                raise ValueError(f"accepting state {q} out of range")
        object.__setattr__(self, "accepting", accepting)

    def walk(self, word: Iterable[int], start: int | None = None) -> int | None:
        """Extended transition: the state reached from `start` on `word`,
        or None once the run falls off a missing transition."""
        if start is not None and not 0 <= start < self.num_states:
            raise ValueError(f"start state {start} out of range")
        state = self.initial if start is None else start
        trans = self.transitions
        for a in self.alphabet.check_word(word):
            if state is None:
                return None
            state = trans[state][a]
        return state

    def accepts(self, word: Iterable[int]) -> bool:
        return self.walk(word) in self.accepting


@dataclass(frozen=True)
class Dfa(_Acceptor):
    """Total DFA: transitions[state][symbol] is always a state index."""

    def to_moore(self) -> "MooreMachine":
        """Same graph; each state outputs whether it is accepting."""
        output = tuple(q in self.accepting for q in range(self.num_states))
        return MooreMachine(self.num_states, self.alphabet, self.initial, self.transitions, output)

    def to_mealy(self) -> "MealyMachine":
        """Same graph; each edge outputs whether its target is accepting."""
        output = tuple(
            tuple(t in self.accepting for t in row) for row in self.transitions
        )
        return MealyMachine(self.num_states, self.alphabet, self.initial, self.transitions, output)


@dataclass(frozen=True)
class PartialDfa(_Acceptor):
    """DFA whose transition table may have missing (None) entries.

    A run that needs a missing transition falls off the automaton; for
    consistency purposes such a string counts as rejected.
    """

    transitions: tuple[tuple[int | None, ...], ...]
    _partial = True

    def is_acyclic(self) -> bool:
        """True iff no directed cycle is reachable from the initial state:
        depth-first search on an explicit stack."""
        GRAY, BLACK = 1, 2
        trans = self.transitions
        color: dict[int | None, int] = {None: BLACK, self.initial: GRAY}  # a missing entry leads nowhere
        stack = [(self.initial, iter(trans[self.initial]))]  # (state, its successors not yet tried)
        while stack:
            q, pending = stack[-1]
            for t in pending:
                c = color.get(t)
                if c == GRAY:
                    return False
                if c is None:
                    color[t] = GRAY
                    stack.append((t, iter(trans[t])))
                    break
            else:
                color[q] = BLACK
                stack.pop()
        return True

    def completed(self) -> Dfa:
        """Fill every missing entry with a self-loop.

        Keeps the state count.  Keeps consistency with a sample only when
        every sample string has a full run, as on every quotient of the
        sample's prefix tree (solver and RPNI output, the forward
        witnesses): a string that falls off right after an accepting state
        is rejected, and a self-loop there would accept it.
        """
        rows = tuple(tuple(map({None: q}.get, row, row)) for q, row in enumerate(self.transitions))
        return Dfa(self.num_states, self.alphabet, self.initial, rows, self.accepting)


@dataclass(frozen=True)
class MooreMachine(_Machine):
    """Transducer emitting one output per state entered; M(empty) = empty."""

    output: tuple[bool, ...]  # per state; True = "+"
    _kind = "Moore machine"

    def __post_init__(self) -> None:
        super().__post_init__()
        output = tuple(map(bool, self.output))
        object.__setattr__(self, "output", output)
        if len(output) != self.num_states:
            raise ValueError("need one output per state")

    def outputs(self, word: Iterable[int]) -> tuple[bool, ...]:
        state = self.initial
        trans = self.transitions
        out = []
        for a in self.alphabet.check_word(word):
            state = trans[state][a]
            out.append(self.output[state])
        return tuple(out)


@dataclass(frozen=True)
class MealyMachine(_Machine):
    """Transducer emitting one output per transition taken; M(empty) = empty."""

    output: tuple[tuple[bool, ...], ...]  # per (state, symbol); True = "+"
    _kind = "Mealy machine"

    def __post_init__(self) -> None:
        super().__post_init__()
        output = tuple(tuple(map(bool, row)) for row in self.output)
        object.__setattr__(self, "output", output)
        if len(output) != self.num_states or any(len(row) != self.alphabet.size for row in output):
            raise ValueError("need one output per (state, symbol)")

    def outputs(self, word: Iterable[int]) -> tuple[bool, ...]:
        state = self.initial
        trans = self.transitions
        out = []
        for a in self.alphabet.check_word(word):
            out.append(self.output[state][a])
            state = trans[state][a]
        return tuple(out)


def _format_run(run: Run) -> str:
    word, out = run
    return f"({list(word)}, {output_str(out)!r})"


def _within(values, bound: int) -> bool:
    """Whether all values are ints in [0, bound), by their types, min and
    max; False sends the caller to its entry loop, which decides."""
    return set(map(type, values)) <= {int} and (not values or 0 <= min(values) and max(values) < bound)


@dataclass(frozen=True)
class MachineSample:
    """Finite set of observed (input, output) runs with equal lengths.

    Two runs must agree on outputs along any shared input prefix.
    """

    alphabet: Alphabet
    runs: frozenset[Run]

    def __post_init__(self) -> None:
        runs = frozenset((tuple(s), tuple(map(bool, t))) for s, t in self.runs)
        object.__setattr__(self, "runs", runs)
        # checks lengths, symbols and agreement on shared input prefixes
        DfaSample.from_runs(self.alphabet, runs)


class PrefixCompleteness(Enum):
    COMPLETE = "complete"
    ALMOST_COMPLETE = "almost_complete"
    NEITHER = "neither"


def prefix_completeness(sample: DfaSample) -> PrefixCompleteness:
    """Classify whether the sample's string set is closed under prefixes:
    whether every tree node is labeled.

    COMPLETE means the set equals its own prefix closure; ALMOST_COMPLETE
    means only the empty string is missing.
    """
    labels = sample.labels
    if 0 in labels[1:]:
        return PrefixCompleteness.NEITHER
    if labels[0] or len(labels) == 1:
        return PrefixCompleteness.COMPLETE
    return PrefixCompleteness.ALMOST_COMPLETE


def consistency_violations(machine: Dfa | PartialDfa, sample: DfaSample) -> list[LabeledString]:
    """All sample strings whose verdict under `machine` contradicts their
    label, in sorted order; empty when the machine is consistent.  The
    machine runs once down each edge of the sample's prefix tree.
    """
    if machine.alphabet.size != sample.alphabet.size:
        raise ValueError(
            f"alphabet mismatch: machine has {machine.alphabet.size} symbols, "
            f"sample has {sample.alphabet.size}"
        )
    trans, labels = machine.transitions, sample.labels
    state: list[int | None] = [machine.initial] * len(labels)
    for node, children in enumerate(sample.children):  # parents come first
        for a, child in children.items():
            state[child] = None if state[node] is None else trans[state[node]][a]
    accepting = machine.accepting  # a run that fell off (None) rejects
    wrong = {node for node, label in enumerate(labels)
             if label and (state[node] in accepting) != (label > 0)}
    if not wrong:
        return []
    return [LabeledString(tuple(word), labels[nodes[-1]] > 0)
            for word, nodes in sample.preorder() if nodes[-1] in wrong]


def is_consistent(machine: Dfa | PartialDfa, sample: DfaSample) -> bool:
    return not consistency_violations(machine, sample)


def prefix_tree_acceptor(sample: DfaSample) -> PartialDfa:
    """Tree-shaped partial DFA with one state per distinct prefix: the
    sample's own tree, state numbers included.

    A state is accepting iff its prefix is a positive string, so the tree
    is consistent with the sample by construction and trivially acyclic.
    """
    if not sample.size():
        raise SampleError("cannot build a prefix tree from an empty sample")
    children = sample.children  # one column per symbol, zipped into rows
    rows = tuple(zip(*[map(dict.get, children, repeat(a)) for a in range(sample.alphabet.size)]))
    accepting = frozenset(compress(count(), map(gt, sample.labels, repeat(0))))
    return PartialDfa(len(rows), sample.alphabet, 0, rows, accepting)


def dfa_sample_to_machine_sample(sample: DfaSample) -> MachineSample:
    """One run per maximal string; output position k is the label of the
    length-k prefix.  The empty string's label is dropped.

    Requires a prefix-complete or almost prefix-complete sample, otherwise
    some per-position outputs would be undefined.
    """
    if prefix_completeness(sample) is PrefixCompleteness.NEITHER:
        raise SampleError(
            "sample is not (almost) prefix-complete; per-position outputs are undefined"
        )
    # in preorder, the nodes after one leaf up to the next are a chain of
    # first children, hanging below a node on the path of the one before
    children, labels = sample.children, sample.labels
    runs = []
    path, word = [0], []  # the nodes and symbols of the last run's prefixes
    start = 1  # the node after the last leaf
    for leaf in compress(range(1, len(children)), map(not_, islice(children, 1, None))):  # leaves
        while start not in children[path[-1]].values():
            path.pop()
        kids = children[path[-1]]
        del word[len(path) - 1:]
        word.append(list(kids)[list(kids.values()).index(start)])
        word.extend(map(next, map(iter, children[start:leaf])))  # first children: the least symbols
        path.extend(range(start, leaf + 1))
        runs.append((tuple(word), tuple([labels[q] > 0 for q in path[1:]])))
        start = leaf + 1
    return MachineSample(sample.alphabet, frozenset(runs))


def machine_sample_to_dfa_sample(ms: MachineSample) -> DfaSample:
    """Label every nonempty prefix of every run input by its output symbol.

    The result is almost prefix-complete; the empty string is placed in
    neither set.
    """
    return DfaSample.from_runs(ms.alphabet, ms.runs)
