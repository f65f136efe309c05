"""Independent output checks for the benchmark.

Every verdict here is computed from the definitions in the project README,
never by calling the code under test and never against a stored copy of an
earlier output: the benchmark replays automata with its own walker,
recomputes samples, codes and per-position labels from the reduction
parameters, checks colorings edge by edge, and finds cliques and small
chromatic numbers by its own search.

Automata are read through their public fields only (`initial`,
`accepting`, `transitions`), or from the automaton JSON document.
"""
from __future__ import annotations

import json
from itertools import product
from types import SimpleNamespace


class Verdicts:
    """The failed checks of one operation, by description."""

    def __init__(self, op: str):
        self.op = op
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(f"{self.op}: {what}")


# ---------------------------------------------------------------------------
# Graphs and colorings


def is_proper(edges, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in edges)


def num_colors(colors) -> int:
    return len(set(colors))


def max_clique(n: int, edges) -> list[int]:
    """A maximum clique, by Bron-Kerbosch with pivoting over bitmasks."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    best: list[int] = []
    stack = [((1 << n) - 1, 0, [])]
    while stack:
        p, x, members = stack.pop()
        if not p and not x:
            if len(members) > len(best):
                best = members
            continue
        if len(members) + bin(p).count("1") <= len(best):
            continue
        pivot_pool = p | x
        pivot = max(
            (u for u in range(n) if pivot_pool >> u & 1),
            key=lambda u: bin(p & nbr[u]).count("1"),
        )
        for v in range(n):
            bit = 1 << v
            if p & bit and not nbr[pivot] & bit:
                stack.append((p & nbr[v], x & nbr[v], members + [v]))
                p &= ~bit
                x |= bit
    return best


def is_clique(members, edges) -> bool:
    es = set(edges)
    return all((u, v) in es for u in members for v in members if u < v)


def brute_chromatic(n: int, edges) -> int:
    """Smallest k admitting a proper k-labeling, by exhaustion (tiny graphs)."""
    if n > 8:
        raise ValueError("exhaustive chromatic search is for graphs of at most 8 vertices")
    for k in range(1, n + 1):
        for colors in product(range(k), repeat=n):
            if is_proper(edges, colors):
                return k
    return n


# ---------------------------------------------------------------------------
# Automata: a transition table read from public fields or JSON, and a walker


class Table:
    """initial state, accepting set, rows[q][a] -> state or None."""

    def __init__(self, num_states: int, initial: int, accepting, rows):
        self.num_states = num_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.rows = rows


def table_of(machine) -> Table:
    rows = [list(row) for row in machine.transitions]
    return Table(machine.num_states, machine.initial, machine.accepting, rows)


def table_from_json(text: str) -> Table:
    doc = json.loads(text)
    n = doc["states"]
    rows = [[None] * len(doc["alphabet"]) for _ in range(n)]
    for q, a, t in doc["transitions"]:
        rows[q][a] = t
    return Table(n, doc["initial"], doc["accepting"], rows)


def accepts(m: Table, word) -> bool:
    q = m.initial
    rows = m.rows
    for a in word:
        q = rows[q][a]
        if q is None:
            return False
    return q in m.accepting


def replay_violations(m: Table, positives, negatives) -> int:
    """Sample strings whose verdict under m contradicts their label."""
    bad = sum(1 for w in positives if not accepts(m, w))
    return bad + sum(1 for w in negatives if accepts(m, w))


def run_consistent(m: Table, word, labels) -> bool:
    """Consistency with the labeled prefixes of one string, by one walk:
    the empty prefix is negative, the length-k prefix carries labels[k-1]."""
    if m.initial in m.accepting:
        return False
    q = m.initial
    rows = m.rows
    for pos, a in enumerate(word):
        q = rows[q][a]
        if q is None:  # fell off: every longer prefix is rejected
            return not any(labels[pos:])
        if (q in m.accepting) != labels[pos]:
            return False
    return True


def chain_classes(m: Table, heads, L: int) -> list[int]:
    """Vertex classes by the state that head(v) followed by 0^L reaches,
    numbered 1, 2, ... in order of first appearance."""
    index: dict[int, int] = {}
    colors = []
    for head in heads:
        q = m.initial
        for a in tuple(head) + (0,) * L:
            q = m.rows[q][a]
        colors.append(index.setdefault(q, len(index) + 1))
    return colors


# ---------------------------------------------------------------------------
# The three reductions, recomputed from their definitions


def dimacs(g) -> str:
    edges = canonical_edges(g)
    lines = [f"p edge {g.num_vertices} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def legal_params(g, K: int) -> SimpleNamespace:
    """The smallest legal parameters: codes of ceil(log2) bits (at least
    one), L > 4|V| + 2|E| tail_len and N > (K+1) L."""
    head_len = max(1, (g.num_vertices - 1).bit_length())
    tail_len = max(1, (len(g.edges) - 1).bit_length())
    L = 4 * g.num_vertices + 2 * len(g.edges) * tail_len + 1
    return SimpleNamespace(K=K, L=L, N=(K + 1) * L + 1, head_len=head_len, tail_len=tail_len)


def canonical_edges(g) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in g.edges)


def bits(value: int, width: int) -> tuple[int, ...]:
    return tuple(int(c) for c in format(value, f"0{width}b"))


def codes(g, head_len: int, tail_len: int):
    """Big-endian vertex codes by index, edge codes by canonical rank."""
    heads = [bits(v, head_len) for v in range(g.num_vertices)]
    tails = [bits(r, tail_len) for r in range(len(g.edges))]
    return heads, tails


def incident_pairs(g):
    edges = canonical_edges(g)
    return [
        (v, rank, e)
        for v in range(g.num_vertices)
        for rank, e in enumerate(edges)
        if v in e
    ]


def zhang_expected(g) -> tuple[set, set]:
    n = g.num_vertices
    pos = {()}
    neg = {(v,) for v in range(n)}
    for rank, (i, j) in enumerate(canonical_edges(g)):
        pos.add((i, n + rank))
        neg.add((j, n + rank))
    return pos, neg


def binary_expected(g, params) -> tuple[set, set]:
    heads, tails = codes(g, params.head_len, params.tail_len)
    body = (0,) * params.L
    pos = set()
    universe = set()
    full = [heads[v] + body for v in range(g.num_vertices)]
    pos.update(full)
    for v, rank, (i, _j) in incident_pairs(g):
        w = heads[v] + body + tails[rank]
        full.append(w)
        if v == i:
            pos.add(w)
    for w in full:
        universe.update(w[:k] for k in range(len(w) + 1))
    return pos, universe - pos


def single_expected(g, params) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """The single string and the label of each of its nonempty prefixes.

    Per block 0^N head 0^L tail: zero-run positions 1..N-1 are positive,
    position N negative, head and body negative except the body's last
    position, tail negative except its last, which is positive exactly
    when the block's vertex is the smaller endpoint of its edge.
    """
    heads, tails = codes(g, params.head_len, params.tail_len)
    word: list[int] = []
    labels: list[bool] = []
    for v, rank, (i, _j) in incident_pairs(g):
        word += [0] * params.N + list(heads[v]) + [0] * params.L + list(tails[rank])
        labels += [True] * (params.N - 1) + [False] * (1 + params.head_len)
        labels += [False] * (params.L - 1) + [True]
        labels += [False] * (params.tail_len - 1) + [v == i]
    return tuple(word), tuple(labels)


def single_length(g, params) -> int:
    return 2 * len(g.edges) * (params.N + params.head_len + params.L + params.tail_len)


def is_prefix_sample(positives, negatives, word, labels) -> bool:
    """True iff the sample is exactly the |word|+1 prefixes of word, each
    labeled as `labels` says (the empty prefix negative).

    Distinct prefixes of one string have distinct lengths, so counting the
    strings and checking each one is a correctly labeled prefix suffices.
    """
    if len(positives) + len(negatives) != len(word) + 1:
        return False
    for w in positives:
        k = len(w)
        if k == 0 or not labels[k - 1] or word[:k] != w:
            return False
    for w in negatives:
        k = len(w)
        if k and (labels[k - 1] or word[:k] != w):
            return False
    return True


def prefix_count(strings) -> int:
    """Number of distinct prefixes, i.e. of prefix-tree nodes."""
    return len({w[:k] for w in strings for k in range(len(w) + 1)})


# ---------------------------------------------------------------------------
# File formats


def parse_abbadingo(text: str) -> tuple[set, set]:
    """(positives, negatives) of an Abbadingo document."""
    lines = text.split("\n")
    count = int(lines[0].split()[0])
    pos, neg = set(), set()
    for line in lines[1 : count + 1]:
        fields = [int(x) for x in line.split()]
        word = tuple(fields[2:])
        if len(word) != fields[1]:
            raise ValueError(f"declared length {fields[1]}, got {len(word)}")
        (pos if fields[0] == 1 else neg).add(word)
    if any(lines[count + 1 :]) or len(pos) + len(neg) != count:
        raise ValueError("string count does not match the header")
    return pos, neg


def run_text(word, labels) -> str:
    """A run file holding one run."""
    return "".join(map(str, word)) + "\n" + "".join("+" if b else "-" for b in labels) + "\n"
