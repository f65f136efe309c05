"""Instance generators: three reductions from graph coloring to
consistent-automaton identification over prefix-closed samples.

Each family is defined once, as labeled runs (a word and the label of
each nonempty prefix): its sample is their prefix tree, built by one
`DfaSample.from_runs` call, and its extractor in `witnesses` replays them.

* zhang_runs / zhang_sample: strings over the vertex/edge alphabet (the
  classic vertex-then-incident-edge construction).
* binary_runs / binary_sample: binary strings head + 0^L body + tail, one
  per incident (vertex, edge) pair, with all prefixes labeled.
* single_run / single_string: one long binary string whose labeled
  prefixes form the entire sample; each element of the binary
  construction is embedded behind a run of N zeros.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._checks import check_count
from .automata import Alphabet, DfaSample, MachineSample, Run, Word
from .graphs import Graph


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n >= 2 else 0


def head_tail_lengths(g: Graph) -> tuple[int, int]:
    """Code lengths for vertices and edges, padded to at least one bit.

    The padding matters when |E| = 1 (or |V| = 1): a zero-length edge code
    would make the full string coincide with its positive body prefix and
    break the disjointness of the label sets.
    """
    return (
        max(1, _ceil_log2(g.num_vertices)),
        max(1, _ceil_log2(g.num_edges)),
    )


@dataclass(frozen=True)
class ReductionParams:
    """Size knobs, each an int of at least 1: K target colors, L body length,
    N leading-zero run, and the head and tail code lengths."""

    K: int
    L: int
    N: int
    head_len: int
    tail_len: int

    def __post_init__(self) -> None:
        for name in ("K", "L", "N", "head_len", "tail_len"):
            check_count(name, getattr(self, name))

    def block_len(self) -> int:
        """Length of one 0^N + head + body + tail block of the single string."""
        return self.N + self.head_len + self.L + self.tail_len


def default_params(g: Graph, K: int) -> ReductionParams:
    """Smallest legal parameter values for the given graph and color count."""
    head_len, tail_len = head_tail_lengths(g)
    L = 4 * g.num_vertices + 2 * g.num_edges * tail_len + 1
    N = (K + 1) * L + 1
    return ReductionParams(K, L, N, head_len, tail_len)


def param_warnings(g: Graph, params: ReductionParams) -> list[str]:
    """Violated lower bounds, empty when the parameters are legal.

    Under-bound instances are still generated (useful as solver stress
    tests) but the size equivalences are no longer guaranteed.
    """
    head_len, tail_len = head_tail_lengths(g)
    issues = []
    if params.head_len < head_len:
        issues.append(f"head_len={params.head_len} cannot encode {g.num_vertices} vertices")
    if params.tail_len < tail_len:
        issues.append(f"tail_len={params.tail_len} cannot encode {g.num_edges} edges")
    floor_l = 4 * g.num_vertices + 2 * g.num_edges * params.tail_len
    if params.L <= floor_l:
        issues.append(f"L={params.L} is not bigger than 4|V|+2|E|*tail_len={floor_l}")
    floor_n = (params.K + 1) * params.L
    if params.N <= floor_n:
        issues.append(f"N={params.N} is not bigger than (K+1)*L={floor_n}")
    return issues


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True)
class Encoding:
    """Fixed-width big-endian binary codes for vertices and edges.

    Codes are distinct within each group; a vertex code may coincide with
    an edge code.
    """

    vertex_codes: tuple[tuple[int, ...], ...]
    edge_codes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        vcs = tuple(tuple(c) for c in self.vertex_codes)
        ecs = tuple(tuple(c) for c in self.edge_codes)
        object.__setattr__(self, "vertex_codes", vcs)
        object.__setattr__(self, "edge_codes", ecs)
        for group, label in ((vcs, "vertex"), (ecs, "edge")):
            if len(set(group)) != len(group):
                raise ValueError(f"{label} codes must be pairwise distinct")
            widths = {len(c) for c in group}
            if len(widths) > 1:
                raise ValueError(f"{label} codes must share one width")


def make_encoding(g: Graph, params: ReductionParams) -> Encoding:
    """Vertex i gets the head_len-bit binary of i; edge codes follow the
    canonical (sorted endpoint pair) edge order as binaries of 0, 1, 2, ...
    """
    if 2 ** params.head_len < g.num_vertices:
        raise ValueError(f"head_len={params.head_len} cannot encode {g.num_vertices} vertices")
    if 2 ** params.tail_len < g.num_edges:
        raise ValueError(f"tail_len={params.tail_len} cannot encode {g.num_edges} edges")
    vertex_codes = tuple(_bits(i, params.head_len) for i in range(g.num_vertices))
    edge_codes = tuple(_bits(i, params.tail_len) for i in range(g.num_edges))
    return Encoding(vertex_codes, edge_codes)


def zhang_alphabet(g: Graph) -> Alphabet:
    """Indices 0..|V|-1 name vertices, |V|.. name edges in canonical order."""
    names = [f"v{i + 1}" for i in range(g.num_vertices)]
    names += [f"e{u + 1}_{v + 1}" for u, v in g.canonical_edges()]
    return Alphabet(len(names), tuple(names))


def zhang_runs(g: Graph) -> list[Run]:
    """Each vertex alone, rejected, in vertex order; then, per edge in
    canonical order, (smaller endpoint, edge) accepted and (larger
    endpoint, edge) rejected.  The empty string is positive.
    """
    nv = g.num_vertices
    runs = [((v,), (False,)) for v in range(nv)]
    for rank, (u, v) in enumerate(g.canonical_edges()):
        runs.append(((u, nv + rank), (False, True)))
        runs.append(((v, nv + rank), (False, False)))
    return runs


def zhang_sample(g: Graph) -> DfaSample:
    """The empty string and all prefixes of `zhang_runs`, labeled."""
    return DfaSample.from_runs(zhang_alphabet(g), zhang_runs(g), empty=True)


def incident_pairs(g: Graph) -> list[tuple[int, int, tuple[int, int]]]:
    """(head vertex, edge rank, edge) for every incident pair, ordered by
    head vertex then canonical edge order.  This is the canonical order of
    the generated string set, and of the blocks of the single string.
    """
    edges = g.canonical_edges()
    out = []
    for v in range(g.num_vertices):
        for rank, (i, j) in enumerate(edges):
            if v == i or v == j:
                out.append((v, rank, (i, j)))
    return out


def binary_runs(g: Graph, params: ReductionParams, enc: Encoding) -> list[Run]:
    """head + 0^L for every vertex, then the full string of every incident
    pair in canonical order.

    The body end is positive, so is a full string whose head is the smaller
    edge endpoint; every other nonempty prefix is negative, and so is the
    empty string.  The construction does not depend on params.K.

    For graphs with isolated vertices the prefix closure is taken over the
    full strings together with the body-complete positives, which keeps
    the sample prefix-complete; on graphs with minimum degree >= 1 the two
    closures coincide.
    """
    body = (0,) * params.L
    runs = []
    for v in range(g.num_vertices):
        w = enc.vertex_codes[v] + body
        runs.append((w, (False,) * (len(w) - 1) + (True,)))
    for v, rank, (i, j) in incident_pairs(g):
        (w, to_body), tail = runs[v], enc.edge_codes[rank]
        runs.append((w + tail, to_body + (False,) * (len(tail) - 1) + (v == i,)))
    return runs


def binary_sample(g: Graph, params: ReductionParams, enc: Encoding) -> DfaSample:
    """All prefixes of `binary_runs`, labeled."""
    return DfaSample.from_runs(Alphabet.binary(), binary_runs(g, params, enc), empty=False)


def single_run(g: Graph, params: ReductionParams, enc: Encoding) -> Run:
    """The concatenated string and its per-position labels: each full
    string of `binary_runs`, in incident-pair order, behind 0^N.

    Inside a block's zero run positions 1..N-1 are positive and position N
    is negative; the embedded string keeps its binary labels.  For the
    fully prefix-closed single-string sample, the label of the length-k
    prefix is labels[k - 1] (the empty prefix is negative), so consistency
    can be decided by one walk along the string.
    """
    full = binary_runs(g, params, enc)[g.num_vertices:]
    if not full:
        raise ValueError("the single-string instance needs a graph with at least one edge")
    zeros = (0,) * params.N
    zero_labels = (True,) * (params.N - 1) + (False,)
    symbols: list[int] = []
    labels: list[bool] = []
    for word, out in full:
        symbols.extend(zeros + word)
        labels.extend(zero_labels + out)
    return tuple(symbols), tuple(labels)


def single_string(
    g: Graph, params: ReductionParams, enc: Encoding
) -> tuple[Word, DfaSample, MachineSample]:
    """One long binary string, its fully labeled prefix sample, and the
    equivalent single-run machine sample.

    The string concatenates 0^N + s over the canonically ordered string
    set; its length is 2|E| * (N + head_len + L + tail_len).  The sample
    is one tree path of |Str| + 1 nodes, built in linear time and memory.
    """
    word, labels = single_run(g, params, enc)
    tree = DfaSample.from_runs(Alphabet.binary(), [(word, labels)])
    run = MachineSample._of_tree(frozenset({(word, labels)}), tree)
    return word, tree._rooted(-1), run
