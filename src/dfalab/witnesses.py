"""Constructive witnesses tying colorings to small consistent automata.

Forward direction: a proper coloring of the graph yields a consistent
automaton within the advertised state bound (one construction per
reduction), each a quotient of its sample's prefix tree: it lists the
steps of the strings it must realize, naming each target state by a key,
and `_quotient` merges the prefixes that share a key.  Converse
direction: any consistent DFA within the bound yields a proper coloring,
extracted from where the zero-run chains end.  Also here: the
chromatic-independent two-chain machine for the single-string instance,
and the bookkeeping relating a heuristic solver's size to the chromatic
number.

Every extractor replays its family's labeled runs (`zhang_runs`,
`binary_runs`, `single_run` in `reductions`) through the automaton once,
which checks consistency with the sample those runs define without
building it, and reads each vertex's chain off the states of that
replay.  Nothing else is walked, so a partial automaton is taken as it
is: a run that falls off it rejects from there on.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable

from .automata import Alphabet, Dfa, PartialDfa, Run, Word, _check_alphabet
from .graphs import Coloring, Graph, chromatic_number, is_proper_coloring
from .reductions import (
    Encoding,
    ReductionParams,
    binary_runs,
    incident_pairs,
    param_warnings,
    single_run,
    zhang_alphabet,
    zhang_runs,
)


class InconsistentDfaError(ValueError):
    """The automaton handed to an extractor is not consistent with the sample."""


class ExtractionError(RuntimeError):
    """A structural fact guaranteed by consistency failed to hold.

    Raised instead of silently returning a bogus coloring; seeing this on a
    consistent input means a bug in the construction or the extractor.
    """


@dataclass(frozen=True)
class RatioReport:
    """Numbers instantiating the approximation-ratio chain.

    k_hat = floor(m_hat / L) bounds the colors extracted from a heuristic
    DFA of size m_hat; k_star * L lower-bounds the optimum automaton size.
    """

    m_hat: int
    k_hat: int
    L: int
    k_star: int
    m_star_lower: int

    def as_dict(self) -> dict:
        return asdict(self)


def _quotient(alphabet: Alphabet, runs: Iterable[Iterable[tuple]]) -> PartialDfa:
    """The automaton whose states are the keys the runs name.

    A step (symbol, key, accepting) reads `symbol` and lands in the state
    named `key`, which accepts iff `accepting`.  A run's first step has
    symbol None: it places the run in `key` without reading.  Keys are
    numbered by first appearance, so the first run starts in the initial
    state.  Raises ExtractionError when two steps land in one key but
    disagree on acceptance, or leave one key by one symbol for two.
    """
    number: dict = {}
    accepting: list[bool] = []
    rows: list[list[int | None]] = []
    for run in runs:
        q = None
        for a, key, acc in run:
            t = number.get(key)
            if t is None:
                t = number[key] = len(rows)
                rows.append([None] * alphabet.size)
                accepting.append(acc)
            elif accepting[t] != acc:
                raise ExtractionError(f"state {key!r} is reached both accepting and rejecting")
            if a is not None:
                if rows[q][a] is None:
                    rows[q][a] = t
                elif rows[q][a] != t:
                    raise ExtractionError(f"state {list(number)[q]!r} has two successors on {a}")
            q = t
    accepts = frozenset(q for q, acc in enumerate(accepting) if acc)
    return PartialDfa(len(rows), alphabet, 0, tuple(map(tuple, rows)), accepts)


def _spell(tag, code: Word, key, accepting: bool) -> list[tuple]:
    """Steps reading `code`: proper prefixes p land in rejecting (tag, p), the whole in `key`."""
    steps = [(a, (tag, code[:d]), False) for d, a in enumerate(code[:-1], 1)]
    steps.append((code[-1], key, accepting))
    return steps


def _require_proper(g: Graph, coloring: Coloring) -> None:
    if not is_proper_coloring(g, coloring):
        raise ValueError("coloring is not proper for this graph")


def _require_legal(g: Graph, params: ReductionParams) -> None:
    issues = param_warnings(g, params)
    if issues:
        raise ValueError("illegal reduction parameters: " + "; ".join(issues))


def _check_encoding(g: Graph, params: ReductionParams, enc: Encoding) -> None:
    if len(enc.vertex_codes) != g.num_vertices or any(
        len(c) != params.head_len for c in enc.vertex_codes
    ):
        raise ValueError("encoding does not provide a head code per vertex")
    if len(enc.edge_codes) != g.num_edges or any(
        len(c) != params.tail_len for c in enc.edge_codes
    ):
        raise ValueError("encoding does not provide a tail code per edge")


def _replay(m: Dfa | PartialDfa, alphabet: Alphabet, runs: Iterable[Run], empty: bool,
            what: str) -> list[list[int | None]]:
    """The states `m` passes through along each run, after checking that it
    labels the empty string `empty` and every prefix of every run as the
    run says: consistency with `DfaSample.from_runs(alphabet, runs, empty)`.

    A run that falls off a partial automaton rejects from there on.  Raises
    InconsistentDfaError naming the first wrong prefix.
    """
    _check_alphabet(m, alphabet)
    trans, accepting = m.transitions, m.accepting
    verdict = {True: "accepted", False: "rejected"}
    if (m.initial in accepting) != empty:
        raise InconsistentDfaError(f"{what}: the empty string should be {verdict[empty]}")
    walks = []
    for r, (word, out) in enumerate(runs):
        q, states = m.initial, []
        for k, (a, label) in enumerate(zip(word, out), 1):
            q = None if q is None else trans[q][a]
            if (q in accepting) != label:
                raise InconsistentDfaError(
                    f"{what}: the length-{k} prefix of run {r} should be {verdict[label]}")
            states.append(q)
        walks.append(states)
    return walks


# ---------------------------------------------------------------------------
# Vertex/edge-alphabet reduction


def zhang_dfa_from_coloring(g: Graph, coloring: Coloring) -> PartialDfa:
    """The accepting initial state plus one state per used color.

    Reading a vertex symbol moves to its color's state; reading an edge
    symbol from the smaller endpoint's color returns to the initial state,
    from the larger endpoint's color it stays put.
    """
    _require_proper(g, coloring)
    colors, nv = coloring.colors, g.num_vertices
    root = ("head", ())
    runs = [[(None, root, True), (v, (c, 0), False)] for v, c in enumerate(colors)]
    for rank, (i, j) in enumerate(g.canonical_edges()):
        runs.append([(None, (colors[i], 0), False), (nv + rank, root, True)])
        runs.append([(None, (colors[j], 0), False), (nv + rank, (colors[j], 0), False)])
    return _quotient(zhang_alphabet(g), runs)


def _group_by_first_occurrence(states: list[int]) -> tuple[list[int], int]:
    """Renumber a state list into colors 1..k in order of first appearance."""
    seen: dict[int, int] = {}
    colors = []
    for s in states:
        if s not in seen:
            seen[s] = len(seen) + 1
        colors.append(seen[s])
    return colors, len(seen)


def coloring_from_zhang_dfa(m: Dfa | PartialDfa, g: Graph) -> Coloring:
    """Color each vertex by the state its one-symbol string reaches.

    On a partial automaton the vertices whose string falls off form one
    class; it is independent, since the smaller endpoint of an edge starts
    an accepted string and so cannot fall off.
    """
    walks = _replay(m, zhang_alphabet(g), zhang_runs(g), True, "zhang extraction")
    colors, k = _group_by_first_occurrence([walk[0] for walk in walks[: g.num_vertices]])
    coloring = Coloring(tuple(colors), k)
    if not is_proper_coloring(g, coloring):
        raise ExtractionError("consistent DFA produced an improper coloring")
    return coloring


# ---------------------------------------------------------------------------
# Binary prefix-complete reduction


def _binary_runs(
    g: Graph, coloring: Coloring, params: ReductionParams, enc: Encoding, after_tail=()
) -> list[list[tuple]]:
    """The runs of the binary witness, `after_tail` continuing every tail:
    each head code, body chain and (color, edge) tail is walked once, its
    states keyed ("head", prefix), (color, body position), (color, prefix).
    """
    _require_proper(g, coloring)
    _require_legal(g, params)
    _check_encoding(g, params, enc)
    L, colors = params.L, coloring.colors
    runs = [[(None, ("head", ()), False), *_spell("head", code, (colors[v], 0), False)]
            for v, code in enumerate(enc.vertex_codes)]
    for c in sorted(set(colors)):
        runs.append([(None, (c, 0), False), *((0, (c, h), h == L) for h in range(1, L + 1))])
    for rank, (i, j) in enumerate(g.canonical_edges()):
        code = enc.edge_codes[rank]
        for c in (colors[i], colors[j]):
            runs.append([(None, (c, L), True), *_spell(c, code, (c, code), c == colors[i]),
                         *after_tail])
    return runs


def binary_dfa_from_coloring(
    g: Graph, coloring: Coloring, params: ReductionParams, enc: Encoding
) -> PartialDfa:
    """Acyclic consistent automaton with one zero-chain per used color.

    Head: the shared prefixes of the vertex codes, each code ending on the
    chain of its vertex's color.  Body: chains of L+1 states, only the last
    accepting.  Tail: from each chain's end, the shared prefixes of the
    codes of the edges at that color; a full code accepts iff the chain's
    color belongs to the smaller endpoint.
    """
    return _quotient(Alphabet.binary(), _binary_runs(g, coloring, params, enc))


def _extract_grouping(chains: list[list[int]], g: Graph, L: int) -> Coloring:
    """Group vertices by the last of their chain's L+1 states.

    Consistency makes each class's chain (that of its first vertex) repeat
    no state and keeps the chains of distinct classes disjoint, so together
    they hold k_hat(L+1) distinct states; anything less raises
    ExtractionError.
    """
    colors, k_hat = _group_by_first_occurrence([c[-1] for c in chains])
    first: dict[int, list[int]] = {}
    for c, chain in zip(colors, chains):
        first.setdefault(c, chain)
    if len(set().union(*first.values())) != k_hat * (L + 1):
        raise ExtractionError("zero-chains revisit a state or overlap across classes; "
                              "the input cannot be consistent")
    coloring = Coloring(tuple(colors), k_hat)
    if not is_proper_coloring(g, coloring):
        raise ExtractionError("consistent DFA produced an improper coloring")
    return coloring


def coloring_from_binary_dfa(
    m: Dfa | PartialDfa, g: Graph, params: ReductionParams, enc: Encoding
) -> Coloring:
    """Group vertices by the state their head + 0^L run reaches.

    Run v of `binary_runs` is vertex v's head + 0^L, so its chain is read
    off the replay.  Consistency alone forces adjacent vertices into
    different classes (the shared tail code is accepted from one end state
    and rejected from the other), so the returned coloring is proper for
    any consistent input; no size bound is required.
    """
    _check_encoding(g, params, enc)
    walks = _replay(m, Alphabet.binary(), binary_runs(g, params, enc), False, "binary extraction")
    h, L = params.head_len, params.L
    return _extract_grouping([walks[v][h - 1 : h + L] for v in range(g.num_vertices)], g, L)


# ---------------------------------------------------------------------------
# Single-string reduction


def single_dfa_from_coloring(
    g: Graph, coloring: Coloring, params: ReductionParams, enc: Encoding
) -> Dfa:
    """The binary witness plus an N-state accepting zero-chain in front.

    Key ("zero", t) stands for the prefixes 0^t of every block's leading
    zero run, accepting for t >= 1; the chain ends in the binary witness's
    initial state, and a zero read after any full tail code re-enters it
    at 0^1.  Completed with self-loops into a total DFA.
    """
    if coloring.num_colors > params.K:
        raise ValueError(f"coloring uses {coloring.num_colors} colors but params.K = {params.K}")
    zero_run = [(None, ("zero", 0), False), *((0, ("zero", t), True) for t in range(1, params.N)),
                (0, ("head", ()), False)]
    runs = _binary_runs(g, coloring, params, enc, after_tail=[(0, ("zero", 1), True)])
    return _quotient(Alphabet.binary(), [zero_run, *runs]).completed()


def coloring_from_single_dfa(
    m: Dfa | PartialDfa, g: Graph, params: ReductionParams, enc: Encoding
) -> Coloring:
    """Verify the common-return-state property, then group chain ends.

    The automaton must return to one fixed state after each block's leading
    zero run (checked on the replay, not assumed).  A vertex's chain is
    read off the head + 0^L of its first block, exactly as in the binary
    extraction; a vertex with no block (an isolated one, which the string
    does not constrain) joins block 0's class.
    """
    _require_legal(g, params)
    _check_encoding(g, params, enc)
    bound = params.N + (params.K + 1) * params.L
    if m.num_states > bound:
        raise ValueError(
            f"automaton has {m.num_states} states, above the bound N+(K+1)L = {bound}"
        )
    [states] = _replay(m, Alphabet.binary(), [single_run(g, params, enc)], False,
                       "single-string extraction")
    B = params.block_len()
    returns = set(states[params.N - 1 :: B])  # after each 0^N
    if len(returns) != 1:
        raise ExtractionError(f"no common return state after the zero runs: saw {sorted(returns)}")

    first_block: dict[int, int] = {}
    for b, (v, _rank, _edge) in enumerate(incident_pairs(g)):
        first_block.setdefault(v, b)
    start = params.N + params.head_len - 1
    starts = [first_block.get(v, 0) * B + start for v in range(g.num_vertices)]
    coloring = _extract_grouping([states[i : i + params.L + 1] for i in starts], g, params.L)
    if coloring.num_colors > params.K:
        raise ExtractionError(
            f"extraction found {coloring.num_colors} classes, above K = {params.K}"
        )
    return coloring


def two_chain_dfa(g: Graph, params: ReductionParams, enc: Encoding) -> Dfa:
    """Consistent automaton for the single-string sample with fewer than
    2(N + 2L) states, no matter the graph's chromatic number.

    Two input-oblivious chains, keyed (sign, index) and linked on both
    symbols, carry the fixed per-block label pattern; the block's final
    tail code steers into the connector keyed (this block's sign, next
    block's sign), one per pair that occurs, which leads into the next
    block's chain.  The two occurrences of an edge code have opposite
    signs, so each chain sees each code once and the connectors are well
    defined.  A walk along the string certifies the layout at build time.
    """
    _require_legal(g, params)
    _check_encoding(g, params, enc)
    pairs = incident_pairs(g)
    if not pairs:
        raise ValueError("the two-chain construction needs a graph with at least one edge")

    signs = [v == i for v, _rank, (i, _j) in pairs]
    next_signs = signs[1:] + [True]  # last block exits arbitrarily; no input remains
    run = single_run(g, params, enc)
    # position p of a block sits on chain index p-1, which accepts as the
    # first block's length-p prefix does, up to the body end
    end = params.N + params.head_len + params.L - 1
    accept = run[1][: end + 1]
    runs = [[(None, (), False), (0, (signs[0], 0), accept[0])]]
    for sign in (True, False):
        for a in (0, 1):
            runs.append([(None if idx == 0 else a, (sign, idx), accept[idx])
                         for idx in range(end + 1)])
    for (_v, rank, _edge), sign, nxt in zip(pairs, signs, next_signs):
        code = enc.edge_codes[rank]
        runs.append([(None, (sign, end), True), *_spell(sign, code, ("connector", sign, nxt), sign),
                     (0, (nxt, 0), accept[0])])
    dfa = _quotient(Alphabet.binary(), runs).completed()
    _replay(dfa, Alphabet.binary(), [run], False, "two-chain construction self-check")
    return dfa


# ---------------------------------------------------------------------------
# Approximation-ratio bookkeeping


def ratio_report(
    g: Graph, heuristic_dfa: Dfa | PartialDfa, params: ReductionParams, enc: Encoding
) -> RatioReport:
    """Relate a heuristic solver's output size to the chromatic number.

    Extraction gives a proper k_hat-coloring, so k_star <= k_hat; the
    disjoint-chain count gives k_hat <= floor(m_hat / L); and any
    consistent automaton below k_star * L states would yield a proper
    (k_star - 1)-coloring, so k_star * L lower-bounds the optimum size.
    """
    coloring = coloring_from_binary_dfa(heuristic_dfa, g, params, enc)
    k_hat = coloring.num_colors
    m_hat = heuristic_dfa.num_states
    result = chromatic_number(g)
    assert result is not None
    k_star, _witness = result
    if k_hat > m_hat // params.L:
        raise ExtractionError(f"k_hat={k_hat} exceeds floor(m_hat/L)={m_hat // params.L}")
    if k_star > k_hat:
        raise ExtractionError(f"k_star={k_star} exceeds extracted k_hat={k_hat}")
    return RatioReport(m_hat, k_hat, params.L, k_star, k_star * params.L)
