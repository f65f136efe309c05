"""Certification of the three coloring -> consistent-DFA reductions: one
round trip per instance kind, reported as a stream of named checks.

`certify` is what `dfalab verify` prints and `scripts/certify_suite.py`
tabulates; `suite_graphs` is the standard graph family they run over.
"""
from __future__ import annotations

import json
from typing import Iterator, NamedTuple

from .automata import (
    PrefixCompleteness,
    consistency_violations,
    dfa_sample_to_machine_sample,
    prefix_completeness,
    prefix_tree_acceptor,
)
from .graphs import Graph, chromatic_number
from .reductions import (
    ReductionParams,
    binary_sample,
    default_params,
    make_encoding,
    param_warnings,
    single_string,
    zhang_sample,
)
from .solver import BoundExceededError, min_consistent, rpni
from .witnesses import (
    binary_dfa_from_coloring,
    coloring_from_binary_dfa,
    coloring_from_single_dfa,
    coloring_from_zhang_dfa,
    ratio_report,
    single_dfa_from_coloring,
    two_chain_dfa,
    zhang_dfa_from_coloring,
)

KINDS = ("zhang", "binary", "single")


class Check(NamedTuple):
    """One line of a round trip: what was checked, whether it held, and
    the measured values behind the verdict (may be empty)."""

    name: str
    ok: bool
    detail: str = ""


def certify(
    kind: str,
    g: Graph,
    K: int,
    params: ReductionParams | None = None,
    budget: float | None = None,
    ratio: bool = False,
) -> Iterator[Check]:
    """The checks of one round trip through the `kind` reduction at K
    colors, in order, ending with the first failing one: no check after a
    failure is computed.

    `params` (default: `default_params(g, K)`) applies to binary and
    single, `budget` (seconds) to zhang's one solver call, and `ratio`
    adds binary's RPNI ratio-chain check.  K < 1 and illegal parameters
    raise ValueError before the first check; a spent budget raises
    SolveTimeoutError.
    """
    if kind not in KINDS:
        raise ValueError(f"no such reduction kind {kind!r}; expected one of {', '.join(KINDS)}")
    if K < 1:
        raise ValueError("K must be a positive integer")
    if kind == "zhang":
        checks = _zhang(g, K, budget)
    else:
        params = params if params is not None else default_params(g, K)
        issues = param_warnings(g, params)
        if issues:
            raise ValueError("illegal parameters: " + "; ".join(issues))
        checks = _binary(g, K, params, ratio) if kind == "binary" else _single(g, K, params)
    for check in checks:
        yield check
        if not check.ok:
            return


def _zhang(g: Graph, k: int, budget: float | None) -> Iterator[Check]:
    sample = zhang_sample(g)
    yield Check("reduction sample is prefix-complete",
                prefix_completeness(sample) is PrefixCompleteness.COMPLETE)
    try:
        m_star, _ = min_consistent(sample, k + 1, time_budget=budget)
    except BoundExceededError:
        m_star = None
    yield Check(f"exists consistent DFA with m = K+1 = {k + 1} states", m_star is not None,
                f"{'sat' if m_star is not None else 'unsat'} at m={k + 1}")
    k_star, coloring = chromatic_number(g)
    yield Check("chromatic number <= K", k_star <= k, f"k* = {k_star}")
    yield Check("min consistent DFA size = chromatic number + 1", m_star == k_star + 1,
                f"m* = {m_star}, k* = {k_star}")
    witness = zhang_dfa_from_coloring(g, coloring)
    yield Check(
        f"forward witness consistent with {witness.num_states} = k*+1 states",
        not consistency_violations(witness, sample) and witness.num_states == k_star + 1,
    )
    extracted = coloring_from_zhang_dfa(witness.completed(), g)
    yield Check("extraction returns a proper coloring with at most k* colors",
                extracted.num_colors <= k_star, f"extracted {extracted.num_colors} colors")


def _binary(g: Graph, k: int, params: ReductionParams, ratio: bool) -> Iterator[Check]:
    enc = make_encoding(g, params)
    sample = binary_sample(g, params, enc)
    yield Check("reduction sample is prefix-complete",
                prefix_completeness(sample) is PrefixCompleteness.COMPLETE)
    found = chromatic_number(g, upper_bound=k)
    yield Check(f"graph admits a {k}-coloring", found is not None)
    _k_star, coloring = found
    witness = binary_dfa_from_coloring(g, coloring, params, enc)
    bound = (k + 1) * params.L
    yield Check("forward witness is consistent", not consistency_violations(witness, sample))
    yield Check("forward witness is acyclic", witness.is_acyclic())
    yield Check(f"forward witness has fewer than (K+1)L = {bound} states",
                witness.num_states < bound, f"{witness.num_states} states")
    extracted, _ = coloring_from_binary_dfa(witness.completed(), g, params, enc)
    yield Check("extraction from the witness stays within K classes",
                extracted.num_colors <= k, f"k_hat = {extracted.num_colors}")
    yield Check("disjoint-chain count: k_hat * L <= witness states",
                extracted.num_colors * params.L <= witness.num_states)
    from_pta, _ = coloring_from_binary_dfa(prefix_tree_acceptor(sample).completed(), g, params, enc)
    yield Check("prefix-tree extraction keeps one class per vertex",
                from_pta.num_colors == g.num_vertices,
                f"k_hat = {from_pta.num_colors}, |V| = {g.num_vertices}")
    if ratio:
        report = ratio_report(g, rpni(sample), params, enc)
        yield Check("ratio chain k* <= k_hat <= floor(m_hat / L)",
                    report.k_star <= report.k_hat <= report.m_hat // report.L,
                    json.dumps(report.as_dict(), sort_keys=True))


def _single(g: Graph, k: int, params: ReductionParams) -> Iterator[Check]:
    enc = make_encoding(g, params)
    word, sample, _run = single_string(g, params, enc)
    expect_len = 2 * g.num_edges * params.block_len()
    yield Check(f"string length = 2|E|(N+head+L+tail) = {expect_len}",
                len(word) == expect_len, f"|Str| = {len(word)}")
    yield Check(  # |Str| + 1 nodes, one of them spelling Str: one path, every node labeled
        "sample is exactly the labeled prefixes of one string",
        len(sample.labels) == len(word) + 1 and all(sample.labels) and sample.node(word) is not None
        and len(dfa_sample_to_machine_sample(sample).runs) == 1,
    )
    zero_run, node = [], 0  # labels of 0^1 .. 0^N, one step down the zero chain each
    for _ in range(params.N):
        node = sample.children[node].get(0)
        if node is None:
            break
        zero_run.append(sample.labels[node])
    yield Check("prefixes 0^j are positive for j in [1, N-1] and 0^N is negative",
                zero_run == [1] * (params.N - 1) + [-1])
    found = chromatic_number(g, upper_bound=k)
    yield Check(f"graph admits a {k}-coloring", found is not None)
    _k_star, coloring = found
    witness = single_dfa_from_coloring(g, coloring, params, enc)
    bound = params.N + (k + 1) * params.L
    yield Check("forward witness is consistent", not consistency_violations(witness, sample))
    yield Check(f"forward witness has at most N+(K+1)L = {bound} states",
                witness.num_states <= bound, f"{witness.num_states} states")
    extracted = coloring_from_single_dfa(witness, g, params, enc)
    yield Check("extraction stays within K classes",
                extracted.num_colors <= k, f"k_hat = {extracted.num_colors}")
    two = two_chain_dfa(g, params, enc)
    two_bound = 2 * (params.N + 2 * params.L)
    yield Check(
        f"two-chain automaton is consistent with fewer than 2(N+2L) = {two_bound} states",
        two.num_states < two_bound and not consistency_violations(two, sample),
        f"{two.num_states} states",
    )


def suite_graphs(random_graphs: int = 10, seed: int = 0) -> list[tuple[str, Graph]]:
    """The standard family: six named graphs plus `random_graphs` G(6, 0.5)
    graphs seeded seed, seed+1, ..."""
    named = [
        ("triangle", Graph.complete(3)),
        ("c5", Graph.cycle(5)),
        ("k4", Graph.complete(4)),
        ("demo5", Graph(5, frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)}))),
        ("edgeless4", Graph.edgeless(4)),
        ("p4", Graph.path(4)),
    ]
    named += [(f"gnp6-seed{s}", Graph.gnp(6, 0.5, seed=s))
              for s in range(seed, seed + random_graphs)]
    return named
