#!/usr/bin/env python3
"""Certify every size equivalence over the standard graph family.

For each graph: the exact solver pins min-consistent = chromatic + 1 on the
vertex/edge instance, and the forward/converse witnesses certify the binary
and single-string bounds.  Prints one row per graph.
"""
from __future__ import annotations

import argparse
import time

from dfalab import (
    Graph,
    binary_dfa_from_coloring,
    binary_sample,
    chromatic_number,
    coloring_from_binary_dfa,
    coloring_from_single_dfa,
    default_params,
    is_consistent,
    make_encoding,
    min_consistent,
    single_dfa_from_coloring,
    single_string,
    two_chain_dfa,
    zhang_sample,
)


def family(seeds: int, seed0: int) -> list[tuple[str, Graph]]:
    named = [
        ("triangle", Graph.complete(3)),
        ("c5", Graph.cycle(5)),
        ("k4", Graph.complete(4)),
        ("demo5", Graph(5, frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)}))),
        ("edgeless4", Graph.edgeless(4)),
        ("p4", Graph.path(4)),
    ]
    named += [(f"gnp6-{s}", Graph.gnp(6, 0.5, seed=seed0 + s)) for s in range(seeds)]
    return named


def certify(name: str, g: Graph) -> dict:
    t0 = time.monotonic()
    k_star, coloring = chromatic_number(g)
    m_star, _ = min_consistent(zhang_sample(g), k_star + 2)
    assert m_star == k_star + 1

    params = default_params(g, k_star)
    enc = make_encoding(g, params)
    bw = binary_dfa_from_coloring(g, coloring, params, enc)
    assert bw.is_acyclic() and bw.num_states < (k_star + 1) * params.L
    assert is_consistent(bw, binary_sample(g, params, enc))
    extracted, _ = coloring_from_binary_dfa(bw.completed(), g, params, enc)
    assert extracted.num_colors <= k_star

    row = {
        "graph": name,
        "V": g.num_vertices,
        "E": g.num_edges,
        "k*": k_star,
        "m*": m_star,
        "binary": f"{bw.num_states}<{(k_star + 1) * params.L}",
        "single": "-",
        "two-chain": "-",
    }
    if g.num_edges:
        sw = single_dfa_from_coloring(g, coloring, params, enc)
        assert is_consistent(sw, single_string(g, params, enc)[1])
        bound = params.N + (k_star + 1) * params.L
        assert sw.num_states <= bound
        assert coloring_from_single_dfa(sw, g, params, enc).num_colors <= k_star
        tc = two_chain_dfa(g, params, enc)  # run-consistency checked at build
        assert tc.num_states < 2 * (params.N + 2 * params.L)
        row["single"] = f"{sw.num_states}<={bound}"
        row["two-chain"] = f"{tc.num_states}<{2 * (params.N + 2 * params.L)}"
    row["time"] = f"{time.monotonic() - t0:.2f}s"
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="base seed for the random graphs")
    ap.add_argument("--random-graphs", type=int, default=10)
    args = ap.parse_args()

    rows = [certify(name, g) for name, g in family(args.random_graphs, args.seed)]
    cols = ["graph", "V", "E", "k*", "m*", "binary", "single", "two-chain", "time"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    print(f"\nall {len(rows)} graphs certified")


if __name__ == "__main__":
    main()
