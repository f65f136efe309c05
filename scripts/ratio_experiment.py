#!/usr/bin/env python3
"""Instantiate the approximation-ratio chain with the RPNI baseline.

Builds the binary prefix-complete instance for each graph of `suite_graphs`
that has an edge, runs the greedy merger on it, extracts a coloring from
the result, and prints the ratio bookkeeping (k* <= k_hat <= floor(m_hat / L))
as JSON lines.
"""
from __future__ import annotations

import argparse
import json

from dfalab import (
    binary_sample,
    default_params,
    make_encoding,
    prefix_tree_acceptor,
    ratio_report,
    rpni,
    suite_graphs,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="base seed for the random graphs")
    ap.add_argument("--random-graphs", type=int, default=5)
    ap.add_argument("--pta", action="store_true",
                    help="use the raw prefix tree as the heuristic instead of rpni")
    args = ap.parse_args()

    for name, g in suite_graphs(args.random_graphs, args.seed):
        if not g.num_edges:
            continue
        params = default_params(g, 3)
        enc = make_encoding(g, params)
        sample = binary_sample(g, params, enc)
        heuristic = prefix_tree_acceptor(sample) if args.pta else rpni(sample)
        report = ratio_report(g, heuristic, params, enc)
        print(json.dumps({"graph": name, **report.as_dict()}, sort_keys=True))


if __name__ == "__main__":
    main()
