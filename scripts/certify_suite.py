#!/usr/bin/env python3
"""Certify every size equivalence over the standard graph family.

Runs `dfalab.certify` for each graph and each reduction kind at K = k*,
the chromatic number (single only on graphs with edges), and prints one
row per graph and kind: how many checks ran, PASS or the first failing
check, and the time taken.  Exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import sys
import time

from dfalab import chromatic_number
from dfalab.certification import KINDS, certify, suite_graphs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="base seed for the random graphs")
    ap.add_argument("--random-graphs", type=int, default=10)
    args = ap.parse_args()

    rows = []
    for name, g in suite_graphs(args.random_graphs, args.seed):
        k_star, _ = chromatic_number(g)
        for kind in KINDS:
            if kind == "single" and not g.num_edges:
                continue
            t0 = time.monotonic()
            checks = list(certify(kind, g, k_star))  # ends at the first failing check
            rows.append({
                "graph": name, "V": g.num_vertices, "E": g.num_edges, "k*": k_star,
                "kind": kind, "checks": len(checks),
                "result": "PASS" if checks[-1].ok else f"FAIL: {checks[-1].name}",
                "time": f"{time.monotonic() - t0:.2f}s",
            })
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    failures = sum(r["result"] != "PASS" for r in rows)
    if failures:
        print(f"\n{failures} of {len(rows)} round trips failed")
        return 1
    print(f"\nall {len(rows)} round trips certified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
