"""Command-line front end: generate reduction instances, solve them,
build and extract witnesses, verify the size bounds, and convert formats.

Exit codes: 0 pass/sat, 1 fail/unsat, 2 usage or parse error, 3 timeout.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from .automata import (
    Dfa,
    PartialDfa,
    SampleError,
    dfa_sample_to_machine_sample,
    machine_sample_to_dfa_sample,
)
from .certification import certify
from .formats import (
    FormatError,
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    dumps_json,
    graph_sha256,
    machine_sample_from_text,
    machine_sample_to_text,
    metadata_encoding,
    metadata_params,
    reduction_metadata,
    sample_from_abbadingo,
    sample_to_abbadingo,
)
from .graphs import Coloring, DimacsError, Graph, chromatic_number, parse_dimacs
from .reductions import (
    binary_sample,
    default_params,
    make_encoding,
    param_warnings,
    single_string,
    zhang_sample,
)
from .solver import (
    BoundExceededError,
    SolveRequest,
    SolveStatus,
    SolveTimeoutError,
    exists_consistent,
    min_consistent,
)
from .witnesses import (
    ExtractionError,
    InconsistentDfaError,
    binary_dfa_from_coloring,
    coloring_from_binary_dfa,
    coloring_from_single_dfa,
    coloring_from_zhang_dfa,
    single_dfa_from_coloring,
    two_chain_dfa,
    zhang_dfa_from_coloring,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3

_GENERATORS = {
    "k": Graph.complete,
    "c": Graph.cycle,
    "p": Graph.path,
}


class _CheckFailure(Exception):
    """No K-coloring to build a witness from (exit 1)."""


def _load_graph(spec: str, seed: int) -> Graph:
    """A DIMACS file path, or a generator spec like k4, c5, p4,
    edgeless3, or gnp6x0.5 (seeded by --seed)."""
    path = Path(spec)
    if path.exists():
        return parse_dimacs(path.read_text())
    m = re.fullmatch(r"([kcp])(\d+)", spec)
    if m:
        return _GENERATORS[m.group(1)](int(m.group(2)))
    m = re.fullmatch(r"edgeless(\d+)", spec)
    if m:
        return Graph.edgeless(int(m.group(1)))
    m = re.fullmatch(r"gnp(\d+)x([0-9.]+)", spec)
    if m:
        return Graph.gnp(int(m.group(1)), float(m.group(2)), seed)
    raise ValueError(f"graph {spec!r}: no such file and not a generator spec")


def _params_for(args, g: Graph, k: int):
    params = default_params(g, k)
    overrides = {}
    if getattr(args, "L", None) is not None:
        overrides["L"] = args.L
    if getattr(args, "N", None) is not None:
        overrides["N"] = args.N
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return params


def _parse_coloring(text: str) -> Coloring:
    colors = tuple(int(c) for c in text.split(","))
    return Coloring(colors, max(colors))


def _pick_coloring(args, g: Graph) -> tuple[int, Coloring]:
    """The coloring to build a witness from: the one supplied, or the
    chromatic oracle's, capped by --K."""
    from .graphs import is_proper_coloring

    if args.coloring:
        coloring = _parse_coloring(args.coloring)
        if not is_proper_coloring(g, coloring):
            raise ValueError("--coloring is not a proper coloring of the graph")
        k = args.K if args.K is not None else coloring.num_colors
        if coloring.num_colors > k:
            raise ValueError(f"--coloring uses {coloring.num_colors} colors, above K={k}")
        return k, coloring
    if args.K is None:
        raise ValueError("need --K (or an explicit --coloring)")
    found = chromatic_number(g, upper_bound=args.K)
    if found is None:
        print(f"no {args.K}-coloring exists for this graph", file=sys.stderr)
        raise _CheckFailure("graph is K-colorable")
    _k_star, coloring = found
    return args.K, coloring


# ---------------------------------------------------------------------------
# Subcommands


def _warn_zhang_lengths(args) -> None:
    if args.L is not None or args.N is not None:
        print("warning: --L/--N are ignored for the zhang reduction", file=sys.stderr)


def cmd_reduce(args) -> int:
    g = _load_graph(args.graph, args.seed)
    out = Path(args.out)
    meta_path = Path(args.meta) if args.meta else out.with_suffix(out.suffix + ".meta.json")

    if args.kind == "zhang":
        _warn_zhang_lengths(args)
        sample = zhang_sample(g)
        meta = reduction_metadata("zhang", g)
    else:
        if args.kind == "single" and args.K is None:
            raise ValueError("reduce single needs --K (it fixes the zero-run length N)")
        k = args.K if args.K is not None else 1
        params = _params_for(args, g, k)
        for warning in param_warnings(g, params):
            print(f"warning: {warning}; the size equivalence no longer applies", file=sys.stderr)
        enc = make_encoding(g, params)
        if args.kind == "binary":
            sample = binary_sample(g, params, enc)
            meta = reduction_metadata(
                "binary", g, params, enc,
                include_k=args.K is not None, include_n=args.K is not None,
            )
        else:
            word, sample, run = single_string(g, params, enc)
            meta = reduction_metadata("single", g, params, enc)
            run_path = Path(args.run) if args.run else out.with_suffix(out.suffix + ".run.txt")
            run_path.write_text(machine_sample_to_text(run))
            print(f"wrote run of length {len(word)} to {run_path}")

    out.write_text(sample_to_abbadingo(sample))
    meta_path.write_text(dumps_json(meta))
    print(f"wrote {sample.size()} labeled strings to {out} (metadata: {meta_path})")
    return EXIT_OK


def cmd_solve(args) -> int:
    sample = sample_from_abbadingo(Path(args.sample).read_text())
    if args.minimize:
        try:
            m_star, witness = min_consistent(
                sample, args.max_m, require_acyclic=args.acyclic, time_budget=args.budget
            )
        except BoundExceededError:
            print(f"unsat: no consistent {'acyclic ' if args.acyclic else ''}automaton "
                  f"with at most {args.max_m} states")
            return EXIT_FAIL
        print(f"m* = {m_star} ({witness.num_states} states)")
        if args.out:
            Path(args.out).write_text(automaton_to_json(witness))
        return EXIT_OK
    outcome = exists_consistent(
        SolveRequest(sample, args.max_m, require_acyclic=args.acyclic, time_budget=args.budget)
    )
    print(f"{outcome.status.value} at m = {args.max_m} "
          f"({outcome.states_explored} search steps)")
    if outcome.status is SolveStatus.SAT and args.out:
        Path(args.out).write_text(automaton_to_json(outcome.witness))
    return {
        SolveStatus.SAT: EXIT_OK,
        SolveStatus.UNSAT: EXIT_FAIL,
        SolveStatus.TIMEOUT: EXIT_TIMEOUT,
    }[outcome.status]


def cmd_witness(args) -> int:
    g = _load_graph(args.graph, args.seed)
    if args.kind == "two-chain":
        if args.K is None:
            raise ValueError("witness two-chain needs --K (it fixes N)")
        params = _params_for(args, g, args.K)
        enc = make_encoding(g, params)
        machine: Dfa | PartialDfa = two_chain_dfa(g, params, enc)
    else:
        k, coloring = _pick_coloring(args, g)
        if args.kind == "zhang":
            machine = zhang_dfa_from_coloring(g, coloring)
        else:
            params = _params_for(args, g, k)
            enc = make_encoding(g, params)
            if args.kind == "binary":
                machine = binary_dfa_from_coloring(g, coloring, params, enc)
            else:
                machine = single_dfa_from_coloring(g, coloring, params, enc)
    Path(args.out).write_text(automaton_to_json(machine))
    print(f"wrote {args.kind} witness with {machine.num_states} states to {args.out}")
    return EXIT_OK


def _load_dfa(path: str, command: str) -> Dfa:
    """The DFA document at `path`, completed if partial."""
    machine = automaton_from_json(Path(path).read_text())
    if isinstance(machine, PartialDfa):
        machine = machine.completed()
    if not isinstance(machine, Dfa):
        raise ValueError(f"{command} needs a DFA document (moore/mealy given)")
    return machine


def cmd_extract(args) -> int:
    g = _load_graph(args.graph, args.seed)
    machine = _load_dfa(args.dfa, "extract")
    if args.kind == "zhang":
        coloring = coloring_from_zhang_dfa(machine, g)
    else:
        if not args.meta:
            raise ValueError(f"extract {args.kind} needs --meta (written by reduce)")
        meta = json.loads(Path(args.meta).read_text())
        if meta.get("graph_sha256") != graph_sha256(g):
            raise ValueError("metadata was generated from a different graph")
        need_full = args.kind == "single"
        params = metadata_params(meta, need_k=need_full, need_n=need_full)
        enc = metadata_encoding(meta)
        if args.kind == "binary":
            coloring, _analysis = coloring_from_binary_dfa(machine, g, params, enc)
        else:
            coloring = coloring_from_single_dfa(machine, g, params, enc)
    print(f"colors: {' '.join(str(c) for c in coloring.colors)}")
    print(f"num_colors: {coloring.num_colors}")
    if args.out:
        Path(args.out).write_text(
            dumps_json({"colors": list(coloring.colors), "num_colors": coloring.num_colors})
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.seed)
    if args.kind == "zhang":
        _warn_zhang_lengths(args)
        params = None
    else:
        params = _params_for(args, g, args.K)
    label = f"VERIFY {args.kind} {args.graph} K={args.K}"
    for check in certify(args.kind, g, args.K, params, args.budget, args.ratio):
        line = f"CHECK {check.name}: {'PASS' if check.ok else 'FAIL'}"
        print(f"{line} ({check.detail})" if check.detail else line)
        if not check.ok:
            print(f"{label}: FAIL ({check.name})")
            return EXIT_FAIL
    print(f"{label}: PASS")
    return EXIT_OK


def cmd_convert(args) -> int:
    out = Path(args.output)
    if args.to in ("moore", "mealy"):
        machine = _load_dfa(args.input, f"convert --to {args.to}")
        converted = machine.to_moore() if args.to == "moore" else machine.to_mealy()
        out.write_text(automaton_to_json(converted))
    elif args.to == "machine-sample":
        sample = sample_from_abbadingo(Path(args.input).read_text())
        ms = dfa_sample_to_machine_sample(sample)
        out.write_text(machine_sample_to_text(ms))
    elif args.to == "dfa-sample":
        ms = machine_sample_from_text(Path(args.input).read_text())
        out.write_text(sample_to_abbadingo(machine_sample_to_dfa_sample(ms)))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_dot(args) -> int:
    machine = automaton_from_json(Path(args.input).read_text())
    Path(args.output).write_text(automaton_to_dot(machine))
    print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfalab",
        description="Coloring-to-DFA reduction instances, exact solving, and bound verification.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for generated random graphs (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="generate a reduction instance from a graph")
    p.add_argument("kind", choices=["zhang", "binary", "single"])
    p.add_argument("--graph", required=True, help="DIMACS file or generator spec (k4, c5, p4, edgeless3, gnp6x0.5)")
    p.add_argument("--K", type=int, help="target color count (required for single)")
    p.add_argument("--L", type=int, help="override the body length")
    p.add_argument("--N", type=int, help="override the zero-run length")
    p.add_argument("--out", required=True, help="Abbadingo sample output path")
    p.add_argument("--meta", help="metadata JSON path (default: <out>.meta.json)")
    p.add_argument("--run", help="run file path for single (default: <out>.run.txt)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="decide or minimize consistent automaton size")
    p.add_argument("sample", help="Abbadingo sample path")
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    p.add_argument("--acyclic", action="store_true")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    p.add_argument("--out", help="witness JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("witness", help="build the forward construction from a coloring")
    p.add_argument("--kind", required=True, choices=["zhang", "binary", "single", "two-chain"])
    p.add_argument("--graph", required=True)
    p.add_argument("--K", type=int)
    p.add_argument("--coloring", help="comma-separated colors, e.g. 1,2,3,1,1")
    p.add_argument("--L", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--out", required=True, help="automaton JSON path")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("extract", help="extract a coloring from a consistent DFA")
    p.add_argument("--kind", required=True, choices=["zhang", "binary", "single"])
    p.add_argument("--dfa", required=True, help="automaton JSON path")
    p.add_argument("--graph", required=True)
    p.add_argument("--meta", help="metadata JSON written by reduce")
    p.add_argument("--out", help="coloring JSON path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run one graph through a full round trip")
    p.add_argument("--kind", required=True, choices=["zhang", "binary", "single"])
    p.add_argument("--graph", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--ratio", action="store_true",
                   help="also run the rpni baseline and the ratio bookkeeping (binary)")
    p.add_argument("--budget", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert between automaton and sample formats")
    p.add_argument("--to", required=True,
                   choices=["moore", "mealy", "machine-sample", "dfa-sample"])
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("dot", help="render an automaton JSON document as DOT")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _CheckFailure:
        return EXIT_FAIL
    except SolveTimeoutError as e:
        print(f"timeout: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (InconsistentDfaError, ExtractionError) as e:
        print(f"failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (FormatError, DimacsError, SampleError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
