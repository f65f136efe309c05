"""File formats: automaton JSON, Abbadingo samples, single-run text files,
DOT rendering, and the reduction metadata sidecar.

All emitters are byte-stable: identical inputs produce identical bytes
(sorted states, symbols, and JSON keys).
"""
from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Any

from .automata import (
    Alphabet,
    Dfa,
    DfaSample,
    MachineSample,
    MealyMachine,
    MooreMachine,
    PartialDfa,
    Word,
    output_str,
)
from .graphs import Graph, emit_dimacs
from .reductions import Encoding, ReductionParams

Automaton = Dfa | PartialDfa | MooreMachine | MealyMachine


class FormatError(ValueError):
    pass


def _sym_bool(b: bool) -> str:
    return "+" if b else "-"


def _parse_out_symbol(s: str, where: str) -> bool:
    if s == "+":
        return True
    if s == "-":
        return False
    raise FormatError(f"{where}: output symbol must be '+' or '-', got {s!r}")


def _edge_list(transitions) -> list[list[int]]:
    edges = []
    for q, row in enumerate(transitions):
        for a, t in enumerate(row):
            if t is not None:
                edges.append([q, a, t])
    return edges


def automaton_to_dict(a: Automaton) -> dict[str, Any]:
    d: dict[str, Any] = {
        "states": a.num_states,
        "alphabet": [a.alphabet.name(i) for i in range(a.alphabet.size)],
        "initial": a.initial,
        "transitions": _edge_list(a.transitions),
    }
    if isinstance(a, Dfa):
        d["type"] = "dfa"
        d["accepting"] = sorted(a.accepting)
    elif isinstance(a, PartialDfa):
        d["type"] = "partial-dfa"
        d["accepting"] = sorted(a.accepting)
    elif isinstance(a, MooreMachine):
        d["type"] = "moore"
        d["output"] = [_sym_bool(b) for b in a.output]
    elif isinstance(a, MealyMachine):
        d["type"] = "mealy"
        # aligned with the transitions list, one output per edge
        d["output"] = [_sym_bool(a.output[q][sym]) for q, sym, _t in d["transitions"]]
    else:
        raise FormatError(f"cannot serialize {type(a).__name__}")
    return d


def automaton_from_dict(d: dict[str, Any]) -> Automaton:
    try:
        kind = d["type"]
        num_states = int(d["states"])
        names = tuple(str(n) for n in d["alphabet"])
        initial = int(d["initial"])
        edges = d["transitions"]
    except KeyError as e:
        raise FormatError(f"automaton document is missing field {e.args[0]!r}") from None
    if kind not in ("dfa", "partial-dfa", "moore", "mealy"):
        raise FormatError(f"unknown automaton type {kind!r}")
    alphabet = Alphabet(len(names), names)
    rows: list[list[int | None]] = [[None] * alphabet.size for _ in range(num_states)]
    for entry in edges:
        q, a, t = (int(x) for x in entry)
        if not (0 <= q < num_states and 0 <= a < alphabet.size and 0 <= t < num_states):
            raise FormatError(f"transition {entry} out of range")
        if rows[q][a] is not None and rows[q][a] != t:
            raise FormatError(f"duplicate transition for state {q}, symbol {a}")
        rows[q][a] = t
    table = tuple(tuple(r) for r in rows)

    if kind == "partial-dfa":
        return PartialDfa(num_states, alphabet, initial, table, frozenset(d.get("accepting", [])))
    missing = [(q, a) for q, row in enumerate(rows) for a, t in enumerate(row) if t is None]
    if missing:
        raise FormatError(f"{kind} document is missing transitions, e.g. {missing[0]}")
    if kind == "dfa":
        return Dfa(num_states, alphabet, initial, table, frozenset(d.get("accepting", [])))
    if kind == "moore":
        out = d.get("output", [])
        if len(out) != num_states:
            raise FormatError("moore document needs one output per state")
        output = tuple(_parse_out_symbol(s, "moore output") for s in out)
        return MooreMachine(num_states, alphabet, initial, table, output)
    out = d.get("output", [])  # mealy, the one type left
    if len(out) != len(edges):
        raise FormatError("mealy document needs one output per transition")
    by_edge = {}
    for entry, s in zip(edges, out):
        q, a, _t = (int(x) for x in entry)
        by_edge[(q, a)] = _parse_out_symbol(s, "mealy output")
    output = tuple(
        tuple(by_edge[(q, a)] for a in range(alphabet.size)) for q in range(num_states)
    )
    return MealyMachine(num_states, alphabet, initial, table, output)


def dumps_json(obj: dict[str, Any]) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def automaton_to_json(a: Automaton) -> str:
    return dumps_json(automaton_to_dict(a))


def automaton_from_json(text: str) -> Automaton:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}") from None
    if not isinstance(d, dict):
        raise FormatError("automaton document must be a JSON object")
    return automaton_from_dict(d)


# ---------------------------------------------------------------------------
# Abbadingo samples


def sample_to_abbadingo(sample: DfaSample) -> str:
    children, labels = sample.children, sample.labels
    lines = [f"{sample.size()} {sample.alphabet.size}"]
    # breadth first, children in symbol order: by length, then lexicographically
    queue = deque([(0, 0, "")])  # node, length, " a1 a2 ..." of its word
    while queue:
        node, length, symbols = queue.popleft()
        if labels[node]:
            lines.append(f"{1 if labels[node] > 0 else 0} {length}{symbols}")
        for a, child in children[node].items():
            queue.append((child, length + 1, f"{symbols} {a}"))
    return "\n".join(lines) + "\n"


def sample_from_abbadingo(text: str) -> DfaSample:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty sample file")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"line 1: header must be '<num_strings> <alphabet_size>'")
    try:
        count, size = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("line 1: header must contain two integers") from None
    if len(lines) - 1 != count:
        raise FormatError(f"header promises {count} strings, file has {len(lines) - 1}")
    pos: set[Word] = set()
    neg: set[Word] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) < 2:
            raise FormatError(f"line {line_no}: need '<label> <length> <symbols...>'")
        try:
            label, length = int(fields[0]), int(fields[1])
            word = tuple(int(x) for x in fields[2:])
        except ValueError:
            raise FormatError(f"line {line_no}: non-integer field") from None
        if label not in (0, 1):
            raise FormatError(f"line {line_no}: label must be 0 or 1")
        if len(word) != length:
            raise FormatError(f"line {line_no}: declared length {length}, got {len(word)} symbols")
        (pos if label else neg).add(word)
    try:
        return DfaSample(Alphabet(size) if size != 2 else Alphabet.binary(), frozenset(pos), frozenset(neg))
    except ValueError as e:
        raise FormatError(str(e)) from None


# ---------------------------------------------------------------------------
# Run files (machine samples over single-character symbol names)


def machine_sample_to_text(ms: MachineSample) -> str:
    """Two lines per run: the input over symbol names, the +/- output.

    Requires every symbol name to be a single character (always true for
    the binary alphabet the generators use).
    """
    names = [ms.alphabet.name(i) for i in range(ms.alphabet.size)]
    if any(len(n) != 1 for n in names):
        raise FormatError("run files need single-character symbol names")
    lines = []
    for word, out in sorted(ms.runs):
        lines.append("".join(names[a] for a in word))
        lines.append(output_str(out))
    return "\n".join(lines) + "\n"


def machine_sample_from_text(text: str, alphabet: Alphabet | None = None) -> MachineSample:
    if alphabet is None:
        alphabet = Alphabet.binary()
    names = {alphabet.name(i): i for i in range(alphabet.size)}
    if any(len(n) != 1 for n in names):
        raise FormatError("run files need single-character symbol names")
    lines = text.splitlines()
    lines = [ln for ln in lines if ln.strip() != ""]
    if len(lines) % 2 != 0:
        raise FormatError("run file must hold pairs of lines (input, output)")
    runs = set()
    for k in range(0, len(lines), 2):
        word_line, out_line = lines[k], lines[k + 1]
        try:
            word = tuple(names[ch] for ch in word_line)
        except KeyError as e:
            raise FormatError(f"line {k + 1}: unknown input symbol {e.args[0]!r}") from None
        out = tuple(_parse_out_symbol(ch, f"line {k + 2}") for ch in out_line)
        if len(word) != len(out):
            raise FormatError(f"lines {k + 1}-{k + 2}: input and output lengths differ")
        runs.add((word, out))
    return MachineSample(alphabet, frozenset(runs))


# ---------------------------------------------------------------------------
# DOT


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def automaton_to_dot(a: Automaton) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start__ [shape=point, label=""];']
    accepting = a.accepting if isinstance(a, (Dfa, PartialDfa)) else frozenset()
    for q in range(a.num_states):
        shape = "doublecircle" if q in accepting else "circle"
        label = f"q{q}"
        if isinstance(a, MooreMachine):
            label += f"/{_sym_bool(a.output[q])}"
        lines.append(f"  q{q} [shape={shape}, label={_dot_quote(label)}];")
    lines.append(f"  __start__ -> q{a.initial};")
    for q in range(a.num_states):
        for sym in range(a.alphabet.size):
            t = a.transitions[q][sym]
            if t is None:
                continue
            label = a.alphabet.name(sym)
            if isinstance(a, MealyMachine):
                label += f"/{_sym_bool(a.output[q][sym])}"
            lines.append(f"  q{q} -> q{t} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reduction metadata sidecar


def graph_sha256(g: Graph) -> str:
    return hashlib.sha256(emit_dimacs(g).encode()).hexdigest()


def reduction_metadata(
    kind: str,
    g: Graph,
    params: ReductionParams | None = None,
    enc: Encoding | None = None,
    include_k: bool = True,
    include_n: bool = True,
) -> dict[str, Any]:
    """Self-describing record of one generated instance.

    Everything a later extraction needs (parameters and codes) plus a hash
    pinning the graph the instance came from.
    """
    d: dict[str, Any] = {
        "kind": kind,
        "graph_sha256": graph_sha256(g),
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "K": None,
        "L": None,
        "N": None,
        "head_len": None,
        "tail_len": None,
        "vertex_codes": None,
        "edge_codes": None,
    }
    if params is not None:
        d["L"] = params.L
        d["head_len"] = params.head_len
        d["tail_len"] = params.tail_len
        if include_k:
            d["K"] = params.K
        if include_n:
            d["N"] = params.N
    if enc is not None:
        d["vertex_codes"] = enc.vertex_strs()
        d["edge_codes"] = enc.edge_strs()
    return d


def metadata_params(meta: dict[str, Any], need_k: bool, need_n: bool) -> ReductionParams:
    for field in ("L", "head_len", "tail_len") + (("K",) if need_k else ()) + (("N",) if need_n else ()):
        if meta.get(field) is None:
            raise FormatError(f"metadata is missing {field!r}")
    return ReductionParams(
        K=int(meta["K"]) if meta.get("K") is not None else 1,
        L=int(meta["L"]),
        N=int(meta["N"]) if meta.get("N") is not None else (int(meta["L"]) * 2 + 1),
        head_len=int(meta["head_len"]),
        tail_len=int(meta["tail_len"]),
    )


def metadata_encoding(meta: dict[str, Any]) -> Encoding:
    if meta.get("vertex_codes") is None or meta.get("edge_codes") is None:
        raise FormatError("metadata is missing the vertex/edge codes")
    to_bits = lambda s: tuple(int(c) for c in s)
    return Encoding(
        tuple(to_bits(s) for s in meta["vertex_codes"]),
        tuple(to_bits(s) for s in meta["edge_codes"]),
    )
