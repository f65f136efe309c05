"""File formats: automaton JSON, Abbadingo samples, single-run text files,
DOT rendering, and the reduction metadata sidecar.

All emitters are byte-stable: identical inputs produce identical bytes
(sorted states, symbols, and JSON keys).

The Abbadingo reader builds the labeled prefix tree as it reads, so a
prefix-closed file, quadratic in the length of its longest string, is
read in time linear in its text; lines may come in any order, repeat, and
be spaced freely.  Parse errors name the file's own line numbers, blank
lines counted.
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
    SampleError,
    output_str,
)
from .graphs import Graph, emit_dimacs
from .reductions import ReductionParams

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
    if isinstance(a, (Dfa, PartialDfa)):
        d["type"] = "dfa" if isinstance(a, Dfa) else "partial-dfa"
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


def _list_field(value: Any, field: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"automaton field {field!r} must be a list")
    return value


def _integer(value: Any, field: str, document: str = "automaton") -> int:
    if type(value) is not int:  # no bool, float or numeric string
        raise FormatError(f"{document} field {field!r} has the wrong type: {value!r} is not an integer")
    return value


def _string(value: Any, field: str) -> str:
    if type(value) is not str:
        raise FormatError(f"automaton field {field!r} has the wrong type: {value!r} is not a string")
    return value


def _transition(entry: Any) -> list[int]:
    if not (isinstance(entry, list) and len(entry) == 3 and all(type(x) is int for x in entry)):
        raise FormatError(f"transition {entry!r} must be three integers [state, symbol, target]")
    return entry


def automaton_from_dict(d: dict[str, Any]) -> Automaton:
    try:
        kind = d["type"]
        num_states = _integer(d["states"], "states")
        names = tuple(_string(n, "alphabet") for n in _list_field(d["alphabet"], "alphabet"))
        initial = _integer(d["initial"], "initial")
        edges = [_transition(entry) for entry in _list_field(d["transitions"], "transitions")]
        accepting = frozenset(_integer(q, "accepting")
                              for q in _list_field(d.get("accepting", []), "accepting"))
        out = _list_field(d.get("output", []), "output")
    except KeyError as e:
        raise FormatError(f"automaton document is missing field {e.args[0]!r}") from None
    if kind not in ("dfa", "partial-dfa", "moore", "mealy"):
        raise FormatError(f"unknown automaton type {kind!r}")
    alphabet = Alphabet(len(names), names)
    size = alphabet.size
    given: dict[tuple[int, int], int] = {}
    for entry in edges:
        q, a, t = entry
        if not (0 <= q < num_states and 0 <= a < size and 0 <= t < num_states):
            raise FormatError(f"transition {entry} out of range")
        if given.setdefault((q, a), t) != t:
            raise FormatError(f"duplicate transition for state {q}, symbol {a}")
    # a total table is checked against the transitions listed before it is
    # allocated, so a large declared state count costs no memory
    if kind != "partial-dfa" and len(given) < num_states * size:
        missing = next((q, a) for q in range(num_states) for a in range(size) if (q, a) not in given)
        raise FormatError(f"{kind} document is missing transitions, e.g. {missing}")
    table = [(None,) * size] * num_states  # the states with no transition listed share a row
    for q in {q for q, _a in given}:
        table[q] = tuple(given.get((q, a)) for a in range(size))

    if kind == "partial-dfa":
        return PartialDfa(num_states, alphabet, initial, table, accepting)
    if kind == "dfa":
        return Dfa(num_states, alphabet, initial, table, accepting)
    if kind == "moore":
        if len(out) != num_states:
            raise FormatError("moore document needs one output per state")
        output = tuple(_parse_out_symbol(s, "moore output") for s in out)
        return MooreMachine(num_states, alphabet, initial, table, output)
    if len(out) != len(edges):  # mealy, the one type left
        raise FormatError("mealy document needs one output per transition")
    by_edge: dict[tuple[int, int], bool] = {}
    for (q, a, _t), s in zip(edges, out):
        bit = _parse_out_symbol(s, "mealy output")
        if by_edge.setdefault((q, a), bit) != bit:
            raise FormatError(f"duplicate transition for state {q}, symbol {a}")
    output = tuple(
        tuple(by_edge[(q, a)] for a in range(size)) for q in range(num_states)
    )
    return MealyMachine(num_states, alphabet, initial, table, output)


def dumps_json(obj: dict[str, Any]) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def automaton_to_json(a: Automaton) -> str:
    return dumps_json(automaton_to_dict(a))


def _json_object(text: str, what: str) -> dict[str, Any]:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}") from None
    if not isinstance(d, dict):
        raise FormatError(f"{what} document must be a JSON object")
    return d


def automaton_from_json(text: str) -> Automaton:
    return automaton_from_dict(_json_object(text, "automaton"))


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
    """Read a sample straight into its labeled prefix tree.

    A line whose symbol text (all after `<label> <length> `) is an earlier
    line's symbol text, a space and one symbol takes one dict lookup and one
    child insert, so a prefix-closed file is read in time linear in its
    text.  Any other line walks the tree from the root by its tokens.
    """
    lines = text.splitlines()
    numbered = [no for no, line in enumerate(lines, start=1) if line.strip()]
    if not numbered:
        raise FormatError("empty sample file")
    header = lines[numbered[0] - 1].split()
    if len(header) != 2:
        raise FormatError(f"line {numbered[0]}: header must be '<num_strings> <alphabet_size>'")
    try:
        count, size = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"line {numbered[0]}: header must contain two integers") from None
    if len(numbered) - 1 != count:
        raise FormatError(f"header promises {count} strings, file has {len(numbered) - 1}")
    children: list[dict[int, int]] = [{}]
    labels = [0]
    depths = [0]
    node_of = {"": 0}  # symbol text of each line read -> its node
    symbol_of: dict[str, int] = {}  # last token of each line walked -> its symbol
    signs = {"1": 1, "0": -1}
    both: set[int] = set()  # nodes labeled both ways

    def grow(node: int, a: int) -> int:
        child = children[node][a] = len(labels)
        children.append({})
        labels.append(0)
        depths.append(depths[node] + 1)
        return child

    for line_no in numbered[1:]:
        line = lines[line_no - 1]
        node = None
        split = line.split(" ", 2)
        if len(split) == 3:
            prefix, _, last = split[2].rpartition(" ")
            parent = node_of.get(prefix)
            a = symbol_of.get(last)
            sign = signs.get(split[0])
            if (parent is not None and a is not None and sign is not None
                    and split[1] == str(depths[parent] + 1)):
                node = children[parent].get(a)
                if node is None:
                    node = grow(parent, a)
                node_of[split[2]] = node
        if node is None:
            fields = line.split()
            if len(fields) < 2:
                raise FormatError(f"line {line_no}: need '<label> <length> <symbols...>'")
            try:
                label, length = int(fields[0]), int(fields[1])
                word = [int(x) for x in fields[2:]]
            except ValueError:
                raise FormatError(f"line {line_no}: non-integer field") from None
            if label not in (0, 1):
                raise FormatError(f"line {line_no}: label must be 0 or 1")
            if len(word) != length:
                raise FormatError(f"line {line_no}: declared length {length}, got {len(word)} symbols")
            node = 0
            for a in word:
                child = children[node].get(a)
                node = grow(node, a) if child is None else child
            if word:
                symbol_of[fields[-1]] = word[-1]
            if len(split) == 3 and split[:2] == fields[:2]:  # then split[2].split() == fields[2:]
                node_of[split[2]] = node
            sign = 1 if label else -1
        if labels[node] == -sign:
            both.add(node)
        labels[node] = sign
    try:
        alphabet = Alphabet(size)
        if both:
            raise SampleError(f"{len(both)} strings labeled both positive and negative")
        return DfaSample._from_tree(alphabet, children, labels)
    except ValueError as e:
        raise FormatError(str(e)) from None


# ---------------------------------------------------------------------------
# Run files (binary machine samples)


def machine_sample_to_text(ms: MachineSample) -> str:
    """Two lines per run: the input over symbol names, the +/- output.

    Refuses what `machine_sample_from_text` cannot read back: any alphabet
    but the binary one with symbols named 0 and 1, and the empty run, whose
    two blank lines the reader skips.
    """
    names = [ms.alphabet.name(i) for i in range(ms.alphabet.size)]
    if names != ["0", "1"]:
        raise FormatError("run files hold only the binary alphabet with symbols '0' and '1'")
    if ((), ()) in ms.runs:
        raise FormatError("run files cannot hold the empty run")
    lines = []
    for word, out in sorted(ms.runs):
        lines.append("".join(names[a] for a in word))
        lines.append(output_str(out))
    return "\n".join(lines) + "\n"


def machine_sample_from_text(text: str) -> MachineSample:
    names = {"0": 0, "1": 1}
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(lines) % 2 != 0:
        raise FormatError("run file must hold pairs of lines (input, output)")
    runs = set()
    for (word_no, word_line), (out_no, out_line) in zip(lines[::2], lines[1::2]):
        try:
            word = tuple(names[ch] for ch in word_line)
        except KeyError as e:
            raise FormatError(f"line {word_no}: unknown input symbol {e.args[0]!r}") from None
        out = tuple(_parse_out_symbol(ch, f"line {out_no}") for ch in out_line)
        if len(word) != len(out):
            raise FormatError(f"lines {word_no}-{out_no}: input and output lengths differ")
        runs.add((word, out))
    return MachineSample(Alphabet.binary(), frozenset(runs))


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


# The parameters each kind's extraction reads back.  Binary strings do
# not depend on K or N, so a binary sidecar holds neither.
_METADATA_FIELDS = {
    "zhang": (),
    "binary": ("L", "head_len", "tail_len"),
    "single": ("K", "L", "N", "head_len", "tail_len"),
}


def reduction_metadata(kind: str, g: Graph, params: ReductionParams | None = None) -> dict[str, Any]:
    """The sidecar of one generated instance: its kind, a hash pinning the
    graph, and the parameters its extraction reads back (`_METADATA_FIELDS`;
    zhang needs none, so `params` is for binary and single).  The vertex
    and edge codes are not recorded: they are `make_encoding(g, params)`.
    """
    if params is None and _METADATA_FIELDS[kind]:
        raise ValueError(f"a {kind} sidecar needs the reduction's params")
    recorded = {field: getattr(params, field) for field in _METADATA_FIELDS[kind]}
    return {"kind": kind, "graph_sha256": graph_sha256(g), **recorded}


def metadata_from_json(text: str) -> dict[str, Any]:
    return _json_object(text, "metadata")


def metadata_params(meta: dict[str, Any]) -> ReductionParams:
    """The parameters a binary or single sidecar records.  A binary one
    gets the placeholders K = 1 and N = 2L + 1, which its strings do not
    use; fields the kind does not record are ignored, so older sidecars,
    which also held counts and codes, still read.
    """
    kind = meta.get("kind")
    fields = _METADATA_FIELDS.get(kind) if isinstance(kind, str) else None
    if not fields:
        raise FormatError(f"metadata of kind {kind!r} records no reduction parameters")
    for field in fields:
        if meta.get(field) is None:
            raise FormatError(f"metadata is missing {field!r}")
    given = {f: _integer(meta[f], f, "metadata") for f in fields}
    return ReductionParams(**{"K": 1, "N": given["L"] * 2 + 1, **given})
