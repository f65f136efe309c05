"""Serialization round trips and byte stability for every file format."""
from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfalab import (
    Alphabet,
    Dfa,
    DfaSample,
    Graph,
    MachineSample,
    MealyMachine,
    MooreMachine,
    PartialDfa,
    default_params,
    make_encoding,
    single_string,
    zhang_sample,
)
from dfalab.formats import (
    FormatError,
    automaton_from_dict,
    automaton_from_json,
    automaton_to_dict,
    automaton_to_dot,
    automaton_to_json,
    graph_sha256,
    machine_sample_from_text,
    machine_sample_to_text,
    metadata_params,
    reduction_metadata,
    sample_from_abbadingo,
    sample_to_abbadingo,
)

BIN = Alphabet.binary()


def flip_flop() -> Dfa:
    return Dfa(2, BIN, 0, ((1, 1), (0, 0)), frozenset({1}))


class TestAutomatonJson:
    def test_dfa_round_trip(self):
        dfa = flip_flop()
        assert automaton_from_json(automaton_to_json(dfa)) == dfa

    def test_partial_round_trip_and_missing_edges_absent(self):
        p = PartialDfa(2, BIN, 1, ((None, 1), (0, None)), frozenset({0}))
        d = automaton_to_dict(p)
        assert d["type"] == "partial-dfa"
        assert len(d["transitions"]) == 2
        assert automaton_from_json(automaton_to_json(p)) == p

    def test_moore_round_trip(self):
        m = flip_flop().to_moore()
        assert automaton_from_json(automaton_to_json(m)) == m

    def test_mealy_round_trip(self):
        m = flip_flop().to_mealy()
        assert automaton_from_json(automaton_to_json(m)) == m

    def test_byte_stable(self):
        assert automaton_to_json(flip_flop()) == automaton_to_json(flip_flop())

    def test_total_dfa_with_hole_rejected(self):
        text = automaton_to_json(PartialDfa(1, BIN, 0, ((0, None),), frozenset()))
        text = text.replace("partial-dfa", "dfa")
        with pytest.raises(FormatError, match="missing transitions"):
            automaton_from_json(text)

    def test_unknown_type(self):
        with pytest.raises(FormatError, match="unknown automaton type"):
            automaton_from_json('{"type": "nfa", "states": 1, "alphabet": ["0"], '
                                '"initial": 0, "transitions": []}')

    @pytest.mark.parametrize("machine, field, value, message", [
        ("dfa", "transitions", [[0, 0]], r"transition \[0, 0\] must be three integers"),
        ("dfa", "transitions", [[0, 0, 1, 1]], "must be three integers"),
        ("dfa", "transitions", [[0, "0", 1]], "must be three integers"),
        ("dfa", "transitions", [0, 0, 1], "transition 0 must be three integers"),
        ("dfa", "alphabet", "01", "'alphabet' must be a list"),
        ("dfa", "accepting", "1", "'accepting' must be a list"),
        ("mealy", "output", "+-+-", "'output' must be a list"),
        ("moore", "output", "-+", "'output' must be a list"),
        ("dfa", "states", "two", "wrong type"),
        ("dfa", "alphabet", [None], "'alphabet' has the wrong type: None is not a string"),
        ("dfa", "alphabet", [True, 1.5], "True is not a string"),
        ("dfa", "alphabet", [["x"]], r"\['x'\] is not a string"),
        ("dfa", "alphabet", [0, "0"], "0 is not a string"),
    ])
    def test_malformed_fields_are_format_errors(self, machine, field, value, message):
        d = automaton_to_dict({"dfa": flip_flop(), "mealy": flip_flop().to_mealy(),
                               "moore": flip_flop().to_moore()}[machine])
        automaton_from_dict(d)  # well formed until the one field changes
        d[field] = value
        with pytest.raises(FormatError, match=message):
            automaton_from_dict(d)

    # a (state, symbol) listed twice in a mealy document must repeat its
    # output too: neither of two opposite outputs may silently win
    @pytest.mark.parametrize("first", ["+", "-"])
    def test_a_repeated_mealy_transition_must_repeat_its_output(self, first):
        other = {"+": "-", "-": "+"}[first]
        d = {"type": "mealy", "states": 1, "alphabet": ["0"], "initial": 0,
             "transitions": [[0, 0, 0], [0, 0, 0]], "output": [first, other]}
        with pytest.raises(FormatError, match="^duplicate transition for state 0, symbol 0$"):
            automaton_from_dict(d)
        d["output"] = [first, first]  # repeats that agree stay accepted
        assert automaton_from_dict(d).output == ((first == "+",),)

    # no coercion: a float, a numeric string or a bool is not a state
    @pytest.mark.parametrize("bad", [2.9, "2", True], ids=["float", "string", "bool"])
    def test_state_count_must_be_an_integer(self, bad):
        d = {**automaton_to_dict(flip_flop()), "states": bad}
        with pytest.raises(FormatError, match="'states' has the wrong type"):
            automaton_from_dict(d)

    @pytest.mark.parametrize("bad", [0.0, "1", False], ids=["float", "string", "bool"])
    def test_initial_state_must_be_an_integer(self, bad):
        d = {**automaton_to_dict(flip_flop()), "initial": bad}
        with pytest.raises(FormatError, match="'initial' has the wrong type"):
            automaton_from_dict(d)

    @pytest.mark.parametrize("bad", [1.0, "1", True], ids=["float", "string", "bool"])
    def test_accepting_states_must_be_integers(self, bad):
        d = {**automaton_to_dict(flip_flop()), "accepting": [bad]}
        with pytest.raises(FormatError, match="'accepting' has the wrong type"):
            automaton_from_dict(d)


class TestAbbadingo:
    def test_round_trip_with_epsilon(self):
        s = DfaSample(BIN, frozenset({(), (0, 1)}), frozenset({(1,)}))
        assert sample_from_abbadingo(sample_to_abbadingo(s)) == s

    def test_header_format(self):
        text = sample_to_abbadingo(DfaSample(BIN, frozenset({(0,)}), frozenset()))
        assert text.splitlines()[0] == "1 2"
        assert text.splitlines()[1] == "1 1 0"

    def test_zhang_sample_survives(self, demo5):
        s = zhang_sample(demo5)
        back = sample_from_abbadingo(sample_to_abbadingo(s))
        assert back.positives == s.positives
        assert back.negatives == s.negatives

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="promises"):
            sample_from_abbadingo("2 2\n1 1 0\n")

    def test_length_mismatch_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            sample_from_abbadingo("1 2\n1 3 0 1\n")

    def test_bad_label(self):
        with pytest.raises(FormatError, match="label"):
            sample_from_abbadingo("1 2\n7 1 0\n")


# ---------------------------------------------------------------------------
# The parser before it read files straight into the prefix tree: one word
# tuple per line, then the DfaSample constructor.  Errors name file lines.


def ref_sample_from_abbadingo(text: str) -> DfaSample:
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FormatError("empty sample file")
    header_no, header_line = lines[0]
    header = header_line.split()
    if len(header) != 2:
        raise FormatError(f"line {header_no}: header must be '<num_strings> <alphabet_size>'")
    try:
        count, size = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"line {header_no}: header must contain two integers") from None
    if len(lines) - 1 != count:
        raise FormatError(f"header promises {count} strings, file has {len(lines) - 1}")
    pos: set = set()
    neg: set = set()
    for line_no, line in lines[1:]:
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
        return DfaSample(Alphabet(size), frozenset(pos), frozenset(neg))
    except ValueError as e:
        raise FormatError(str(e)) from None


def tree(sample: DfaSample):
    """Everything a sample holds, children maps in their stored order."""
    return sample.alphabet, [list(c.items()) for c in sample.children], sample.labels


def outcome(parse, text: str):
    try:
        return tree(parse(text))
    except FormatError as e:
        return "FormatError", str(e)


@st.composite
def samples(draw, k=None):
    """Samples over k symbols (default: 1-3), prefix-closed or not."""
    k = draw(st.integers(1, 3)) if k is None else k
    words = draw(st.sets(st.lists(st.integers(0, k - 1), max_size=7).map(tuple), max_size=14))
    if draw(st.booleans()):
        words = {w[:i] for w in words for i in range(len(w) + 1)}
    signs = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    pos = {w for w, plus in zip(sorted(words), signs) if plus}
    return DfaSample(Alphabet(k), pos, words - pos)


SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0"])


@st.composite
def mangled(draw, text: str) -> str:
    """`text` with its strings shuffled and some repeated, blank lines put
    in, tokens spaced oddly and written with leading zeros or a '+'."""
    header, *body = text.splitlines()
    if body:
        body += [body[i] for i in draw(st.lists(st.integers(0, len(body) - 1), max_size=4))]
    body = draw(st.permutations(body))
    out = [f"{len(body)} {header.split()[1]}"]
    for line in body:
        out.extend(draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=1)))
        tokens = line.split()
        if draw(st.booleans()):
            tokens = [draw(st.sampled_from([t, "0" + t, "+" + t])) for t in tokens]
        if draw(st.booleans()):
            line = draw(SPACES).join(tokens)
            line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "]))
        out.append(line)
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=200, deadline=None)
@given(samples(), st.data())
def test_parser_matches_the_reference(sample, data):
    text = sample_to_abbadingo(sample)
    assert tree(sample_from_abbadingo(text)) == tree(ref_sample_from_abbadingo(text)) == tree(sample)
    text = data.draw(mangled(text))
    assert tree(sample_from_abbadingo(text)) == tree(ref_sample_from_abbadingo(text)) == tree(sample)


@settings(max_examples=200, deadline=None)
@given(samples(), st.data())
def test_parser_fails_like_the_reference(sample, data):
    """One token of a (mangled) file replaced, inserted or removed: both
    parsers return the same sample or raise the same FormatError."""
    text = sample_to_abbadingo(sample)
    if data.draw(st.booleans()):
        text = data.draw(mangled(text))
    lines = text.splitlines()
    no = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[no].split(" ")
    at = data.draw(st.integers(0, len(tokens)))
    junk = data.draw(st.sampled_from(["x", "-1", "2", "3", "0", "1", "7", "1.0", ""]))
    edit = data.draw(st.sampled_from(["replace", "insert", "remove"]))
    if edit == "insert" or at == len(tokens):
        tokens.insert(at, junk)
    elif edit == "replace":
        tokens[at] = junk
    else:
        del tokens[at]
    lines[no] = " ".join(tokens)
    text = "\n".join(lines)
    assert outcome(sample_from_abbadingo, text) == outcome(ref_sample_from_abbadingo, text)


@pytest.mark.parametrize("text, message", [
    ("", "empty sample file"),
    ("\n \n", "empty sample file"),
    ("\n1\n1 1 0\n", "line 2: header must be '<num_strings> <alphabet_size>'"),
    ("1 2 3\n1 1 0\n", "line 1: header must be '<num_strings> <alphabet_size>'"),
    ("1 two\n1 1 0\n", "line 1: header must contain two integers"),
    ("\n1 x\n1 1 0\n", "line 2: header must contain two integers"),
    ("2 2\n1 1 0\n", "header promises 2 strings, file has 1"),
    ("1 2\n1 1 0\n\n0 1 1\n", "header promises 1 strings, file has 2"),
    ("1 2\n\n1\n", "line 3: need '<label> <length> <symbols...>'"),
    ("2 2\n1 1 0\n\n1 x 1\n", "line 4: non-integer field"),
    ("2 2\n1 1 0\n\n\n1 2 0 a\n", "line 5: non-integer field"),
    ("1 2\n\n7 1 0\n", "line 3: label must be 0 or 1"),
    ("2 2\n1 1 0\n-1 1 1\n", "line 3: label must be 0 or 1"),
    ("1 2\n\n1 3 0 1\n", "line 3: declared length 3, got 2 symbols"),
    ("2 2\n1 1 0\n1 1 0 1\n", "line 3: declared length 1, got 2 symbols"),
    # the symbol text after an odd first or second field is no key of its node
    ("3 2\n1 1 1\n 1 1 0\n1 2 1 0 1\n", "line 4: declared length 2, got 3 symbols"),
    ("3 2\n0 1 0\n1 2\t0 1\n1 3 1 0\n", "line 4: declared length 3, got 2 symbols"),
    ("2 2\n1 1 0\n1 2 0 2\n", "string (0, 2) uses symbols outside alphabet of size 2"),
    ("3 2\n1 2 1 5\n1 1 -1\n0 3 1 5 0\n", "string (-1,) uses symbols outside alphabet of size 2"),
    ("2 2\n1 2 0 1\n0 2 00 01\n", "1 strings labeled both positive and negative"),
    ("4 3\n1 0\n0 0\n1 1 2\n0 1 02\n", "2 strings labeled both positive and negative"),
    ("1 0\n1 1 0\n", "alphabet size must be at least 1"),
    # two faults: the parsers report the one the reference checks first
    ("3 2\n7 1 0\n\n1 x\n", "header promises 3 strings, file has 2"),
    ("3 2\n1 1 0\n7 1 1\n1 x\n", "line 3: label must be 0 or 1"),
    ("2 2\n1 3 0 1\n1 1 x\n", "line 2: declared length 3, got 2 symbols"),
    ("3 2\n1 1 5\n1 1 0\n0 1 0\n", "1 strings labeled both positive and negative"),
    ("2 0\n1 1 0\n0 1 0\n", "alphabet size must be at least 1"),
])
def test_faulty_files_fail_like_the_reference(text, message):
    assert outcome(ref_sample_from_abbadingo, text) == ("FormatError", message)
    assert outcome(sample_from_abbadingo, text) == ("FormatError", message)


def test_large_prefix_closed_file_parses_in_linear_memory():
    """The k4 single-string sample with K=4: 3889 strings of up to 3888
    symbols, 15 MB of text.  One word tuple per line took 78 MB."""
    g = Graph.complete(4)
    params = default_params(g, 4)
    _word, sample, _run = single_string(g, params, make_encoding(g, params))
    text = sample_to_abbadingo(sample)
    tracemalloc.start()
    try:
        got = sample_from_abbadingo(text)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 15 * 10**6
    assert tree(got) == tree(sample)
    assert peak < 45 * 2**20, f"{peak / 2**20:.1f} MB"


class TestRunFiles:
    def test_round_trip(self):
        ms = MachineSample(BIN, frozenset({((0, 1, 1), (True, False, True))}))
        assert machine_sample_from_text(machine_sample_to_text(ms)) == ms

    def test_text_shape(self):
        ms = MachineSample(BIN, frozenset({((0, 0), (True, False))}))
        assert machine_sample_to_text(ms) == "00\n+-\n"

    def test_multicharacter_names_rejected(self):
        a = Alphabet(2, ("aa", "b"))
        ms = MachineSample(a, frozenset({((0,), (True,))}))
        with pytest.raises(FormatError, match="^run files hold only the binary alphabet"):
            machine_sample_to_text(ms)

    @pytest.mark.parametrize("alphabet", [Alphabet(1), Alphabet(3), Alphabet(2, ("a", "b")),
                                          Alphabet(2, ("1", "0"))],
                             ids=["unary", "ternary", "named", "swapped"])
    def test_the_writer_refuses_what_the_reader_cannot_read(self, alphabet):
        # single-character names were written, and the reader takes only 0 and 1
        ms = MachineSample(alphabet, frozenset({((0,), (True,))}))
        with pytest.raises(FormatError, match="^run files hold only the binary alphabet "
                                              "with symbols '0' and '1'$"):
            machine_sample_to_text(ms)

    def test_unknown_symbol(self):
        with pytest.raises(FormatError, match="unknown input symbol"):
            machine_sample_from_text("02\n++\n")

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="lengths differ"):
            machine_sample_from_text("00\n+\n")

    def test_errors_name_the_file_line(self):
        with pytest.raises(FormatError, match="^line 4: unknown input symbol 'x'$"):
            machine_sample_from_text("01\n+-\n\n0x\n++\n")
        with pytest.raises(FormatError, match="^line 5: output symbol must be"):
            machine_sample_from_text("01\n+-\n0\n\n*\n")
        with pytest.raises(FormatError, match="^lines 3-5: input and output lengths differ$"):
            machine_sample_from_text("\n\n01\n\n+\n")


@st.composite
def automata(draw, k, kinds=("dfa", "partial-dfa", "moore", "mealy")):
    """An automaton of one of the document types over Alphabet(k)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(kinds))
    targets = st.integers(0, n - 1)
    if kind == "partial-dfa":
        targets = st.none() | targets
    rows = tuple(tuple(draw(targets) for _ in range(k)) for _ in range(n))
    initial = draw(st.integers(0, n - 1))
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    if kind == "moore":
        return MooreMachine(n, Alphabet(k), initial, rows, draw(flags))
    if kind == "mealy":
        output = [draw(st.lists(st.booleans(), min_size=k, max_size=k)) for _ in range(n)]
        return MealyMachine(n, Alphabet(k), initial, rows, output)
    accepting = frozenset(q for q, on in enumerate(draw(flags)) if on)
    return (Dfa if kind == "dfa" else PartialDfa)(n, Alphabet(k), initial, rows, accepting)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_every_format_reads_back_an_equal_value(k, data):
    # over a nameless alphabet of each size; size 2 read back unequal while
    # the readers named its symbols and equality compared names
    sample = data.draw(samples(k))
    assert sample_from_abbadingo(sample_to_abbadingo(sample)) == sample
    machine = data.draw(automata(k))
    assert automaton_from_json(automaton_to_json(machine)) == machine
    if k == 2:
        mealy = data.draw(automata(2, ["mealy"]))
        words = data.draw(st.sets(st.lists(st.integers(0, 1), max_size=6).map(tuple), max_size=8))
        runs = MachineSample(Alphabet(2), {(w, mealy.outputs(w)) for w in words})
        if ((), ()) in runs.runs:  # two blank lines, which the reader skips
            with pytest.raises(FormatError, match="^run files cannot hold the empty run$"):
                machine_sample_to_text(runs)
        else:
            assert machine_sample_from_text(machine_sample_to_text(runs)) == runs


class TestDot:
    def test_accepting_states_doubled_and_edges_named(self):
        dot = automaton_to_dot(flip_flop())
        assert "q1 [shape=doublecircle" in dot
        assert 'q0 -> q1 [label="0"]' in dot

    def test_byte_stable(self):
        assert automaton_to_dot(flip_flop()) == automaton_to_dot(flip_flop())

    def test_moore_outputs_in_labels(self):
        dot = automaton_to_dot(flip_flop().to_moore())
        assert 'label="q1/+"' in dot

    def test_mealy_outputs_on_edges(self):
        dot = automaton_to_dot(flip_flop().to_mealy())
        assert 'label="0/+"' in dot

    def test_partial_skips_missing(self):
        p = PartialDfa(1, BIN, 0, ((None, 0),), frozenset())
        assert 'label="0"' not in automaton_to_dot(p)


class TestMetadata:
    def test_round_trip(self, demo5):
        params = default_params(demo5, 3)
        meta = reduction_metadata("single", demo5, params)
        assert metadata_params(meta) == params
        assert make_encoding(demo5, metadata_params(meta)) == make_encoding(demo5, params)
        assert meta["graph_sha256"] == graph_sha256(demo5)

    def test_masked_fields(self, demo5):
        meta = reduction_metadata("zhang", demo5)
        assert set(meta) == {"kind", "graph_sha256"}
        with pytest.raises(FormatError, match="records no reduction parameters"):
            metadata_params(meta)

    def test_binary_without_k(self, demo5):
        # binary strings do not depend on K or N: the sidecar records neither
        params = default_params(demo5, 1)
        meta = reduction_metadata("binary", demo5, params)
        assert meta == reduction_metadata("binary", demo5, default_params(demo5, 3))
        assert set(meta) == {"kind", "graph_sha256", "L", "head_len", "tail_len"}
        got = metadata_params(meta)
        assert (got.L, got.head_len, got.tail_len) == (params.L, params.head_len, params.tail_len)
        assert make_encoding(demo5, got) == make_encoding(demo5, params)
        with pytest.raises(FormatError, match="missing 'K'"):
            metadata_params({**meta, "kind": "single"})
        with pytest.raises(ValueError, match="^a binary sidecar needs the reduction's params$"):
            reduction_metadata("binary", demo5)
