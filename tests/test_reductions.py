"""Reduction instance generators: parameters, encodings, and the three samples."""
from __future__ import annotations

import random
import sys

import pytest

from dfalab import (
    DfaSample,
    Graph,
    PrefixCompleteness,
    ReductionParams,
    binary_sample,
    default_params,
    dfa_sample_to_machine_sample,
    make_encoding,
    param_warnings,
    prefix_completeness,
    single_string,
    zhang_sample,
)
from dfalab.reductions import incident_pairs, zhang_alphabet

from conftest import suite_graphs


class TestParams:
    def test_demo5_smallest_legal(self, demo5):
        p = default_params(demo5, 3)
        assert (p.head_len, p.tail_len, p.L, p.N) == (3, 3, 57, 229)
        assert param_warnings(demo5, p) == []

    def test_triangle(self, triangle):
        p = default_params(triangle, 3)
        assert (p.head_len, p.tail_len, p.L, p.N) == (2, 2, 25, 101)

    def test_single_edge_exercises_padding(self):
        p2 = Graph.path(2)
        p = default_params(p2, 1)
        assert (p.head_len, p.tail_len, p.L) == (1, 1, 11)

    def test_under_bound_values_warn(self, triangle):
        p = ReductionParams(K=3, L=5, N=10, head_len=2, tail_len=2)
        issues = param_warnings(triangle, p)
        assert any("L=5" in w for w in issues)
        assert any("N=10" in w for w in issues)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            ReductionParams(K=0, L=1, N=1, head_len=1, tail_len=1)

    @pytest.mark.parametrize("field", ["K", "L", "N", "head_len", "tail_len"])
    @pytest.mark.parametrize("value", [25.5, True, 0], ids=["float", "bool", "zero"])
    def test_every_field_is_an_int_of_at_least_1(self, field, value):
        # L=25.5 was accepted and broke binary_sample with a TypeError
        message = "must be an int" if type(value) is not int else "must be at least 1"
        fields = {"K": 3, "L": 30, "N": 121, "head_len": 2, "tail_len": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            ReductionParams(**fields)

    @pytest.mark.parametrize("K", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_default_params_checks_K(self, triangle, K):
        message = "must be an int" if type(K) is not int else "must be at least 1"
        with pytest.raises(ValueError, match=f"^K {message}$"):
            default_params(triangle, K)


class TestEncoding:
    def test_demo5_codes(self, demo5):
        enc = make_encoding(demo5, default_params(demo5, 3))
        assert enc.vertex_codes == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0))
        assert enc.edge_codes == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))

    def test_single_vertex_padded(self):
        g = Graph.edgeless(1)
        enc = make_encoding(g, default_params(g, 1))
        assert enc.vertex_codes == ((0,),)

    def test_triangle_edge_codes_follow_canonical_order(self, triangle):
        enc = make_encoding(triangle, default_params(triangle, 3))
        assert enc.edge_codes == ((0, 0), (0, 1), (1, 0))

    def test_capacity_checked(self, demo5):
        tight = ReductionParams(K=3, L=57, N=229, head_len=2, tail_len=3)
        with pytest.raises(ValueError, match="cannot encode"):
            make_encoding(demo5, tight)


class TestZhangSample:
    def test_demo5_counts(self, demo5):
        s = zhang_sample(demo5)
        assert (len(s.positives), len(s.negatives)) == (7, 11)

    def test_edgeless(self):
        s = zhang_sample(Graph.edgeless(3))
        assert s.positives == {()}
        assert s.negatives == {(0,), (1,), (2,)}

    def test_single_edge_enumeration(self):
        s = zhang_sample(Graph.path(2))
        edge = 2  # symbol index of the only edge
        assert s.positives == {(), (0, edge)}
        assert s.negatives == {(0,), (1,), (1, edge)}

    def test_alphabet_names(self, demo5):
        a = zhang_alphabet(demo5)
        assert a.size == 11
        assert a.name(0) == "v1" and a.name(5) == "e1_2" and a.name(10) == "e3_5"

    def test_prefix_complete(self, demo5):
        assert prefix_completeness(zhang_sample(demo5)) is PrefixCompleteness.COMPLETE

    @pytest.mark.parametrize("name, g", suite_graphs(), ids=[name for name, _g in suite_graphs()])
    def test_runs_build_the_sample_of_the_word_sets(self, name, g):
        # the vertex/edge construction spelled as word sets, built by the
        # set-based constructor: the same tree, node numbering included
        nv, edges = g.num_vertices, g.canonical_edges()
        pos = {()} | {(u, nv + rank) for rank, (u, _v) in enumerate(edges)}
        neg = {(v,) for v in range(nv)} | {(v, nv + rank) for rank, (_u, v) in enumerate(edges)}
        expected = DfaSample(zhang_alphabet(g), pos, neg)
        s = zhang_sample(g)
        assert s == expected
        assert (s.labels, s.children) == (expected.labels, expected.children)


class TestBinarySample:
    def test_demo5_first_string(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        s = binary_sample(demo5, params, enc)
        w = enc.vertex_codes[0] + (0,) * 57 + enc.edge_codes[0]
        assert len(w) == 63
        assert w in s.positives  # head vertex is the smaller endpoint

    def test_demo5_counts(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        s = binary_sample(demo5, params, enc)
        full_len = params.head_len + params.L + params.tail_len
        full = {w for w in s.strings() if len(w) == full_len}
        assert len(full) == 2 * demo5.num_edges == 12
        assert len(s.positives) == 11

    def test_epsilon_negative_and_body_boundary(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        s = binary_sample(demo5, params, enc)
        assert () in s.negatives
        body = enc.vertex_codes[0] + (0,) * params.L
        assert body in s.positives
        assert body[:-1] in s.negatives

    def test_independent_of_k(self, demo5):
        e = make_encoding(demo5, default_params(demo5, 1))
        assert binary_sample(demo5, default_params(demo5, 1), e) == binary_sample(
            demo5, default_params(demo5, 7), e
        )

    def test_prefix_complete_even_with_isolated_vertices(self):
        g = Graph(4, frozenset({(0, 1)}))  # vertices 2 and 3 are isolated
        params = default_params(g, 2)
        s = binary_sample(g, params, make_encoding(g, params))
        assert prefix_completeness(s) is PrefixCompleteness.COMPLETE

    def test_negatives_are_fragments_or_reversed_pairs(self, demo5):
        params = default_params(demo5, 3)
        enc = make_encoding(demo5, params)
        s = binary_sample(demo5, params, enc)
        full_len = params.head_len + params.L + params.tail_len
        for w in s.negatives:
            if len(w) < full_len:
                assert any(
                    len(m) > len(w) and m[: len(w)] == w for m in s.strings()
                )
            else:
                # a full string labeled negative: larger endpoint's copy
                assert w[: params.head_len] in enc.vertex_codes
                assert w[params.head_len + params.L:] in enc.edge_codes


class TestSingleString:
    def test_triangle_lengths(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        word, sample, run = single_string(triangle, params, enc)
        assert len(word) == 6 * 130 == 780
        assert sample.size() == 781  # every nonempty prefix plus the empty string
        assert sample.strings() == {word[:k] for k in range(len(word) + 1)}

    def test_zero_run_labels(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _word, sample, _run = single_string(triangle, params, enc)
        for j in range(1, params.N):
            assert sample.label((0,) * j) is True
        assert sample.label((0,) * params.N) is False

    def test_first_block_body_end_positive(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _word, sample, _run = single_string(triangle, params, enc)
        prefix = (0,) * params.N + enc.vertex_codes[0] + (0,) * params.L
        assert sample.label(prefix) is True

    def test_run_matches_sample_conversion(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _word, sample, run = single_string(triangle, params, enc)
        assert dfa_sample_to_machine_sample(sample) == run

    def test_exactly_one_maximal_string(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        _word, sample, _run = single_string(triangle, params, enc)
        assert len(dfa_sample_to_machine_sample(sample).runs) == 1

    def test_blocks_reproduce_binary_labels(self, triangle):
        params = default_params(triangle, 3)
        enc = make_encoding(triangle, params)
        word, sample, _run = single_string(triangle, params, enc)
        bsample = binary_sample(triangle, params, enc)
        block = params.block_len()
        for t in range(2 * triangle.num_edges):
            base = t * block + params.N
            s_t = word[base: (t + 1) * block]
            for m in range(1, len(s_t) + 1):
                assert sample.label(word[: base + m]) == bsample.label(s_t[:m])

    def test_length_formula_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(5):
            g = Graph.gnp(5, 0.6, seed=rng.randint(0, 10**6))
            if not g.num_edges:
                continue
            params = default_params(g, 3)
            enc = make_encoding(g, params)
            word, _sample, _run = single_string(g, params, enc)
            expected = 2 * g.num_edges * (
                params.N + params.head_len + params.L + params.tail_len
            )
            assert len(word) == expected

    def test_needs_an_edge(self):
        g = Graph.edgeless(2)
        params = default_params(g, 1)
        with pytest.raises(ValueError, match="at least one edge"):
            single_string(g, params, make_encoding(g, params))


class TestCanonicalOrder:
    def test_pairs_sorted_by_vertex_then_edge(self, triangle):
        pairs = [(v, e) for v, _rank, e in incident_pairs(triangle)]
        assert pairs == [
            (0, (0, 1)),
            (0, (0, 2)),
            (1, (0, 1)),
            (1, (1, 2)),
            (2, (0, 2)),
            (2, (1, 2)),
        ]


def test_no_dfalab_function_is_memoized():
    # a memo cache outlives the call that filled it: a later call with equal
    # arguments would reuse its sample instead of generating one
    import dfalab.cli  # noqa: F401  (every module of the package is loaded)

    memoized = [f"{name}.{attr}" for name, module in list(sys.modules.items())
                if name == "dfalab" or name.startswith("dfalab.")
                for attr, value in vars(module).items() if hasattr(value, "cache_clear")]
    assert memoized == []


def test_generated_samples_are_prefix_complete_and_disjoint():
    rng = random.Random(3)
    for _ in range(10):
        g = Graph.gnp(6, 0.5, seed=rng.randint(0, 10**6))
        assert prefix_completeness(zhang_sample(g)) is PrefixCompleteness.COMPLETE
        params = default_params(g, 3)
        enc = make_encoding(g, params)
        s = binary_sample(g, params, enc)
        assert prefix_completeness(s) is PrefixCompleteness.COMPLETE
        assert not s.positives & s.negatives
