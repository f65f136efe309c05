"""Graphs, colorings, the exact chromatic search, and DIMACS round trips."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfalab import (
    Coloring,
    DimacsError,
    Graph,
    chromatic_number,
    colorable,
    emit_dimacs,
    is_proper_coloring,
    min_consistent,
    parse_dimacs,
    zhang_sample,
)

from conftest import oracle_chromatic, suite_graphs


class TestGraphType:
    def test_normalizes_edge_orientation(self):
        g = Graph(3, frozenset({(2, 0), (0, 2), (1, 0)}))
        assert g.edges == {(0, 2), (0, 1)}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, frozenset({(0, 2)}))

    @pytest.mark.parametrize("n", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_a_vertex_count_that_is_not_an_int_of_at_least_1_is_refused(self, n):
        # Graph(2.5, ...) and Graph.edgeless(True) were accepted
        message = "must be an int" if type(n) is not int else "must be at least 1"
        for build in (lambda: Graph(n, frozenset()), lambda: Graph.edgeless(n)):
            with pytest.raises(ValueError, match=f"^num_vertices {message}$"):
                build()

    def test_gnp_is_seed_deterministic(self):
        assert Graph.gnp(6, 0.5, seed=3) == Graph.gnp(6, 0.5, seed=3)


class TestProperColoring:
    def test_demo5_reference_coloring(self, demo5):
        assert is_proper_coloring(demo5, Coloring((1, 2, 3, 1, 1), 3))

    def test_monochromatic_edge(self, triangle):
        assert not is_proper_coloring(triangle, Coloring((1, 1, 1), 1))

    def test_edgeless_anything_goes(self, edgeless4):
        assert is_proper_coloring(edgeless4, Coloring((1, 1, 1, 1), 1))

    def test_length_mismatch(self, triangle):
        with pytest.raises(ValueError, match="entries"):
            is_proper_coloring(triangle, Coloring((1, 2), 2))


class TestChromaticNumber:
    def test_demo5(self, demo5):
        k, witness = chromatic_number(demo5)
        assert k == 3
        assert is_proper_coloring(demo5, witness)

    def test_single_vertex(self):
        assert chromatic_number(Graph.edgeless(1))[0] == 1

    def test_k4_and_c5(self, k4, c5):
        assert chromatic_number(k4)[0] == 4
        assert chromatic_number(c5)[0] == 3

    def test_matches_exhaustive_oracle_on_suite(self):
        for name, g in suite_graphs():
            k, witness = chromatic_number(g)
            assert k == oracle_chromatic(g), name
            assert is_proper_coloring(g, witness), name

    def test_complete_graphs(self):
        for n in range(1, 7):
            assert chromatic_number(Graph.complete(n))[0] == n

    def test_bipartite_graphs_need_two(self):
        assert chromatic_number(Graph.path(5))[0] == 2
        assert chromatic_number(Graph.cycle(6))[0] == 2

    def test_edge_monotonicity(self):
        rng = random.Random(7)
        for _ in range(20):
            g = Graph.gnp(6, 0.4, seed=rng.randint(0, 10**6))
            non_edges = [
                (i, j)
                for i in range(6)
                for j in range(i + 1, 6)
                if (i, j) not in g.edges
            ]
            if not non_edges:
                continue
            bigger = Graph(6, g.edges | {rng.choice(non_edges)})
            assert chromatic_number(bigger)[0] >= chromatic_number(g)[0]

    def test_long_odd_cycle_does_not_recurse(self):
        # more vertices than the interpreter's recursion limit
        g = Graph.cycle(1201)
        k, witness = chromatic_number(g)
        assert k == 3
        assert is_proper_coloring(g, witness)
        assert colorable(g, 2) is None
        three = colorable(g, 3)
        assert three.num_colors == 3 and is_proper_coloring(g, three)

    def test_upper_bound_exceeded_is_reported_not_raised(self, k4):
        assert chromatic_number(k4, upper_bound=3) is None
        found = chromatic_number(k4, upper_bound=4)
        assert found is not None and found[0] == 4

    def test_search_improves_on_its_first_descent(self):
        # the greedy coloring in degree order 0, 1, 3, 5, 2, 4 gives vertex 5
        # a third color, yet the graph is bipartite
        g = Graph.gnp(6, 0.3, seed=1)
        for bound in (2, 3, None):
            k, witness = chromatic_number(g, upper_bound=bound)
            assert k == witness.num_colors == 2
            assert is_proper_coloring(g, witness)
        assert chromatic_number(g, upper_bound=1) is None

    @pytest.mark.parametrize("value", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_a_count_that_is_not_an_int_of_at_least_1_is_refused(self, c5, value):
        # 2.5 and True were taken for bounds below 3 (None), and 2.5 broke range()
        message = "must be an int" if type(value) is not int else "must be at least 1"
        with pytest.raises(ValueError, match=f"^k {message}$"):
            colorable(c5, value)
        with pytest.raises(ValueError, match=f"^upper_bound {message}$"):
            chromatic_number(c5, upper_bound=value)

    @pytest.mark.parametrize("n", [1, 4])
    def test_edgeless_needs_one_color(self, n):
        g = Graph.edgeless(n)
        for bound in (-1, 0):
            with pytest.raises(ValueError, match="^upper_bound must be at least 1$"):
                chromatic_number(g, upper_bound=bound)
        for bound in (1, 2, n + 1, None):
            assert chromatic_number(g, upper_bound=bound) == (1, Coloring((1,) * n, 1))


# chi of Graph.gnp(n, p, seed) for n = 1..25 (one line each), p in 0.2, 0.5,
# 0.8 and seeds 0..3, as the static-order branch and bound computed them
CHROMATIC_PINS = (
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 2, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2,
    1, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 3,
    1, 2, 2, 2, 2, 3, 2, 2, 3, 3, 2, 4,
    1, 2, 2, 2, 2, 2, 2, 3, 4, 4, 3, 4,
    1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5,
    1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 4,
    2, 2, 2, 2, 3, 4, 3, 3, 4, 5, 5, 6,
    2, 3, 3, 2, 3, 5, 3, 4, 4, 6, 5, 5,
    2, 3, 2, 2, 4, 5, 4, 4, 5, 6, 5, 6,
    2, 3, 2, 2, 4, 4, 4, 4, 6, 6, 6, 6,
    2, 3, 3, 2, 4, 4, 4, 3, 6, 6, 7, 6,
    3, 4, 2, 3, 4, 5, 4, 4, 7, 8, 7, 6,
    3, 3, 3, 3, 3, 5, 4, 4, 6, 8, 6, 7,
    2, 3, 3, 3, 4, 5, 4, 4, 7, 8, 7, 7,
    3, 3, 3, 3, 4, 4, 5, 4, 8, 8, 8, 7,
    3, 3, 3, 3, 4, 5, 5, 4, 7, 9, 8, 8,
    3, 3, 3, 3, 5, 7, 5, 5, 8, 9, 9, 8,
    3, 3, 3, 3, 5, 6, 5, 5, 8, 12, 8, 9,
    3, 3, 4, 3, 6, 6, 6, 5, 9, 10, 9, 9,
    4, 3, 4, 3, 6, 5, 6, 5, 10, 11, 11, 9,
    4, 4, 4, 3, 6, 6, 6, 5, 10, 9, 10, 9,
    3, 3, 4, 4, 6, 6, 6, 6, 9, 11, 9, 9,
    4, 4, 4, 4, 7, 6, 6, 6, 10, 12, 11, 11,
    4, 4, 4, 3, 6, 6, 7, 6, 10, 10, 11, 10,
)


def test_chromatic_number_is_pinned_on_seeded_random_graphs():
    graphs = [Graph.gnp(n, p, seed=s) for n in range(1, 26) for p in (0.2, 0.5, 0.8)
              for s in range(4)]
    got = []
    for g in graphs:
        k, witness = chromatic_number(g)
        assert witness.num_colors == k and is_proper_coloring(g, witness)
        got.append(k)
    assert tuple(got) == CHROMATIC_PINS


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10**6))
def test_upper_bound_matches_the_exhaustive_oracle(n, p, seed):
    g = Graph.gnp(n, p, seed=seed)
    chi = oracle_chromatic(g)
    for bound in range(1, n + 2):
        found = chromatic_number(g, upper_bound=bound)
        first = colorable(g, bound)
        if bound < chi:
            assert found is None
            assert first is None
        else:
            k, witness = found
            assert k == witness.num_colors == chi
            assert is_proper_coloring(g, witness)
            assert first.num_colors <= bound
            assert is_proper_coloring(g, first)


class TestMycielski:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_counts_and_no_triangle(self, k):
        g = Graph.mycielski(k)
        assert g.num_vertices == 3 * 2 ** (k - 2) - 1
        if k > 2:
            smaller = Graph.mycielski(k - 1)
            assert g.num_edges == 3 * smaller.num_edges + smaller.num_vertices
        rows = [0] * g.num_vertices
        for u, v in g.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        assert not any(rows[u] & rows[v] for u, v in g.edges)

    def test_first_members(self):
        assert Graph.mycielski(2) == Graph.complete(2)
        m3 = Graph.mycielski(3)
        assert m3.num_edges == 5
        assert all(sum(v in e for e in m3.edges) == 2 for v in range(5))  # a 5-cycle
        with pytest.raises(ValueError, match="M_2"):
            Graph.mycielski(1)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_chromatic_number_is_k(self, k):
        # chi(M_k) = k by theorem, so neither search is checked against itself
        g = Graph.mycielski(k)
        chi, witness = chromatic_number(g)
        assert chi == k and is_proper_coloring(g, witness)
        assert colorable(g, k - 1) is None
        assert min_consistent(zhang_sample(g), k + 1)[0] == k + 1


class TestDimacs:
    def test_minimal_document(self):
        assert parse_dimacs("p edge 2 1\ne 1 2") == Graph(2, frozenset({(0, 1)}))

    def test_round_trip(self, demo5):
        assert parse_dimacs(emit_dimacs(demo5)) == demo5

    def test_self_loop_flagged_with_line_number(self):
        with pytest.raises(DimacsError, match="line 2.*self-loop"):
            parse_dimacs("p edge 2 1\ne 1 1")

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 2 3\ne 1 2\ne 2 1\ne 1 2")
        assert g.num_edges == 1

    def test_comments_and_blank_lines_ignored(self):
        g = parse_dimacs("c hello\n\np edge 3 1\nc mid\ne 1 3\n")
        assert g == Graph(3, frozenset({(0, 2)}))

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2.*out of range"):
            parse_dimacs("p edge 2 1\ne 1 5")

    def test_edge_before_header(self):
        with pytest.raises(DimacsError, match="line 1.*before problem"):
            parse_dimacs("e 1 2\np edge 2 1")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("p vertex 2 1")

    def test_missing_header(self):
        with pytest.raises(DimacsError, match="missing problem line"):
            parse_dimacs("c nothing here")
