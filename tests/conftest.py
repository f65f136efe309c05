"""Shared fixtures: the standard graph family and independent test oracles."""
from __future__ import annotations

import random
from itertools import product

import pytest

from dfalab import Alphabet, DfaSample, Graph
from dfalab.certification import suite_graphs  # noqa: F401  (the acceptance family)

# 5 vertices, 6 edges, chromatic number 3: two triangles sharing an edge,
# plus a pendant vertex.  Used throughout as the standard demo instance.
DEMO5_EDGES = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)}


@pytest.fixture
def demo5() -> Graph:
    return Graph(5, frozenset(DEMO5_EDGES))


@pytest.fixture
def triangle() -> Graph:
    return Graph.complete(3)


@pytest.fixture
def k4() -> Graph:
    return Graph.complete(4)


@pytest.fixture
def c5() -> Graph:
    return Graph.cycle(5)


@pytest.fixture
def p4() -> Graph:
    return Graph.path(4)


@pytest.fixture
def edgeless4() -> Graph:
    return Graph.edgeless(4)


def oracle_chromatic(g: Graph) -> int:
    """Exhaustive chromatic number: try every labeling, smallest k first.

    Independent of the library's branch-and-bound; only for small graphs.
    """
    assert g.num_vertices <= 7, "exhaustive oracle is for tiny graphs"
    for k in range(1, g.num_vertices + 1):
        for labeling in product(range(1, k + 1), repeat=g.num_vertices):
            if all(labeling[u] != labeling[v] for u, v in g.edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def random_sample(rng: random.Random, max_strings: int = 8, max_len: int = 5) -> DfaSample:
    """Small random binary sample for solver cross-validation."""
    words = set()
    for _ in range(rng.randint(0, max_strings)):
        length = rng.randint(0, max_len)
        words.add(tuple(rng.randint(0, 1) for _ in range(length)))
    pos = frozenset(w for w in words if rng.random() < 0.5)
    neg = frozenset(words) - pos
    return DfaSample(Alphabet.binary(), pos, neg)
