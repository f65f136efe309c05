"""`certify`: every round trip passes over the standard family at K = k*,
and a round trip ends at its first failing check."""
from __future__ import annotations

import dataclasses

import pytest

from dfalab import (
    Alphabet,
    DfaSample,
    Graph,
    certify,
    chromatic_number,
    certification,
    default_params,
    single_string,
    suite_graphs,
)
from dfalab.certification import KINDS

CHECK_COUNTS = {"zhang": 6, "binary": 8, "single": 8}

ROUND_TRIPS = [
    (name, g, kind)
    for name, g in suite_graphs()
    for kind in KINDS
    if kind != "single" or g.num_edges
]


@pytest.mark.parametrize("name,g,kind", ROUND_TRIPS,
                         ids=[f"{kind}-{name}" for name, _g, kind in ROUND_TRIPS])
def test_every_check_passes_at_the_chromatic_number(name, g, kind):
    k_star, _ = chromatic_number(g)
    checks = list(certify(kind, g, k_star))
    assert [c for c in checks if not c.ok] == []
    assert len(checks) == CHECK_COUNTS[kind]


def test_zhang_stops_at_the_unsat_check(monkeypatch):
    def never(*_args, **_kwargs):
        raise AssertionError("a check after the failing one was computed")

    monkeypatch.setattr(certification, "chromatic_number", never)
    checks = list(certify("zhang", Graph.complete(4), 3))
    assert len(checks) == 2
    assert checks[0].ok
    assert checks[-1] == ("exists consistent DFA with m = K+1 = 4 states", False, "unsat at m=4")


def test_binary_stops_when_no_k_coloring_exists():
    checks = list(certify("binary", Graph.complete(4), 3))
    assert checks[-1] == ("graph admits a 3-coloring", False, "")
    assert all(c.ok for c in checks[:-1])


def test_single_checks_every_zero_run_prefix(monkeypatch):
    # K3 with K=3 has N = 101; one flipped label in the middle of the first
    # zero run keeps the sample one fully labeled path
    g = Graph.complete(3)
    assert default_params(g, 3).N == 101

    def tampered(g, params, enc):
        word, _sample, run = single_string(g, params, enc)
        labels = list(next(iter(run.runs))[1])
        labels[49] = not labels[49]  # the label of 0^50
        return word, DfaSample.from_runs(Alphabet.binary(), [(word, tuple(labels))], empty=False), run

    monkeypatch.setattr(certification, "single_string", tampered)
    checks = list(certify("single", g, 3))
    assert checks[-2] == ("sample is exactly the labeled prefixes of one string", True, "")
    assert checks[-1] == (
        "prefixes 0^j are positive for j in [1, N-1] and 0^N is negative", False, "")


def test_illegal_parameters_raise_before_any_check():
    g = Graph.complete(3)
    params = dataclasses.replace(default_params(g, 3), L=5)
    with pytest.raises(ValueError, match="illegal parameters"):
        next(certify("binary", g, 3, params))
    with pytest.raises(ValueError, match="no such reduction kind"):
        next(certify("two-chain", g, 3))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("K", [0, -3])
def test_a_color_bound_below_one_raises_before_any_check(kind, K):
    with pytest.raises(ValueError, match="^K must be at least 1$"):
        next(certify(kind, Graph.complete(3), K))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("K", [2.5, True], ids=["float", "bool"])
def test_a_color_bound_that_is_not_an_int_raises_before_any_check(kind, K):
    # 2.5 made zhang's first check read "graph admits a 2.5-coloring" and fail
    with pytest.raises(ValueError, match="^K must be an int$"):
        next(certify(kind, Graph.complete(3), K))


def test_suite_graphs_seeds_the_random_graphs():
    names = [name for name, _g in suite_graphs(2, seed=5)]
    assert names == ["triangle", "c5", "k4", "demo5", "edgeless4", "p4",
                     "gnp6-seed5", "gnp6-seed6"]
    assert dict(suite_graphs(2, seed=5))["gnp6-seed6"] == Graph.gnp(6, 0.5, seed=6)
