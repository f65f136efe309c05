"""Golden output of `dfalab verify`: the exact stdout and exit code of
fixed runs, so a change to how the checks are computed cannot change
what the command prints."""
from __future__ import annotations

import pytest

from dfalab import Graph, emit_dimacs
from dfalab.cli import main

from conftest import DEMO5_EDGES

ZHANG_K3 = """\
CHECK reduction sample is prefix-complete: PASS
CHECK exists consistent DFA with m = K+1 = 4 states: PASS (sat at m=4)
CHECK chromatic number <= K: PASS (k* = 3)
CHECK min consistent DFA size = chromatic number + 1: PASS (m* = 4, k* = 3)
CHECK forward witness consistent with 4 = k*+1 states: PASS
CHECK extraction returns a proper coloring with at most k* colors: PASS (extracted 3 colors)
VERIFY zhang k3 K=3: PASS
"""

ZHANG_DEMO5 = """\
CHECK reduction sample is prefix-complete: PASS
CHECK exists consistent DFA with m = K+1 = 4 states: PASS (sat at m=4)
CHECK chromatic number <= K: PASS (k* = 3)
CHECK min consistent DFA size = chromatic number + 1: PASS (m* = 4, k* = 3)
CHECK forward witness consistent with 4 = k*+1 states: PASS
CHECK extraction returns a proper coloring with at most k* colors: PASS (extracted 3 colors)
VERIFY zhang demo5.col K=3: PASS
"""

ZHANG_C4 = """\
CHECK reduction sample is prefix-complete: PASS
CHECK exists consistent DFA with m = K+1 = 3 states: PASS (sat at m=3)
CHECK chromatic number <= K: PASS (k* = 2)
CHECK min consistent DFA size = chromatic number + 1: PASS (m* = 3, k* = 2)
CHECK forward witness consistent with 3 = k*+1 states: PASS
CHECK extraction returns a proper coloring with at most k* colors: PASS (extracted 2 colors)
VERIFY zhang c4 K=2: PASS
"""

ZHANG_K4_FAIL = """\
CHECK reduction sample is prefix-complete: PASS
CHECK exists consistent DFA with m = K+1 = 4 states: FAIL (unsat at m=4)
VERIFY zhang k4 K=3: FAIL (exists consistent DFA with m = K+1 = 4 states)
"""

ZHANG_C5_FAIL = """\
CHECK reduction sample is prefix-complete: PASS
CHECK exists consistent DFA with m = K+1 = 3 states: FAIL (unsat at m=3)
VERIFY zhang c5 K=2: FAIL (exists consistent DFA with m = K+1 = 3 states)
"""

BINARY_P4_RATIO = """\
CHECK reduction sample is prefix-complete: PASS
CHECK graph admits a 2-coloring: PASS
CHECK forward witness is consistent: PASS
CHECK forward witness is acyclic: PASS
CHECK forward witness has fewer than (K+1)L = 87 states: PASS (73 states)
CHECK extraction from the witness stays within K classes: PASS (k_hat = 2)
CHECK disjoint-chain count: k_hat * L <= witness states: PASS
CHECK prefix-tree extraction keeps one class per vertex: PASS (k_hat = 4, |V| = 4)
CHECK ratio chain k* <= k_hat <= floor(m_hat / L): PASS \
({"L": 29, "k_hat": 2, "k_star": 2, "m_hat": 62, "m_star_lower": 58})
VERIFY binary p4 K=2: PASS
"""

BINARY_DEMO5_RATIO = """\
CHECK reduction sample is prefix-complete: PASS
CHECK graph admits a 3-coloring: PASS
CHECK forward witness is consistent: PASS
CHECK forward witness is acyclic: PASS
CHECK forward witness has fewer than (K+1)L = 228 states: PASS (207 states)
CHECK extraction from the witness stays within K classes: PASS (k_hat = 3)
CHECK disjoint-chain count: k_hat * L <= witness states: PASS
CHECK prefix-tree extraction keeps one class per vertex: PASS (k_hat = 5, |V| = 5)
CHECK ratio chain k* <= k_hat <= floor(m_hat / L): PASS \
({"L": 57, "k_hat": 3, "k_star": 3, "m_hat": 178, "m_star_lower": 171})
VERIFY binary demo5.col K=3: PASS
"""

SINGLE_K3 = """\
CHECK string length = 2|E|(N+head+L+tail) = 780: PASS (|Str| = 780)
CHECK sample is exactly the labeled prefixes of one string: PASS
CHECK prefixes 0^j are positive for j in [1, N-1] and 0^N is negative: PASS
CHECK graph admits a 3-coloring: PASS
CHECK forward witness is consistent: PASS
CHECK forward witness has at most N+(K+1)L = 201 states: PASS (193 states)
CHECK extraction stays within K classes: PASS (k_hat = 3)
CHECK two-chain automaton is consistent with fewer than 2(N+2L) = 302 states: PASS (265 states)
VERIFY single k3 K=3: PASS
"""

SINGLE_C4 = """\
CHECK string length = 2|E|(N+head+L+tail) = 1096: PASS (|Str| = 1096)
CHECK sample is exactly the labeled prefixes of one string: PASS
CHECK prefixes 0^j are positive for j in [1, N-1] and 0^N is negative: PASS
CHECK graph admits a 2-coloring: PASS
CHECK forward witness is consistent: PASS
CHECK forward witness has at most N+(K+1)L = 199 states: PASS (183 states)
CHECK extraction stays within K classes: PASS (k_hat = 2)
CHECK two-chain automaton is consistent with fewer than 2(N+2L) = 332 states: PASS (279 states)
VERIFY single c4 K=2: PASS
"""

GOLDEN = [
    (["--kind", "zhang", "--graph", "k3", "--K", "3"], 0, ZHANG_K3),
    (["--kind", "zhang", "--graph", "demo5.col", "--K", "3"], 0, ZHANG_DEMO5),
    (["--kind", "zhang", "--graph", "c4", "--K", "2"], 0, ZHANG_C4),
    (["--kind", "zhang", "--graph", "k4", "--K", "3"], 1, ZHANG_K4_FAIL),
    (["--kind", "zhang", "--graph", "c5", "--K", "2"], 1, ZHANG_C5_FAIL),
    (["--kind", "binary", "--graph", "p4", "--K", "2", "--ratio"], 0, BINARY_P4_RATIO),
    (["--kind", "binary", "--graph", "demo5.col", "--K", "3", "--ratio"], 0, BINARY_DEMO5_RATIO),
    (["--kind", "single", "--graph", "k3", "--K", "3"], 0, SINGLE_K3),
    (["--kind", "single", "--graph", "c4", "--K", "2"], 0, SINGLE_C4),
    (["--kind", "binary", "--graph", "k3", "--K", "3", "--L", "5"], 2, ""),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_verify_prints_exactly(argv, code, stdout, tmp_path, monkeypatch, capsys):
    # a relative path, so the VERIFY line does not depend on where the test runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo5.col").write_text(emit_dimacs(Graph(5, frozenset(DEMO5_EDGES))))
    assert main(["verify", *argv]) == code
    assert capsys.readouterr().out == stdout
