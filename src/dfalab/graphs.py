"""Simple undirected graphs, coloring checks, and the exact coloring oracle:
`colorable(g, k)`, a fail-first search with a clique bound, run from the
clique size upward by `chromatic_number`.  It shares the exact DFA search's
rule but none of its code, so it stays an independent check of that search."""
from __future__ import annotations

import random
from dataclasses import dataclass

from ._checks import check_count


class DimacsError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over 0-based vertex indices."""

    num_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        check_count("num_vertices", self.num_vertices)
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge {e} has an endpoint out of range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def canonical_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges sorted by (smaller endpoint, larger endpoint)."""
        return tuple(sorted(self.edges))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, frozenset((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @classmethod
    def gnp(cls, n: int, p: float, seed: int = 0) -> "Graph":
        """Erdos-Renyi G(n, p) with a fixed seed for reproducibility."""
        rng = random.Random(seed)
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        )
        return cls(n, edges)

    @classmethod
    def mycielski(cls, k: int) -> "Graph":
        """Mycielski's M_k, triangle-free with chromatic number k: M_2 = K_2,
        and M_{k+1} adds to M_k (n vertices) a shadow n + i of each vertex i,
        joined to i's neighbours, and a vertex 2n joined to every shadow.
        M_3 is a 5-cycle, M_4 the Grotzsch graph; DIMACS's myciel3 is M_4."""
        if k < 2:
            raise ValueError("Mycielski graphs start at M_2 = K_2")
        g = cls.complete(2)
        for _ in range(k - 2):
            n = g.num_vertices
            edges = set(g.edges)
            for u, v in g.edges:
                edges.update(((u, n + v), (v, n + u)))
            edges.update((n + i, 2 * n) for i in range(n))
            g = cls(2 * n + 1, frozenset(edges))
        return g


@dataclass(frozen=True)
class Coloring:
    """Vertex labeling with values in [1, num_colors]."""

    colors: tuple[int, ...]
    num_colors: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.num_colors < 1:
            raise ValueError("need at least one color")
        for c in self.colors:
            if not 1 <= c <= self.num_colors:
                raise ValueError(f"color {c} outside [1, {self.num_colors}]")


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff every edge has differently colored endpoints."""
    if len(coloring.colors) != g.num_vertices:
        raise ValueError(
            f"coloring has {len(coloring.colors)} entries for {g.num_vertices} vertices"
        )
    colors = coloring.colors
    return all(colors[u] != colors[v] for u, v in g.edges)


def _rows_order_clique(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Neighbour rows as bitsets, the vertices in descending degree order
    (ties by index), and the clique taken greedily in that order."""
    rows = [0] * g.num_vertices
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    order = sorted(range(g.num_vertices), key=lambda v: (-rows[v].bit_count(), v))
    clique, cand = [], (1 << g.num_vertices) - 1
    for v in order:
        if cand >> v & 1:
            clique.append(v)
            cand &= rows[v]
    return rows, order, clique


def colorable(g: Graph, k: int) -> Coloring | None:
    """The first proper coloring with at most k colors found, or None; k
    must be an int of at least 1 (else ValueError).
    A fail-first search on an explicit stack, after DSATUR (Brelaz 1979)
    and San Segundo (2012).  The greedy clique takes colors 1..|clique|;
    each color class is kept as `blocked`, the OR of its members' rows.  At
    each frame one pass over the classes finds `zero`, the uncolored
    vertices no class admits, and `one`, those exactly one admits.  A
    greedy clique over `zero` larger than the colors left is a dead end.
    Otherwise the search branches on the lowest vertex of `zero`, else of
    `one`, else on the first uncolored vertex of the degree order, and
    tries the classes that admit it in creation order, then a new class
    while fewer than k are open.
    """
    check_count("k", k)
    return _first_coloring(*_rows_order_clique(g), k)


def _first_coloring(rows: list[int], order: list[int], clique: list[int],
                    k: int) -> Coloring | None:
    if len(clique) > k:
        return None
    colors = [0] * len(rows)
    for c, v in enumerate(clique, 1):
        colors[v] = c
    blocked = [rows[v] for v in clique]
    uncolored = (1 << len(rows)) - 1 - sum(1 << v for v in clique)
    # One frame per vertex the search colors: [vertex, classes to try (the
    # last may be len(before), a new one), index of the next, before: the
    # class rows at the push].  A choice copies `before`, so it stays as it was.
    frames: list[list] = []
    while True:
        if not uncolored:
            return Coloring(tuple(colors), len(blocked))
        seen = twice = 0
        for row in blocked:
            fits = uncolored & ~row
            twice |= seen & fits
            seen |= fits
        zero, left = uncolored & ~seen, k - len(blocked)
        size, cand = 0, zero
        while cand and size <= left:
            size += 1
            cand &= rows[(cand & -cand).bit_length() - 1]
        if size <= left:
            pick = zero or seen & ~twice
            if pick:
                v = (pick & -pick).bit_length() - 1
            else:
                v = next(u for u in order if uncolored >> u & 1)
            tries = [c for c, row in enumerate(blocked) if not row >> v & 1]
            frames.append([v, tries + [len(blocked)] if left else tries, 0, blocked])
            uncolored ^= 1 << v
        while frames:
            frame = frames[-1]
            v, tries, i, before = frame
            if i < len(tries):
                frame[2], c = i + 1, tries[i]
                blocked = before + [0] if c == len(before) else before[:]
                blocked[c] |= rows[v]
                colors[v] = c + 1
                break
            colors[v] = 0
            uncolored |= 1 << v
            frames.pop()
        else:
            return None


def chromatic_number(g: Graph, upper_bound: int | None = None) -> tuple[int, Coloring] | None:
    """Exact minimum color count with a proper witness coloring.

    `colorable` at k = the greedy clique's size, then one more each time,
    up to upper_bound (n when none is given; else an int of at least 1).
    Returns None only under an upper_bound, when every proper coloring
    needs more than upper_bound colors.
    """
    top = g.num_vertices if upper_bound is None else upper_bound
    check_count("upper_bound", top)
    rows, order, clique = _rows_order_clique(g)
    for k in range(len(clique), top + 1):
        found = _first_coloring(rows, order, clique, k)
        if found is not None:
            return k, found
    return None


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col document ("c" comments, "p edge n m", "e u v")."""
    num_vertices: int | None = None
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if num_vertices is not None:
                raise DimacsError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"malformed problem line {line!r}", line_no)
            try:
                num_vertices = int(fields[2])
                int(fields[3])
            except ValueError:
                raise DimacsError(f"malformed problem line {line!r}", line_no) from None
            if num_vertices < 1:
                raise DimacsError("graph needs at least one vertex", line_no)
        elif fields[0] == "e":
            if num_vertices is None:
                raise DimacsError("edge before problem line", line_no)
            if len(fields) != 3:
                raise DimacsError(f"malformed edge line {line!r}", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"malformed edge line {line!r}", line_no) from None
            if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
                raise DimacsError(f"vertex out of range in {line!r}", line_no)
            if u == v:
                raise DimacsError(f"self-loop in {line!r}", line_no)
            edges.add((min(u, v) - 1, max(u, v) - 1))  # duplicates collapse
        else:
            raise DimacsError(f"unrecognized line {line!r}", line_no)
    if num_vertices is None:
        raise DimacsError("missing problem line")
    return Graph(num_vertices, frozenset(edges))


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.num_vertices} {g.num_edges}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.canonical_edges())
    return "\n".join(lines) + "\n"
