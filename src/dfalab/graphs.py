"""Simple undirected graphs, coloring checks, and an exact chromatic-number search."""
from __future__ import annotations

import random
from dataclasses import dataclass


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
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
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


def adjacency(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for u, v in g.canonical_edges():
        adj[u].append(v)
        adj[v].append(u)
    return adj


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


def chromatic_number(g: Graph, upper_bound: int | None = None) -> tuple[int, Coloring] | None:
    """Exact minimum color count with a proper witness coloring.

    Branch and bound over vertices in degree-descending order.  Symmetry is
    broken by fixing the first explored vertex to color 1 and only ever
    introducing a new color as (current maximum + 1).  The search starts from
    the bound n + 1, or upper_bound + 1 when one is given, with no coloring
    known; unbounded, its first descent never backtracks and ends on the greedy
    coloring in that order.  Returns None only under an upper_bound, when every
    proper coloring needs more than upper_bound colors.
    """
    n = g.num_vertices
    adj = adjacency(g)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    best = (n if upper_bound is None else upper_bound) + 1
    best_colors: list[int] = []

    colors = [0] * n
    # One frame per colored vertex, in search order: [vertex, colors used
    # before it, colors of its neighbors, highest color to try, color now].
    frames: list[list] = []
    used = 0
    while True:
        idx = len(frames)
        if used < best:
            if idx == n:
                best = used
                best_colors = colors[:]
            else:
                v = order[idx]
                taken = {colors[u] for u in adj[v]}
                frames.append([v, used, taken, min(used + 1, best - 1), 0])
        while frames:
            frame = frames[-1]
            v, before, taken, limit, c = frame
            c += 1
            while c <= limit and c in taken:
                c += 1
            if c <= limit:
                frame[4] = colors[v] = c
                used = max(before, c)
                break
            colors[v] = 0
            frames.pop()
        else:
            break

    if not best_colors:
        return None
    return best, Coloring(tuple(best_colors), best)


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
