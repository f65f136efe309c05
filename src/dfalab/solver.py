"""Exact minimum-consistent-DFA search plus two reference points:
a brute-force enumeration oracle for tiny binary instances and the greedy
RPNI merge baseline.

The exact search folds the sample's prefix tree into at most m classes
with determinization closure.  Any such quotient properly colors the
tree's conflict graph (two nodes conflict when some suffix gives them
opposite labels), and the search uses that graph three times.  Nodes are
ordered level by level in breadth-first order, and within a level by
descending number of conflicts inside the level, ties by breadth-first
position.  A greedy clique over that order (a node joins when it
conflicts with every node already in) is a lower bound: more clique nodes
than m decides UNSAT at once.  Otherwise the clique nodes are fixed as the
first classes, which breaks class-renaming symmetry.  The search then
branches fail-first, by DSATUR's rule (Brelaz 1979) as exbar does (Lang
1999): on a node that no committed class admits, else on one that exactly
one class admits, else on the next node of the order.  That node may join
an existing class (tried in ascending creation order) or open the next
class index.  The nodes no class admits must each open a class, so a
greedy clique among them larger than the classes left to open is a dead
end (the forced-class bound).  A childless labeled node is not branched
on when a clique node has its label: it joins that clique node's class at
the end, a merge that cannot fail.  The search is sequential and
therefore deterministic, and it keeps its choices on an explicit stack, so
tree depth is not bounded by the interpreter's recursion limit.

One class holds the search: a union-find over tree nodes with a label
and transitions per class, the committed classes, and an undo trail of
one record per merge; backtracking pops records to a mark.  A node's
admissible classes are listed once, when the search reaches the node,
and a return to the node after backtracking resumes that list.  A fold
into a class that shares no symbol with the node's class needs no
closure and is done in place as one merge, with the same label test and
the same trail record as the general fold.

The conflict relation is computed when the tree is wrapped, as one int
per node whose bit v says whether that node conflicts with node v: n^2
bits for an n-node tree, from one pass up from the leaves.  Each class
keeps a class row, the OR of its nodes' rows.  A fold of two classes
with a conflicting pair of nodes must fail, so a node's candidate
classes are the committed roots minus its class row (one mask), less
those whose class row holds the node.

RPNI is the same search's first descent: plain breadth-first order, no
clique, no fail-first choice or bound, and no state bound below the tree
size, so it never backtracks and never builds the exact search's order or
clique.
"""
from __future__ import annotations

import collections
import itertools
import time
from dataclasses import dataclass
from enum import Enum

from ._checks import check_budget, check_count
from .automata import Dfa, DfaSample, consistency_violations


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass
class SolveOutcome:
    """`witness` is a total DFA on SAT and None otherwise.

    `states_explored` counts the choices the merge search takes, one each
    time a node joins a class or opens one, so a clique-bound UNSAT takes 0."""

    status: SolveStatus
    witness: Dfa | None
    states_explored: int


class BoundExceededError(ValueError):
    """No consistent automaton exists within the given state bound."""


class SolveTimeoutError(RuntimeError):
    """The time budget ran out before the search finished."""


class _Timeout(Exception):
    pass


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _Timeout


class _Pta:
    """The sample's prefix tree (shared, not copied) with its breadth-first
    node order, its conflict relation as one bitset row per node, and the
    exact search's node order and clique, built on first request."""

    def __init__(self, sample: DfaSample):
        self.children = sample.children
        self.labels = sample.labels  # 0 unknown, 1 accept, -1 reject
        self.bfs = [0]
        for node in self.bfs:  # grows while it is read: a queue
            self.bfs.extend(self.children[node].values())  # in symbol order
        self.rows = _conflict_rows(self.children, self.labels)
        self._plan: tuple[list[int], list[int]] | None = None

    def search_plan(self, deadline: float | None) -> tuple[list[int], list[int]]:
        """The exact search's node order and a greedy clique over it.

        The order is breadth-first level by level; a level is sorted by
        descending conflict degree inside the level, ties by breadth-first
        position.  The clique takes each node of the order that conflicts
        with every node taken before it.  Both are computed once per tree;
        raises _Timeout, keeping nothing, if the deadline passes first.
        """
        if self._plan is None:
            rows, children = self.rows, self.children
            depth = [0] * len(rows)
            for node in self.bfs:
                for child in children[node].values():
                    depth[child] = depth[node] + 1
            degree = [0] * len(rows)
            for _depth, nodes in itertools.groupby(self.bfs, depth.__getitem__):
                _check_deadline(deadline)
                level = list(nodes)
                members = sum(1 << u for u in level)
                for u in level:
                    degree[u] = (rows[u] & members).bit_count()
            order = sorted(self.bfs, key=lambda node: (depth[node], -degree[node]))  # ties keep BFS order
            clique: list[int] = []
            members = 0
            for node in order:
                _check_deadline(deadline)
                if rows[node] & members == members:
                    clique.append(node)
                    members |= 1 << node
            self._plan = order, clique
        return self._plan


def _conflict_rows(children, labels) -> list[int]:
    """`rows[u]` has bit v set iff some suffix labels u and v oppositely.

    Nodes are numbered in preorder, so every child comes after its parent
    and one pass from the last node back finds its children's rows done:
    u and v conflict when their labels clash or, for some symbol a, their
    a-children conflict.  The nodes whose a-child lies in a set B are
    OR_d ((B >> d) & mask), over the offsets d of the a-edges v -> v + d,
    where mask holds the nodes with such an edge.
    """
    clash = {0: 0, 1: 0, -1: 0}  # by label: the nodes of the opposite label
    offsets: dict[int, dict[int, int]] = collections.defaultdict(dict)  # symbol -> offset -> mask
    for v, (label, kids) in enumerate(zip(labels, children)):
        if label:
            clash[-label] |= 1 << v
        for a, c in kids.items():
            offsets[a][c - v] = offsets[a].get(c - v, 0) | 1 << v
    masks = {a: list(by_offset.items()) for a, by_offset in offsets.items()}
    rows = [0] * len(labels)
    for u in range(len(labels) - 1, -1, -1):
        row = clash[labels[u]]
        for a, c in children[u].items():
            below = rows[c]
            for d, mask in masks[a]:
                row |= below >> d & mask
        rows[u] = row
    return rows


class _MergeSearch:
    """The merge search: union-find classes over prefix-tree nodes, the
    committed classes and the undo trail, one (dropped root, kept root,
    symbols the kept root gained, whether it took the dropped root's label,
    the kept root's class row before) record per merge.

    The committed roots are `rank` (root -> creation index, in creation
    order, the clique first) and `redmask`, the same roots as a bitset.
    `crow[root]` is the OR of the conflict rows of the class's nodes, at
    first the tree's rows (the ints shared).  A merge ORs the dropped
    root's into the kept root's; its undo puts the old value back, since an
    OR cannot be taken out.  Nothing reads `crow` at a root once dropped.

    A childless node labeled like some clique node is deferred: it is left
    out of `order` and placed only at the end (see `run`).  A clique, which
    the exact search always has, selects its fail-first node choice and
    forced-class bound; without one `run` takes the nodes in `order`.
    """

    def __init__(self, pta: _Pta, order: list[int], clique: list[int], max_states: int,
                 deadline: float | None):
        self.crow = list(pta.rows)
        self.rep = list(range(len(pta.children)))
        self.label = list(pta.labels)
        self.trans = [dict(ch) for ch in pta.children]
        self.rank: dict[int, int] = {}
        self.redmask = 0
        self.home: dict[int, int] = {}  # label -> the first clique node with it
        for node in clique:  # the first classes, fixed
            self.commit(node)
            if pta.labels[node]:
                self.home.setdefault(pta.labels[node], node)
        self.trail: list[tuple[int, int, list[int], bool, int]] = []
        self.deferred = [node for node in order if node not in self.rank
                         and not pta.children[node] and pta.labels[node] in self.home]
        deferred = set(self.deferred)
        self.order = [node for node in order if node not in self.rank and node not in deferred]
        self.max_states = max_states
        self.deadline = deadline
        self.fail_first = bool(clique)  # rpni's clique is empty, the exact search's never
        self.explored = 0

    def commit(self, root: int) -> None:
        """Open the next committed class at `root`."""
        self.rank[root] = len(self.rank)
        self.redmask |= 1 << root

    def uncommit(self, root: int) -> None:
        """Close the last committed class, which `root` opened."""
        del self.rank[root]
        self.redmask ^= 1 << root

    def find(self, x: int) -> int:
        rep = self.rep
        while rep[x] != x:
            x = rep[x]
        return x

    def fold(self, keep: int, drop: int) -> bool:
        """Merge class `drop` into class `keep`, closing under determinism.

        Fails (returns False) on a label conflict or when the closure would
        identify two distinct committed classes; the caller must undo to
        its trail mark either way.
        """
        rep, label, trans, rank, crow, trail = (
            self.rep, self.label, self.trans, self.rank, self.crow, self.trail)
        queue = [(keep, drop)]
        while queue:
            x, y = queue.pop()
            while rep[x] != x:
                x = rep[x]
            while rep[y] != y:
                y = rep[y]
            if x == y:
                continue
            if y in rank:
                if x in rank:
                    return False
                x, y = y, x
            la, lb = label[x], label[y]
            if la and lb and la != lb:
                return False
            rep[y] = x
            old = crow[x]
            crow[x] = old | crow[y]
            relabeled = not la  # then x takes y's label, which may be 0 too
            if relabeled:
                label[x] = lb
            tx = trans[x]
            added = []
            for sym, target in trans[y].items():
                cur = tx.get(sym)
                if cur is None:
                    tx[sym] = target
                    added.append(sym)
                else:
                    queue.append((cur, target))
            trail.append((y, x, added, relabeled, old))
        return True

    def undo(self, mark: int) -> None:
        rep, label, trans, crow, trail = self.rep, self.label, self.trans, self.crow, self.trail
        for _ in range(len(trail) - mark):
            dropped, kept, added, relabeled, old = trail.pop()
            rep[dropped] = dropped
            crow[kept] = old
            tk = trans[kept]
            for sym in added:
                del tk[sym]
            if relabeled:
                label[kept] = 0  # a kept root takes a label only when it had none

    def materialize(self, alphabet) -> Dfa:
        """The classes as a total DFA, numbered by their lowest node; a
        symbol that no node of a class has is a self-loop."""
        roots: list[int] = []
        index: dict[int, int] = {}
        for node in range(len(self.rep)):
            r = self.find(node)
            if r not in index:
                index[r] = len(roots)
                roots.append(r)
        size = alphabet.size
        rows = []
        for q, r in enumerate(roots):
            row = [q] * size
            for sym, target in self.trans[r].items():
                row[sym] = index[self.find(target)]
            rows.append(tuple(row))
        accepting = frozenset(index[r] for r in roots if self.label[r] == 1)
        return Dfa(len(roots), alphabet, index[self.find(0)], tuple(rows), accepting)

    def run(self) -> bool:
        """Depth-first search over merge choices with an explicit stack.

        A frame holds one tree node's choices: each class existing when the
        node was reached, in creation order, then a new class.  Classes are
        a stack (opened by commit, closed by uncommit on backtrack), so a
        frame keeps none of them: while it is on top, its classes are the
        committed roots other than its node.  Clique nodes are
        classes from the start and get no frame.  A class is passed over
        without a fold, since the fold would fail, when its root is in the
        node's class row or the node is in its class row.  Each choice
        taken, a join or an open, adds one to `explored`.

        The frame's admissible classes, those that pass both row tests, are
        listed once when the frame is pushed, newest last so that popping
        takes them in creation order; the list is the frame's cursor.  A
        revisit may resume it because it first undoes to the frame's mark,
        which restores every class row, and the frames above it have closed
        the classes they opened, which leaves the committed classes as they
        were at the push: every input of the list is as it was then.

        A fold into a class that shares no symbol with the node's class has
        nothing to close: it is one merge, done here in place, which leaves
        the same classes and pushes the same trail record as `fold`.  It
        keeps fold's label test, since the row tests read only the roots'
        bits: two classes whose roots are unlabeled may still hold opposite
        labels.

        With no clique the next node is the first root of `order` not yet
        placed.  With one, `unplaced` holds the uncommitted roots
        that are not deferred childless nodes, saved in each frame as it was
        at the push: a revisit restores it with the trail, and a choice takes
        out the node and each root its closure dropped, and puts in each
        deferred root a merge gave transitions.  One pass over the committed
        classes finds `zero`, the unplaced nodes in every class row, and
        `one`, those outside exactly one.  A node of `zero` can join no
        committed class now or later (class rows only grow), and two of them
        one of whose class rows holds the other can never share a class.  So
        when a greedy clique of such nodes over `zero` is larger than the
        classes left to open, no completion fits in m: the search backtracks
        without a frame.  Otherwise it branches on the lowest node of
        `zero`, else of `one`, else on the first unplaced node of `order`
        (the cursor is kept in the frame), else on the lowest unplaced node.

        When nothing is unplaced, each deferred node still a root,
        uncommitted and without transitions joins the first clique class
        with its label l.  That merge needs no closure.  It cannot clash: the
        node's class holds only childless nodes labeled l or unlabeled, whose
        rows hold only nodes labeled -l, all of which the clique node's row
        holds too, and the clique class holds no node labeled -l.  For the same
        reason it leaves the clique class's row as it was.  So every path
        that places the other roots within m classes ends in a valid
        quotient, and deferring loses no solution.
        """
        order, rep, label, trans, crow, rank, trail = (
            self.order, self.rep, self.label, self.trans, self.crow, self.rank, self.trail)
        deadline, max_states, fail_first = self.deadline, self.max_states, self.fail_first
        # (order cursor, node, trail mark, admissible roots left, unplaced)
        frames: list[tuple[int, int, int, list[int], int]] = []
        idx, end = 0, len(order)
        unplaced = sum(1 << node for node in order) if fail_first else 0
        while True:
            if deadline is not None:
                _check_deadline(deadline)
            if not fail_first:
                while idx < end and rep[order[idx]] != order[idx]:
                    idx += 1
                if idx == end:
                    return True
                node = order[idx]
            elif not unplaced:
                self._place_deferred()
                return True
            else:
                once = twice = 0
                for red in rank:
                    fits = unplaced & ~crow[red]
                    twice |= once & fits
                    once |= fits
                zero = unplaced & ~once
                room, members, rest = max_states - len(rank), 0, zero
                while rest and room >= 0:  # a greedy clique over zero, as long as it fits
                    low = rest & -rest
                    rest ^= low
                    if crow[low.bit_length() - 1] & members == members:
                        members |= low
                        room -= 1
                pick = zero or once & ~twice
                if room < 0:  # more forced classes than classes left: a dead end
                    node = None
                elif pick:
                    node = (pick & -pick).bit_length() - 1
                else:
                    while idx < end and not unplaced >> order[idx] & 1:
                        idx += 1
                    # past the end: a deferred root given transitions after the cursor passed it
                    node = order[idx] if idx < end else (unplaced & -unplaced).bit_length() - 1
            if node is not None:
                rest = self.redmask & ~crow[node]
                admissible = []
                while rest:
                    low = rest & -rest
                    rest ^= low
                    red = low.bit_length() - 1
                    if not crow[red] >> node & 1:
                        admissible.append(red)
                admissible.sort(key=rank.__getitem__, reverse=True)
                frames.append((idx, node, len(trail), admissible, unplaced))
            while frames:
                idx, node, mark, admissible, unplaced = frames[-1]
                if node in rank:  # it has opened a class, its last choice
                    self.uncommit(node)
                    frames.pop()
                    continue
                if len(trail) > mark:
                    self.undo(mark)
                tn, ln = trans[node], label[node]
                while admissible:
                    red = admissible.pop()
                    tr = trans[red]
                    if tr.keys().isdisjoint(tn):  # no shared symbol: the fold is one merge
                        lr = label[red]
                        if lr and ln and lr != ln:
                            continue
                        rep[node] = red
                        old = crow[red]
                        crow[red] = old | crow[node]
                        if not lr:
                            label[red] = ln
                        tr.update(tn)
                        trail.append((node, red, list(tn), not lr, old))
                        break
                    if self.fold(red, node):
                        break
                    self.undo(mark)
                else:
                    if len(rank) >= max_states:
                        frames.pop()
                        continue
                    self.commit(node)
                self.explored += 1
                if fail_first:
                    unplaced ^= 1 << node
                    for dropped, kept, added, _relabeled, _old in trail[mark + 1:]:  # the closure
                        unplaced &= ~(1 << dropped)
                        if added and kept not in rank:
                            unplaced |= 1 << kept
                else:
                    idx += 1
                break
            else:
                return False

    def _place_deferred(self) -> None:
        """Merge each deferred node still a root, uncommitted and without
        transitions into the first clique class with its label, as `fold`
        would, trail record included (`run` says why this is sound)."""
        rep, crow, rank, trans, home = self.rep, self.crow, self.rank, self.trans, self.home
        for node in self.deferred:
            if rep[node] == node and node not in rank and not trans[node]:
                keep = home[self.label[node]]
                rep[node] = keep
                self.trail.append((node, keep, [], False, crow[keep]))


def exists_consistent(sample: DfaSample, max_states: int, time_budget: float | None = None,
                      *, _pta: _Pta | None = None) -> SolveOutcome:
    """Exact decision: is some DFA with at most max_states states
    consistent with the sample, within time_budget wall-clock seconds?

    A SAT outcome carries a total DFA witness, checked against the sample:
    the merged prefix tree, each missing transition completed by a
    self-loop.  UNSAT comes either from the clique bound, with 0 states
    explored, when the greedy clique of the prefix tree's conflict graph
    has more than max_states nodes, or from the exhausted merge search.
    Running out of time yields a TIMEOUT status, never a wrong answer; the
    deadline is checked before the clique bound, once per level while the
    order is built and once per node while the clique is built, but not
    while the conflict rows are computed when the prefix tree is wrapped.

    `states_explored` counts the choices taken, as `SolveOutcome` says.

    A max_states that is not an int (a bool or a float) or is below 1, or
    a time_budget that is not positive (NaN included), is a ValueError;
    None or inf means no deadline.

    `_pta` lets `min_consistent` share one prefix tree, with its conflict
    rows, order and clique, between the state bounds it decides.
    """
    check_count("max_states", max_states)
    check_budget("time_budget", time_budget)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    pta = _pta if _pta is not None else _Pta(sample)
    search = None
    try:
        _check_deadline(deadline)
        order, clique = pta.search_plan(deadline)
        if len(clique) > max_states:
            return SolveOutcome(SolveStatus.UNSAT, None, 0)
        search = _MergeSearch(pta, order, clique, max_states, deadline)
        sat = search.run()
    except _Timeout:
        return SolveOutcome(SolveStatus.TIMEOUT, None, search.explored if search else 0)
    if not sat:
        return SolveOutcome(SolveStatus.UNSAT, None, search.explored)
    witness = search.materialize(sample.alphabet)
    if consistency_violations(witness, sample):
        raise RuntimeError("solver bug: sat witness is not consistent with the sample")
    return SolveOutcome(SolveStatus.SAT, witness, search.explored)


def min_consistent(
    sample: DfaSample,
    upper_bound: int | None = None,
    time_budget: float | None = None,
) -> tuple[int, Dfa]:
    """Smallest state count admitting a consistent DFA, with a total DFA
    witness of that size, found by deciding m = 1, 2, ... up to upper_bound
    with `exists_consistent`.

    Without an upper_bound, m goes up to the size of the RPNI automaton,
    which is consistent.  One prefix tree serves every m, so its conflict
    rows, search order and clique are built once; each m below the clique
    size is UNSAT with no search.  Raises BoundExceededError when every m up
    to the bound is UNSAT and SolveTimeoutError when the shared time budget
    runs out first.  An upper_bound that is not an int (a bool or a float)
    or is below 1, or a time_budget that is not positive (NaN included), is
    a ValueError, and inf means no deadline.
    """
    if upper_bound is not None:
        check_count("upper_bound", upper_bound)
    check_budget("time_budget", time_budget)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    pta = _Pta(sample)
    if upper_bound is None:
        try:
            upper_bound = len(_rpni_search(pta, deadline).rank)
        except _Timeout:
            raise SolveTimeoutError("time budget exhausted while computing the RPNI bound") from None
    for m in range(1, upper_bound + 1):
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SolveTimeoutError(f"time budget exhausted before deciding m={m}")
        outcome = exists_consistent(sample, m, remaining, _pta=pta)
        if outcome.status is SolveStatus.SAT:
            assert outcome.witness is not None
            return m, outcome.witness
        if outcome.status is SolveStatus.TIMEOUT:
            raise SolveTimeoutError(f"time budget exhausted while deciding m={m}")
    raise BoundExceededError(f"no consistent DFA with at most {upper_bound} states")


def brute_force_min(sample: DfaSample) -> tuple[int, Dfa]:
    """Independent oracle: enumerate every transition table outright.

    Only for binary alphabets and up to 3 states (BoundExceededError
    above), where total enumeration is cheap.  The initial state is fixed
    to 0 (any DFA is isomorphic to one rooted at 0, and consistency is
    isomorphism-invariant); accepting sets are forced by the end state of
    each sample string rather than enumerated.
    """
    if sample.alphabet.size != 2:
        raise ValueError("brute-force oracle only covers binary alphabets")
    words = sorted(sample.strings())
    positives = sample.positives
    for m in range(1, 4):
        for table in itertools.product(range(m), repeat=2 * m):
            labels: list[bool | None] = [None] * m
            ok = True
            for w in words:
                state = 0
                for a in w:
                    state = table[2 * state + a]
                want = w in positives
                if labels[state] is None:
                    labels[state] = want
                elif labels[state] != want:
                    ok = False
                    break
            if ok:
                rows = tuple((table[2 * q], table[2 * q + 1]) for q in range(m))
                accepting = frozenset(q for q in range(m) if labels[q])
                return m, Dfa(m, sample.alphabet, 0, rows, accepting)
    raise BoundExceededError("no consistent DFA with at most 3 states")


def _rpni_search(pta: _Pta, deadline: float | None) -> _MergeSearch:
    """The first descent over breadth-first order, run: every class it
    keeps is committed, one per state of the RPNI automaton."""
    search = _MergeSearch(pta, pta.bfs, [], len(pta.labels), deadline)
    search.run()
    return search


def rpni(sample: DfaSample) -> Dfa:
    """Greedy merge baseline: fold each prefix-tree state (breadth-first)
    into the first earlier class that stays consistent, else promote it.

    This is the exact search's first descent over breadth-first order with
    no clique and the tree size as state bound: that bound never binds, so
    the search never backtracks.  Like every fold of the search, one that
    the class rows (ORs of the tree's conflict rows, n^2 bits for n tree
    nodes) show must fail is skipped, which leaves the result unchanged.

    The output is completed to a total DFA; it is always consistent and
    never larger than the prefix tree.
    """
    if not sample.strings():
        raise ValueError("rpni needs a nonempty sample")
    dfa = _rpni_search(_Pta(sample), None).materialize(sample.alphabet)
    if consistency_violations(dfa, sample):
        raise RuntimeError("rpni bug: merged automaton is not consistent with the sample")
    return dfa
