"""Host-speed sampling, so that pass times can be read at one fixed
reference speed.

The benchmark's host is shared, and the speed at which it runs this
single-threaded program jumps between a fast and a slow phase, about 1.6x
apart, many times a minute; for minutes at a time it may also stay in one.
A run's plain wall time follows the share of slow phases it happened to
meet. So while a worker measures, an interval timer interrupts it every
`INTERVAL_S` and times `reference_work`, a fixed computation that uses no
dfalab code. The probe times inside an operation tell how fast the host
ran it; `Sampler.busy` turns the operation's wall time, less the probes'
own time, into the time it would have taken at the reference speed, at
which one probe takes `REFERENCE_S`. The probe does the same work in every
version of dfalab, so a faster or slower program shows in full.

The probe builds a small prefix tree and merges its nodes with a
union-find: the dict, list and small-integer traffic of the program, with a
working set of about 150 KB. A probe small enough to stay in the first-level
cache barely sees the slow phases. The probe runs with the garbage
collector off, so that it never pays for collecting the program's objects.
"""
from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

REFERENCE_S = 0.00125  # one probe's time at the reference speed (2-vCPU host, slow phase)
INTERVAL_S = 0.02
MIN_PROBES = 3  # an operation with fewer probes inside is rated by its nearest ones


def reference_work(strings: int = 45) -> int:
    rng = random.Random(12345)
    words = ["".join(rng.choice("01") for _ in range(rng.randrange(4, 24))) for _ in range(strings)]
    trie: list[dict] = [{}]
    for word in words:
        node = 0
        for ch in word:
            nxt = trie[node].get(ch)
            if nxt is None:
                nxt = len(trie)
                trie.append({})
                trie[node][ch] = nxt
            node = nxt
    parent = list(range(len(trie)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, len(trie)):
        j = rng.randrange(i)
        if (i ^ j) % 3 == 0:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(trie))})


class Sampler:
    """Times `reference_work` at a fixed interval of wall time while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at the start of each probe
        self.probes: list[float] = []  # each probe's duration
        self._probing = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self, _signum, _frame) -> None:
        if self._probing:
            return
        self._probing = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.probes.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()
            self._probing = False

    def busy(self, start: float, end: float) -> tuple[float, float]:
        """The wall time from `start` to `end` less the probes' own time in
        it, and the same time at the reference speed."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        own = sum(min(p, end - s) for s, p in zip(self.starts[i:j], self.probes[i:j]))
        wall = max(0.0, end - start - own)
        if j - i < MIN_PROBES:
            i = max(0, i - MIN_PROBES)
            j = min(len(self.probes), j + MIN_PROBES)
        if j == i:
            raise RuntimeError("no host-speed probe was taken")
        return wall, wall * REFERENCE_S / statistics.fmean(self.probes[i:j])
