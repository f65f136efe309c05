"""Span tracing for the benchmark's traced run.

The tracer times each layer from outside: it replaces public functions of
the `dfalab` modules with wrappers that open a span around the call, in
every module namespace that holds a reference to them. A span records its
name, start, end, parent span, workload, pass and instance; spans stay in
memory and are written out when the run ends. Per-layer memory comes from
`tracemalloc`, which only the traced run starts, and only for the duration
of the spans that report a peak: their times include its cost, which is
small for the few large allocations those functions make.

Each per-layer metric is the total for one pass over the workload. A span
adds to its metric only when no enclosing span feeds the same metric, so a
layer function that calls another of its own layer (`automaton_to_json`
calling `dumps_json`) is counted once.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
import tracemalloc
from typing import Callable, NamedTuple

MB = float(1 << 20)

# Every per-layer metric with its unit. A metric reads 0 on a workload
# that never calls the layer's functions.
LAYER_UNITS = {
    "solver.decide_unsat_s": "s",
    "solver.decide_sat_s": "s",
    "solver.search_steps": "count",
    "solver.steps_per_s": "1/s",
    "solver.rpni_s": "s",
    "solver.rpni_states": "count",
    "reductions.single_string_s": "s",
    "reductions.single_string_peak_mb": "MB",
    "reductions.zhang_sample_s": "s",
    "reductions.binary_sample_s": "s",
    "reductions.sample_strings": "count",
    "automata.pta_s": "s",
    "automata.pta_states": "count",
    "automata.pta_peak_mb": "MB",
    "automata.consistency_s": "s",
    "automata.machine_sample_s": "s",
    "witnesses.build_s": "s",
    "witnesses.extract_s": "s",
    "witnesses.ratio_report_s": "s",
    "graphs.chromatic_s": "s",
    "formats.write_s": "s",
    "formats.parse_s": "s",
    "formats.bytes": "bytes",
    "cli.reduce_s": "s",
    "cli.solve_s": "s",
    "cli.witness_s": "s",
    "cli.extract_s": "s",
    "cli.convert_s": "s",
    "cli.verify_s": "s",
    "cli.dot_s": "s",
    "trace.overhead_s": "s",
}


class Probe(NamedTuple):
    module: str
    function: str
    metric: str  # time metric; also decides which enclosing spans count
    counts: Callable | None = None  # (result, args, seconds, seen) -> {metric: increment}
    peak: str | None = None  # metric taking the span's peak traced memory


def _decide(outcome, _args, seconds, _seen):
    verdict = "sat" if outcome.status.value == "sat" else "unsat"
    return {f"solver.decide_{verdict}_s": seconds, "solver.search_steps": outcome.states_explored}


def _generated(generator, sample_of=lambda result: result):
    """The strings of each distinct (generator, arguments) pair, once per
    pass, whether the generator memoizes or regenerates on a repeat call."""

    def count(result, args, _seconds, seen):
        key = (generator, args)
        if key in seen:
            return {}
        seen.add(key)
        return {"reductions.sample_strings": sample_of(result).size()}

    return count


def _states(metric):
    return lambda result, _a, _s, _seen: {metric: result.num_states}


def _written(result, _args, _seconds, _seen):
    return {"formats.bytes": len(result)}


PROBES = [
    Probe("solver", "exists_consistent", "solver.decide_s", _decide),
    Probe("solver", "rpni", "solver.rpni_s", _states("solver.rpni_states")),
    Probe("reductions", "zhang_sample", "reductions.zhang_sample_s", _generated("zhang")),
    Probe("reductions", "binary_sample", "reductions.binary_sample_s", _generated("binary")),
    Probe("reductions", "single_string", "reductions.single_string_s",
          _generated("single", lambda result: result[1]), "reductions.single_string_peak_mb"),
    Probe("automata", "prefix_tree_acceptor", "automata.pta_s", _states("automata.pta_states"),
          "automata.pta_peak_mb"),
    Probe("automata", "consistency_violations", "automata.consistency_s"),
    Probe("automata", "dfa_sample_to_machine_sample", "automata.machine_sample_s"),
    Probe("graphs", "chromatic_number", "graphs.chromatic_s"),
    Probe("witnesses", "ratio_report", "witnesses.ratio_report_s"),
]
PROBES += [
    Probe("witnesses", f, "witnesses.build_s")
    for f in ("zhang_dfa_from_coloring", "binary_dfa_from_coloring",
              "single_dfa_from_coloring", "two_chain_dfa")
]
PROBES += [
    Probe("witnesses", f, "witnesses.extract_s")
    for f in ("coloring_from_zhang_dfa", "coloring_from_binary_dfa", "coloring_from_single_dfa")
]
PROBES += [
    Probe("formats", f, "formats.write_s", _written)
    for f in ("sample_to_abbadingo", "automaton_to_json", "machine_sample_to_text",
              "automaton_to_dot", "dumps_json")
]
PROBES += [
    Probe("formats", f, "formats.parse_s")
    for f in ("sample_from_abbadingo", "automaton_from_json", "machine_sample_from_text")
]


class _Frame:
    __slots__ = ("metric", "index", "start", "mem_start", "peak")

    def __init__(self, metric: str, index: int):
        self.metric = metric
        self.index = index
        self.mem_start = None  # traced bytes at entry, for spans that measure memory
        self.peak = 0


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self.stack: list[_Frame] = []
        self.memory_stack: list[_Frame] = []
        self.pass_index = -1
        self.instance = ""
        self.passes: list[dict[str, float]] = []
        self._seen: set = set()
        self._patched: list = []
        self.t0 = time.perf_counter()

    # -- passes and spans --------------------------------------------------

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.passes.append({})
        self._seen = set()

    def enter(self, name: str, metric: str, memory: bool = False) -> _Frame:
        parent_index = self.stack[-1].index if self.stack else -1
        frame = _Frame(metric, len(self.spans))
        self.spans.append([name, 0.0, 0.0, parent_index, self.pass_index, self.instance])
        if memory:
            # tracemalloc runs only inside spans that report memory, so the
            # allocation-heavy merge search elsewhere is not slowed by it
            if self.memory_stack:
                outer = self.memory_stack[-1]
                outer.peak = max(outer.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
            frame.mem_start = frame.peak = tracemalloc.get_traced_memory()[0]
            self.memory_stack.append(frame)
        self.stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame, counts=None, peak_metric=None, result=None, args=()) -> None:
        end = time.perf_counter()
        self.stack.pop()
        if frame.mem_start is not None:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            self.memory_stack.pop()
            if self.memory_stack:
                outer = self.memory_stack[-1]
                outer.peak = max(outer.peak, frame.peak)
            else:
                tracemalloc.stop()
        span = self.spans[frame.index]
        span[1] = frame.start - self.t0
        span[2] = end - self.t0
        if any(f.metric == frame.metric for f in self.stack):
            return
        totals = self.passes[-1]
        seconds = end - frame.start
        totals[frame.metric] = totals.get(frame.metric, 0.0) + seconds
        if counts is not None and result is not None:
            for key, value in counts(result, args, seconds, self._seen).items():
                totals[key] = totals.get(key, 0) + value
        if peak_metric is not None:
            mb = (frame.peak - frame.mem_start) / MB
            totals[peak_metric] = max(totals.get(peak_metric, 0.0), mb)

    @contextlib.contextmanager
    def span(self, name: str, metric: str):
        """A span the benchmark opens itself."""
        frame = self.enter(name, metric)
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrapping the program's functions ----------------------------------

    def _wrap(self, fn, probe: Probe):
        name = f"{probe.module}.{probe.function}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name, probe.metric, probe.peak is not None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.exit(frame, probe.counts, probe.peak, result, args)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dfalab" or n.startswith("dfalab.")]
        for probe in PROBES:
            original = getattr(sys.modules[f"dfalab.{probe.module}"], probe.function)
            wrapped = self._wrap(original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced passes of each metric's per-pass total."""
        out = {}
        for metric in LAYER_UNITS:
            if metric == "trace.overhead_s":
                continue
            out[metric] = statistics.median(_per_pass(p, metric) for p in self.passes)
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "pass", "instance")
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": self.workload,
                    "spans": [dict(zip(keys, s)) for s in self.spans],
                },
                fh,
            )


def _per_pass(totals: dict, metric: str) -> float:
    if metric == "solver.steps_per_s":
        busy = totals.get("solver.decide_s", 0.0)
        return totals.get("solver.search_steps", 0) / busy if busy else 0.0
    return totals.get(metric, 0.0)
