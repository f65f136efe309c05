"""One benchmark process: set a workload up, then run its passes.

Started by run.py, one process at a time, as

    python3 bench/worker.py WORKLOAD SEED PASSES TRACED_PASSES WORKDIR

It prints `ready` once `dfalab` is imported and the workload's graphs are
built, which is where run.py stops the set-up clock; with PASSES = 0 it
exits there. Otherwise it prints one JSON line when the passes are done.

A pass runs every operation of the workload once, in an order drawn from
the seed, and takes the sum of the operations' times; checks run between
operations, off the clock. Before each pass (and, for `cli-files`, before
each operation) every `functools` cache in the `dfalab` modules is
cleared, so no pass or invocation reuses a sample generated by an earlier
one. The host-speed sampler (speed.py) runs through the untraced passes,
whose times it reads at the reference speed. With TRACED_PASSES > 0, that
many further passes run under the tracer, with the sampler stopped so that
its probes neither lengthen nor allocate inside the spans, and the spans go
to WORKDIR/trace.json.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dfalab  # noqa: E402

if not os.path.abspath(dfalab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"dfalab was imported from {dfalab.__file__}, not from this checkout's src")

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def program_caches() -> list:
    """cache_clear of every memoized function in the dfalab modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "dfalab" or name.startswith("dfalab."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
    return list(found.values())


class Runner:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.caches = program_caches()
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised
        self.failures: list[str] = []  # checks that failed on operations that did not
        self.sampler: speed.Sampler | None = None

    def clear_caches(self) -> None:
        for clear in self.caches:
            clear()

    def one_pass(self, index: int) -> tuple[float, float]:
        """The pass's wall time, less the probes', and the same time at the
        reference speed (equal when no sampler runs)."""
        self.clear_caches()
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin_pass(index)
        spans = []
        for inst in self.workload.order(self.rng):
            for op in self.workload.ops(inst):
                if op.fresh:
                    self.clear_caches()
                span = self.timed(op, inst.name)
                if span is not None:
                    spans.append(span)
        if self.sampler is None:
            wall = sum(end - start for start, end in spans)
            return wall, wall
        # Rated once the pass is over, when every span has probes after it.
        rated = [self.sampler.busy(*span) for span in spans]
        return sum(w for w, _ in rated), sum(s for _, s in rated)

    def timed(self, op, instance: str) -> tuple[float, float] | None:
        """Run one operation and check its output: the perf_counter span of
        the run, or None if it raised."""
        self.attempted += 1
        span = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.instance = instance
            if op.span is not None:
                span = self.tracer.span(*op.span)
        start = time.perf_counter()
        try:
            with span:
                out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            self.failed += 1
            self.errors.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return None
        end = time.perf_counter()
        verdicts = checks.Verdicts(op.label)
        try:
            op.check(out, verdicts)
        except Exception as exc:  # an output the check cannot even read is wrong
            verdicts.expect(False, f"check raised {type(exc).__name__}: {exc}")
        self.failures += verdicts.failures
        return start, end


def main(argv: list[str]) -> int:
    name, seed, passes, traced_passes, workdir = argv
    seed, passes, traced_passes = int(seed), int(passes), int(traced_passes)
    workload = workloads.WORKLOADS[name](workdir)
    print("ready", flush=True)
    try:
        if passes == 0:
            return 0
        runner = Runner(workload, seed)
        runner.sampler = sampler = speed.Sampler()
        sampler.start()
        try:
            wall, scaled = zip(*(runner.one_pass(i) for i in range(passes)))
        finally:
            sampler.stop()  # an alarm after the handler is gone would kill the process
        runner.sampler = None
        report = {"pass_s": scaled, "wall_pass_s": wall}
        if traced_passes:
            runner.tracer = tracer = tracing.Tracer(name)
            tracer.install()
            try:
                traced = [runner.one_pass(passes + i)[0] for i in range(traced_passes)]
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics()
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(wall)
            report["layers"] = layers
            report["traced_pass_s"] = traced
            tracer.write(os.path.join(workdir, "trace.json"))
        report.update(
            attempted=runner.attempted,
            failed=runner.failed,
            errors=runner.errors,
            failures=runner.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(report), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
