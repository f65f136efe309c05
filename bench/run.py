#!/usr/bin/env python3
"""dfalab benchmark: one workload per call, a fixed amount of work per run,
every output checked.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload zhang-exact --seed 1 --seconds 20 --trace 0

The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones: wall_s, the median time of one pass over the
workload; peak_rss_mb, the peak resident memory of the workload's process;
setup_s, the median over SETUP_STARTS fresh interpreters of the time from
start, through `import dfalab`, to the workload's graphs being built.
Both times are read at a fixed reference speed of the host, measured while
the passes run (see speed.py and run_speed); the plain wall times go to the
result file. With
--trace 1 they are the per-layer metrics of a traced run (see tracing.py).
Every result is also appended, with its pass times, to .bench_out/results.jsonl
(or --out), and a traced run leaves its spans in .bench_out/trace-*.json.

Compare two result files, one row per workload and end-to-end metric:

    python3 bench/run.py --check BASE.jsonl NEW.jsonl

The number of passes is fixed by --seconds and the workload's nominal pass
time at the reference speed, never by a clock, so every run of one
workload does the same work.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracing import LAYER_UNITS

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

# Nominal seconds of one untraced pass at the reference speed (speed.py).
NOMINAL_PASS_S = {
    "zhang-exact": 3.4,
    "binary-rpni": 2.2,
    "single-roundtrip": 3.8,
    "cli-files": 1.9,
}
MIN_PASSES = 3
SETUP_STARTS = 15  # fresh interpreters timed for setup_s, the measured run included
RUN_LIMIT_S = 170.0  # a run that is not done by then is killed and gives no result

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class RunError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker to its end: its set-up time and its output after `ready`.

    The worker is killed at the deadline, or if this process is interrupted,
    and always waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RunError(f"worker {' '.join(argv[:4])} exited with code {proc.returncode}")
    return setup, rest


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    traced = max(1, passes // 4) if trace else 0

    def setup_only() -> float:
        return run_worker([workload, str(seed), "0", "0", workdir], deadline)[0]

    # Half the set-up-only starts before the measuring one, half after, so
    # that the set-up samples span the run, as the passes do.
    setups = [setup_only() for _ in range(SETUP_STARTS // 2)]
    setup, rest = run_worker([workload, str(seed), str(passes), str(traced), workdir], deadline)
    setups += [setup] + [setup_only() for _ in range(SETUP_STARTS - 1 - SETUP_STARTS // 2)]
    lines = rest.strip().splitlines()
    if not lines:
        raise RunError("worker printed no report")
    report = json.loads(lines[-1])
    report["setup_wall_s"] = setups
    return report


def run_speed(report: dict) -> float:
    """Reference seconds per wall second over the run's untraced passes,
    from the thousands of host-speed probes taken in them. A start is too
    short to sample from inside, so set-up times, which bracket the passes,
    are read at the reference speed with this factor."""
    wall = sum(report["wall_pass_s"])
    return sum(report["pass_s"]) / wall if wall else 1.0


def result_of(report: dict, trace: bool) -> dict:
    if trace:
        layers = report["layers"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(report["pass_s"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(report["setup_wall_s"]) * run_speed(report),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Comparison of two result files


def load_results(path: str) -> dict[str, dict[str, list[float]]]:
    """Untraced end-to-end values by workload and metric."""
    table: dict[str, dict[str, list[float]]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            by_metric = table.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                by_metric.setdefault(name, []).append(m["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check(base_path: str, new_path: str, spec_path: str) -> int:
    with open(spec_path) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    base, new = load_results(base_path), load_results(new_path)
    header = ("workload", "metric", "n", "base q1", "base med", "base q3",
              "new q1", "new med", "new q3", "ratio", "bound", "verdict")
    rows = [header]
    worst = 0
    for workload in sorted(set(base) & set(new)):
        for metric, bound in bounds.items():
            b, n = base[workload].get(metric), new[workload].get(metric)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1]
            ok = ratio <= 1.0 + bound
            worst |= not ok
            rows.append((workload, metric, f"{len(b)}/{len(n)}",
                         *(f"{x:.4g}" for x in bq), *(f"{x:.4g}" for x in nq),
                         f"{ratio:.3f}", f"{1 + bound:.2f}", "ok" if ok else "WORSE"))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"workloads in only one file: {', '.join(missing)}")
    return 1 if worst else 0


# ---------------------------------------------------------------------------


def _terminate(signum, _frame):
    """Turn SIGTERM into an exit that runs the cleanup: kill and wait for the
    worker, remove the work directory."""
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "results.jsonl"),
                    help="result file to append to (default: %(default)s)")
    ap.add_argument("--check", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two result files against the bounds in BENCHMARK.json")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    if args.check:
        return check(*args.check, "BENCHMARK.json")
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join("src", "dfalab", "__init__.py")):
        print("bench: run from the root of a dfalab checkout (src/dfalab not found)", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        if args.trace:
            os.replace(os.path.join(workdir, "trace.json"),
                       os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in (report["errors"] + report["failures"])[:20]:
        print(f"bench: {failure}", file=sys.stderr)
    result = result_of(report, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_s": report["pass_s"],
        "traced_pass_s": report.get("traced_pass_s"),
        "wall_pass_s": report["wall_pass_s"],
        "setup_wall_s": report["setup_wall_s"],
        "result": result,
    }
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
