"""The benchmark's own tests: every output check passes on real outputs and
fails on a corrupted one, and the tracer and BENCHMARK.json agree.

Run with `python3 -m pytest bench` from the root of the checkout.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import dfalab as d  # noqa: E402

import checks as ck  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def failures(workload, inst, out) -> list[str]:
    v = ck.Verdicts(inst.name)
    workload.check(inst, out, v)
    return v.failures


def flip_accepting(dfa, state=None):
    state = dfa.initial if state is None else state
    return dataclasses.replace(dfa, accepting=dfa.accepting ^ {state})


def merge_adjacent(coloring, edge):
    u, v = edge
    colors = list(coloring.colors)
    colors[v] = colors[u]
    return d.Coloring(tuple(colors), coloring.num_colors)


def test_zhang_checks_accept_real_output_and_reject_corruptions():
    inst = wl.Instance("demo5", wl.DEMO5)
    out = wl.ZhangExact.run(inst)
    assert failures(wl.ZhangExact, inst, out) == []

    k_star, coloring, m_star, dfa, extracted = out
    flipped = (k_star, coloring, m_star, flip_accepting(dfa), extracted)
    assert any("consistent by replay" in f for f in failures(wl.ZhangExact, inst, flipped))

    edge = ck.canonical_edges(inst.graph)[0]
    improper = (k_star, merge_adjacent(coloring, edge), m_star, dfa, extracted)
    assert any("chi-coloring is proper" in f for f in failures(wl.ZhangExact, inst, improper))
    improper = (k_star, coloring, m_star, dfa, merge_adjacent(extracted, edge))
    assert any("extracted coloring" in f for f in failures(wl.ZhangExact, inst, improper))

    wrong_m = (k_star, coloring, m_star + 1, dfa, extracted)
    assert any("chi + 1" in f for f in failures(wl.ZhangExact, inst, wrong_m))


def test_binary_checks_accept_real_output_and_reject_corruptions():
    inst = wl._reduced("k3", d.Graph.complete(3), 3)
    out = wl.BinaryRpni.run(inst)
    assert failures(wl.BinaryRpni, inst, out) == []

    sample, pta, heuristic, report, witness = out
    flipped = (sample, pta, flip_accepting(heuristic), report, witness)
    assert any("rpni output is consistent" in f for f in failures(wl.BinaryRpni, inst, flipped))
    flipped = (sample, pta, heuristic, report, flip_accepting(witness))
    assert any("forward witness" in f for f in failures(wl.BinaryRpni, inst, flipped))
    inflated = (sample, pta, heuristic, dataclasses.replace(report, k_hat=report.k_hat + 1), witness)
    assert any("ratio report" in f for f in failures(wl.BinaryRpni, inst, inflated))


def test_single_checks_accept_real_output_and_reject_corruptions():
    inst = wl._reduced("p4", d.Graph.path(4), 2)
    out = list(wl.SingleRoundtrip.run(inst))
    assert failures(wl.SingleRoundtrip, inst, out) == []

    longer = list(out)
    longer[0] = out[0] + (0,)
    assert any("|Str|" in f for f in failures(wl.SingleRoundtrip, inst, longer))

    flipped = list(out)
    flipped[3] = flip_accepting(out[3], out[3].transitions[out[3].initial][0])
    assert any("the witness is consistent" in f for f in failures(wl.SingleRoundtrip, inst, flipped))

    improper = list(out)
    improper[7] = merge_adjacent(out[7], ck.canonical_edges(inst.graph)[0])
    assert any("extracted coloring" in f for f in failures(wl.SingleRoundtrip, inst, improper))

    word, labels = ck.single_expected(inst.graph, ck.legal_params(inst.graph, 2))
    relabeled = list(labels)
    relabeled[5] = not relabeled[5]
    assert not ck.is_prefix_sample(out[1].positives, out[1].negatives, word, relabeled)


def test_cli_checks_accept_real_output_and_reject_corruptions(tmp_path):
    workload = wl.CliFiles(str(tmp_path))
    try:
        inst = workload.instances[0]
        ops = workload.ops(inst)
        for op in ops:
            v = ck.Verdicts(op.label)
            op.check(op.run(), v)
            assert v.failures == []

        v = ck.Verdicts("exit code")
        ops[0].check((2, ""), v)
        assert any("documented 0" in f for f in v.failures)

        sample = tmp_path / "cli" / inst.name / "z.abb"
        lines = sample.read_text().split("\n")
        lines[1] = ("0" if lines[1][0] == "1" else "1") + lines[1][1:]
        sample.write_text("\n".join(lines))
        v = ck.Verdicts("flipped label")
        ops[0].check((0, ""), v)
        assert any("parses back" in f for f in v.failures)

        coloring = tmp_path / "cli" / inst.name / "zc.json"
        doc = json.loads(coloring.read_text())
        u, w = ck.canonical_edges(inst.graph)[0]
        doc["colors"][w] = doc["colors"][u]
        coloring.write_text(json.dumps(doc))
        extract = next(op for op in ops if "extract --kind zhang" in op.label)
        v = ck.Verdicts("improper coloring")
        extract.check((0, ""), v)
        assert any("proper coloring" in f for f in v.failures)
    finally:
        workload.close()
    assert not (tmp_path / "cli").exists()


def test_max_clique_and_chromatic_agree_with_the_library():
    for seed in range(6):
        g = d.Graph.gnp(7, 0.5, seed)
        edges = ck.canonical_edges(g)
        clique = ck.max_clique(g.num_vertices, edges)
        chi = ck.brute_chromatic(g.num_vertices, edges)
        assert ck.is_clique(clique, edges)
        assert len(clique) <= chi == d.chromatic_number(g)[0]
    assert len(ck.max_clique(5, ck.canonical_edges(d.Graph.complete(5)))) == 5


def test_tracer_reports_layers_and_restores_the_program():
    original = d.single_string
    for clear in worker.program_caches():
        clear()
    tracer = tracing.Tracer("single-roundtrip")
    tracer.install()
    try:
        assert d.single_string is not original
        tracer.begin_pass(0)
        out = wl.SingleRoundtrip.run(wl._reduced("p4", d.Graph.path(4), 2))
    finally:
        tracer.uninstall()
    assert d.single_string is original
    metrics = tracer.layer_metrics()
    assert metrics["reductions.sample_strings"] == len(out[0]) + 1
    assert metrics["automata.pta_states"] == len(out[0]) + 1
    assert metrics["reductions.single_string_peak_mb"] > 0
    assert metrics["reductions.single_string_s"] > 0
    assert metrics["solver.rpni_s"] == 0
    names = {s[0] for s in tracer.spans}
    assert {"reductions.single_string", "witnesses.two_chain_dfa"} <= names


def test_sampler_removes_probe_time_and_reads_at_reference_speed():
    sampler = speed.Sampler()
    # Probes at twice the reference time: the host runs at half speed.
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.probes = [2 * speed.REFERENCE_S] * 5
    wall, scaled = sampler.busy(0.5, 3.5)
    assert abs(wall - (3.0 - 3 * 2 * speed.REFERENCE_S)) < 1e-12
    assert abs(scaled - wall / 2) < 1e-12
    # No probe inside: the nearest ones rate the span.
    sampler.probes = [speed.REFERENCE_S] * 4 + [3 * speed.REFERENCE_S]
    wall, scaled = sampler.busy(4.5, 4.6)
    assert abs(wall - 0.1) < 1e-12
    assert abs(scaled - 0.1 * 3 / 5) < 1e-12  # probes 2-4 average 5/3 of the reference


def test_sampler_probes_while_started():
    sampler = speed.Sampler()
    sampler.start()
    try:
        deadline = speed.time.perf_counter() + 0.2
        while speed.time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.probes) >= 3
    assert all(p > 0 for p in sampler.probes)


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS) == set(run.NOMINAL_PASS_S)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
