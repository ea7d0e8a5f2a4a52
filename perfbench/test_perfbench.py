"""Tests of the benchmark itself: python -m pytest perfbench"""

import dataclasses
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import harness  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402
from ontofocus import closedworld, focusing, mosaic, oracle  # noqa: E402
from ontofocus.oracle import Instance  # noqa: E402
from ontofocus.syntax import (  # noqa: E402
    CQ,
    ConceptInclusion,
    ExistsAxiom,
    FocusingConfiguration,
    Ontology,
    QueryAtom,
    Var,
    instance_query,
    named,
    nominal,
    role,
)
from tracing import LAYERS, Tracer  # noqa: E402

x = Var("x")


def _problem(index, onto, config, instance=None, query=None):
    return problems.Problem(index, "hand", onto, config, instance, query)


def _output(capsys):
    """The report's metric names and the final JSON line."""
    lines = capsys.readouterr().out.strip().splitlines()
    return {line.split()[0] for line in lines[:-1]}, json.loads(lines[-1])


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_tiny_run_emits_every_metric(monkeypatch, capsys):
    monkeypatch.setitem(harness.CORPUS_SIZE, "query", 2)
    spec = _benchmark_json()
    assert run.main(["--workload", "query", "--seconds", "0", "--trace", "0"]) == 0
    printed, out = _output(capsys)
    assert set(harness.END_TO_END_UNITS) <= printed
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]

    assert run.main(["--workload", "query", "--seconds", "0", "--trace", "1"]) == 0
    printed, out = _output(capsys)
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert out["metrics"]["trace.coverage"]["value"] > 0
    for m in spec["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_unknown_layer_metric_names_are_refused():
    tracer = Tracer()
    with tracer:
        pass
    assert harness.layer_value(tracer, "oracle.is_model.accept_share") == 0
    for name in ("oracle.is_model.tiles", "oracle.no_such_function.calls",
                 "nowhere.self_s", "ineq.solve_enriched.s_maybe", "trace.coverage"):
        with pytest.raises(KeyError):
            harness.layer_value(tracer, name)


def test_slow_problem_is_cut_at_the_deadline(monkeypatch):
    monkeypatch.setattr(harness, "DEADLINE_S", 0.2)
    fast = _problem(0, Ontology.of(), FocusingConfiguration.of(schema={"A"}))
    slow = _problem(1, fast.ontology, fast.config)

    def solve(p):
        while p.index == 1:
            pass
        return harness.solve_emptiness(p)

    t0 = time.perf_counter()
    samples, wall, passes = harness.timed_pass([fast, slow], solve, 0)
    assert time.perf_counter() - t0 < 2.0
    assert [s.status for s in samples] == ["ok", "timeout"]
    assert samples[1].elapsed_s >= 0.2
    rev = harness.review("emptiness", samples, {})
    metrics = harness.end_to_end(samples, wall, rev, 0.1)
    assert metrics["timeout_share"] == 0.5
    assert metrics["decided_share"] == 0.5
    assert metrics["failed_share"] == 0.0


def _send(workload, p):
    sample = harness.send(p, harness.SOLVERS[workload])
    assert sample.status == "ok"
    assert checks.check(workload, p, sample.outcome) is None
    return sample


def test_tampered_witnesses_are_failures():
    a = named("A")
    closed_a = FocusingConfiguration.of(schema={"A"}, closed=[instance_query("A")])
    tampered = []

    # nonempty: a DL-Lite mosaic and a general mosaic, both zeroed
    lite = _send("emptiness", _problem(0, Ontology.of([ConceptInclusion((nominal("c"),), (a,))]), closed_a))
    mixed = lite.outcome.mixed
    zero = {t: mosaic.ZERO for t in mixed.lite_mosaic}
    tampered.append(dataclasses.replace(lite, outcome=dataclasses.replace(
        lite.outcome, mixed=dataclasses.replace(mixed, lite_mosaic=zero))))
    general = _send("emptiness", _problem(
        1, Ontology.of([ExistsAxiom(nominal("c"), role("r"), nominal("d"))]), closed_a))
    mixed = general.outcome.mixed
    zero = mosaic.Mosaic.of({t: mosaic.ZERO for t, _ in mixed.mosaic.multiplicity})
    tampered.append(dataclasses.replace(general, outcome=dataclasses.replace(
        general.outcome, mixed=dataclasses.replace(mixed, mosaic=zero))))

    # refuted determinacy: both models made the same
    refuted = _send("focus", _problem(
        2,
        Ontology.of([ConceptInclusion((nominal("c"),), (a,))]),
        FocusingConfiguration.of(determined=[CQ((), (QueryAtom("B", (x,)),))]),
    ))
    det = refuted.outcome.determinacy_condition
    assert det.kind == "refuted"
    inst, j1, j2, q, diff = det.witness

    def with_witness(*witness):
        return dataclasses.replace(refuted, outcome=dataclasses.replace(
            refuted.outcome, determinacy_condition=dataclasses.replace(det, witness=witness)))

    tampered.append(with_witness(inst, j1, j1, q, diff))
    # refuted determinacy: the second model no longer satisfies {c} ⊑ A
    not_a_model = dataclasses.replace(j2, atoms=j2.atoms - {("A", ("c",))})
    assert ("A", ("c",)) in j2.atoms
    tampered.append(with_witness(inst, j1, not_a_model, q, diff))

    # not_entailed: a counter-model that satisfies the query
    base = Instance.of(("A", "a"))
    query = CQ((), (QueryAtom("B", (x,)),), "goal")
    request = _send("query", _problem(3, Ontology.of(), FocusingConfiguration.of(schema={"A"}), base, query))
    consistency, entailment = request.outcome
    assert entailment.kind == "not_entailed"
    bad = entailment.counter_model.with_atoms([("B", ("a",))])
    tampered.append(dataclasses.replace(
        request, outcome=(consistency, dataclasses.replace(entailment, counter_model=bad))))

    workloads = ("emptiness", "emptiness", "focus", "focus", "query")
    for workload, good, bad in zip(workloads, [lite, general, refuted, refuted, request], tampered):
        assert not harness.review(workload, [good], {}).failures
        rev = harness.review(workload, [good, bad], {})
        assert len(rev.failures) == 1, workload
        assert harness.end_to_end([good, bad], 1.0, rev, 0.1)["failed_share"] == 0.5


def test_contradicting_recorded_verdict_is_a_failure():
    p = _problem(0, Ontology.of([ConceptInclusion((named("A"),), (named("B"),))]),
                 FocusingConfiguration.of(schema={"A"}))
    sample = harness.send(p, harness.solve_emptiness)
    assert sample.outcome.kind == "nonempty"
    assert harness.review("emptiness", [sample], {0: "empty"}).failures
    moved = harness.review("emptiness", [sample], {0: "unknown"})
    assert not moved.failures and moved.moves


def _snapshot():
    import importlib

    out = {}
    for name in ("ontofocus",) + tuple("ontofocus." + layer for layer in LAYERS):
        mod = importlib.import_module(name)
        out.update({(name, k): id(v) for k, v in vars(mod).items()})
    return out


def test_tracing_leaves_ontofocus_unchanged():
    before = _snapshot()
    original_is_model = closedworld.is_model
    original_mixed_sat = mosaic.mixed_sat
    ps, _ = harness.setup("focus", 1, 2)
    tracer = Tracer()
    with tracer:
        assert closedworld.is_model is not original_is_model
        assert closedworld.is_model.__wrapped__ is original_is_model
        assert focusing.mixed_sat.__wrapped__ is original_mixed_sat
        assert oracle.is_model is closedworld.is_model
        samples, _, _ = harness.timed_pass(ps, harness.solve_focus, 0, tracer=tracer)
    assert _snapshot() == before
    assert closedworld.is_model is original_is_model
    assert tracer.stat("focusing.check_focus").calls == 2
    assert tracer.spans and all(sp.busy >= 0 for sp in tracer.spans)
    assert sum(tracer.layer_self_s().values()) > 0


def test_import_timing_keeps_the_first_import():
    before = _snapshot()
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("ontofocus")}
    assert harness.import_s() > 0
    assert {name: mod for name, mod in sys.modules.items() if name.startswith("ontofocus")} == modules
    assert _snapshot() == before
    assert harness.focusing is sys.modules["ontofocus.focusing"]


def test_corpus_is_seeded_and_isomorphic_across_seeds():
    one = problems.generate("emptiness", 1, 6)
    again = problems.generate("emptiness", 1, 6)
    other = problems.generate("emptiness", 2, 6)
    assert [d for _, _, d, _ in one] == [d for _, _, d, _ in again]
    assert [f for _, f, _, _ in one] == [f for _, f, _, _ in other]
    assert [d for _, _, d, _ in one] != [d for _, _, d, _ in other]
    for g in one + other:
        problems.parse_problem(*g)
