"""Benchmark of the ontofocus decision procedures.

Run from the root of a checkout::

    python3 perfbench/run.py --workload emptiness --seed 1 --seconds 30 --trace 0

Workloads: ``emptiness``, ``focus`` and ``query`` (see BENCHMARK.json and
perfbench/NOTES.md).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
pass and writes its spans to ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record`` sends the corpus of the default seed once and rewrites that
workload's recorded verdicts in perfbench/verdicts.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("emptiness", "focus", "query"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record", action="store_true")
    return ap.parse_args(argv)


def _report(metrics: dict, notes: list) -> None:
    for name, (value, unit) in metrics.items():
        print("%-48s %16.6f %s" % (name, value, unit))
    for line in notes:
        print(line)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ontofocus", "__init__.py")):
        print("perfbench: no ontofocus sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness  # imports ontofocus and the benchmark's own modules
    from tracing import Tracer

    # set-up: importing ontofocus, generating the corpus and parsing its
    # documents.  Once here and again between the problems of the timed
    # pass, outside its timed region: the speed of a shared VM changes
    # within seconds, and set-ups spread over the run sample all of it.
    count = harness.CORPUS_SIZE[args.workload]
    setup_times = []

    def set_up():
        corpus, dt = harness.setup(args.workload, args.seed, count)
        setup_times.append(harness.import_s() + dt)
        return corpus

    problems = set_up()
    solve = harness.SOLVERS[args.workload]

    if args.record:
        if args.seed != harness.DEFAULT_SEED:
            print("perfbench: verdicts are recorded at seed %d" % harness.DEFAULT_SEED, file=sys.stderr)
            return 2
        samples, _, _ = harness.timed_pass(problems, solve, 0, passes=1)
        rev = harness.review(args.workload, samples, {})
        if rev.failures:
            print("\n".join(rev.failures), file=sys.stderr)
            return 1
        harness.record(args.workload, args.seed, rev.labels)
        print("recorded %d verdicts of %s" % (len(rev.labels), args.workload))
        return 0

    recorded = harness.load_recorded(args.workload)
    samples, wall, passes = harness.timed_pass(
        problems, solve, args.seconds, passes=1 if args.trace else 0,
        between=[set_up] * (harness.SETUP_REPEATS - 1),
    )
    setup_s = statistics.median(setup_times)
    rev = harness.review(args.workload, samples, recorded)
    failures, moves = list(rev.failures), list(rev.moves)
    attempted = len(samples)
    if args.trace:
        tracer = Tracer()
        with tracer:
            harness.setup(args.workload, args.seed, count)  # times the parser
            setup_self_s = tracer.layer_self_s()
            traced, traced_wall, _ = harness.timed_pass(
                problems, solve, 0, tracer=tracer, passes=1
            )
        trev = harness.review(args.workload, traced, recorded)
        failures += trev.failures
        attempted += len(traced)
        problem_s = sum(s.elapsed_s for s in traced)
        metrics = harness.per_layer(tracer, problem_s, traced_wall / wall, setup_self_s)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        values = harness.end_to_end(samples, wall, rev, setup_s)
        metrics = {k: (v, harness.END_TO_END_UNITS[k]) for k, v in values.items()}

    timeouts = sorted({s.problem.index for s in samples if s.status == "timeout"})
    notes = [
        "problems sent: %d in %d pass(es) of %d, wall %.3f s, seed %d"
        % (len(samples), passes, count, wall, args.seed),
        "timed out: %s" % (timeouts,),
        "verdict moves (undecided <-> decided): %d" % len(moves),
    ]
    notes += moves[:20] + ["FAILED %s" % f for f in failures[:20]]
    _report(metrics, notes)
    reported = {m["name"] for m in harness.benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name in reported
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
