"""The closed-loop benchmark: one client, one problem at a time.

Each problem gets a fixed deadline, enforced from outside: ``SIGALRM``
raises ``DeadlineExceeded``, a ``BaseException`` that no handler in the
library catches (it catches only ``ResourceCeilingError``, ``ScopeError``
and ``FMOverflow``), and the library holds no caches, so an interrupted
call leaves nothing behind.  A timed-out problem misses the deadline and
counts with its measured time, which is the deadline plus the delay of
the signal.

The timed pass sends every problem of the corpus once and repeats whole
passes while that brings the run closer to the requested seconds.
Verdicts are checked after the pass, outside the timed region.  Before
every problem, ``reference_s`` times a fixed computation outside the
library; the gated times are scaled by its median, so that the machine's
changes of speed mostly cancel (NOTES.md, Metrics).
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import checks
import problems as corpus
from ontofocus import focusing
from tracing import EXTRAS, RESULT_KINDS, Tracer

DEADLINE_S = 1.0
DEFAULT_SEED = 1
SETUP_REPEATS = 9
REFERENCE_POOL = 20000
REFERENCE_STEPS = 1500
REFERENCE_NOMINAL_S = 0.007  # about the median reference time on the VM of NOTES.md
CORPUS_SIZE = {"emptiness": 130, "focus": 140, "query": 130}
HERE = os.path.dirname(os.path.abspath(__file__))
VERDICTS_PATH = os.path.join(HERE, "verdicts.json")
BENCHMARK_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

END_TO_END_UNITS = {
    "problems_per_s": "1/s",
    "geomean_rel": "ref",
    "geomean_ms": "ms",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "decided_share": "ratio",
    "timeout_share": "ratio",
    "failed_share": "ratio",
    "setup_s": "s",
    "setup_raw_s": "s",
    "peak_rss_mb": "MB",
}


def benchmark_spec() -> dict:
    """BENCHMARK.json: the metrics of the final JSON line, with their units.
    The end-to-end ones it lists are gated; the others are printed only
    (see NOTES.md)."""
    with open(BENCHMARK_PATH) as f:
        return json.load(f)


class DeadlineExceeded(BaseException):
    """Raised into a problem that runs past its deadline."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Sending problems
# ---------------------------------------------------------------------------


def _ours(module: str) -> bool:
    return module == "ontofocus" or module.startswith("ontofocus.")


def import_s() -> float:
    """The time to import every ontofocus module that this process has
    loaded, again: the modules are taken out of ``sys.modules``, imported
    afresh (which runs their module code) and put back, so the rest of the
    run keeps the first import.  Timed here rather than in a fresh
    interpreter, whose start-up made the figure swing 2.5 times as far as
    the problems' times on the VM used for the measurements (NOTES.md).
    Modules from outside the package are loaded once per process and not
    timed again."""
    saved = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        t0 = perf_counter()
        for name in sorted(saved):
            importlib.import_module(name)
        return perf_counter() - t0
    finally:
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def setup(workload: str, seed: int, count: int):
    """Generate the corpus and parse its documents; returns (problems, seconds)."""
    t0 = perf_counter()
    problems = [corpus.parse_problem(*g) for g in corpus.generate(workload, seed, count)]
    return problems, perf_counter() - t0


def solve_emptiness(p):
    return focusing.check_emptiness(p.ontology, p.config)


def solve_focus(p):
    return focusing.check_focus(p.ontology, p.config)


def solve_query(p):
    """One request: consistency, then entailment if consistent."""
    consistency = focusing.check_consistency(p.ontology, p.config, p.instance)
    if consistency.kind != "consistent":
        return consistency, None
    return consistency, focusing.check_entailment(p.ontology, p.config, p.instance, p.query)


SOLVERS = {"emptiness": solve_emptiness, "focus": solve_focus, "query": solve_query}


_reference_pool: List[frozenset] = []


def reference_s() -> float:
    """The time of one fixed computation that runs no ontofocus code:
    unions, subset tests and dict inserts over a pool of small sets of
    atoms, the operations the library spends its time in, over more
    memory than a core's caches hold.  It measures the speed of the
    machine at the moment, which on a shared VM changes by up to half
    within minutes (NOTES.md, Metrics).  The pool is built on first use."""
    pool = _reference_pool
    if not pool:
        rng = random.Random(7)
        pool.extend(
            frozenset(("p%d" % rng.randrange(40), ("c%d" % rng.randrange(30),)) for _ in range(6))
            for _ in range(REFERENCE_POOL)
        )
    t0 = perf_counter()
    seen = {}
    for i in range(REFERENCE_STEPS):
        a = pool[(i * 7919) % len(pool)]
        b = pool[(i * 104729) % len(pool)]
        u = a | b
        if a <= u:
            seen[u] = i
    return perf_counter() - t0


@dataclass
class Sample:
    problem: object
    elapsed_s: float
    status: str  # "ok" | "timeout" | "error"
    outcome: object = None
    reference_s: float = 0.0  # reference_s() just before the problem


def send(problem, solve: Callable, tracer: Optional[Tracer] = None) -> Sample:
    ref = reference_s()
    if tracer is not None:
        tracer.begin(problem.index)
    t0 = perf_counter()
    try:
        with deadline(DEADLINE_S):
            outcome = solve(problem)
    except DeadlineExceeded:
        return Sample(problem, perf_counter() - t0, "timeout", None, ref)
    except Exception as exc:  # every problem is in scope: any exception is a failure
        return Sample(problem, perf_counter() - t0, "error", exc, ref)
    return Sample(problem, perf_counter() - t0, "ok", outcome, ref)


def timed_pass(problems, solve, seconds: float, tracer=None, passes: int = 0, between=()):
    """Send the corpus in whole passes; with passes=0, as many as bring
    the wall time nearest to `seconds` (at least one).  The calls in
    `between` are made between problems, spread evenly over the first
    pass, each followed by a garbage collection.  The wall time returned
    leaves out them and the reference computations."""
    gc.collect()
    reference_s()  # builds its pool outside the timed region
    slots = {(k + 1) * len(problems) // (len(between) + 1): call for k, call in enumerate(between)}
    samples: List[Sample] = []
    aside = 0.0
    start = perf_counter()
    done = 0
    while True:
        for i, p in enumerate(problems):
            if done == 0 and i in slots:
                t0 = perf_counter()
                slots[i]()
                gc.collect()
                aside += perf_counter() - t0
            samples.append(send(p, solve, tracer))
        done += 1
        wall = perf_counter() - start - aside - sum(s.reference_s for s in samples)
        if passes == 0:
            passes = max(1, round(seconds / wall))
        if done >= passes:
            return samples, wall, done


# ---------------------------------------------------------------------------
# Checking verdicts
# ---------------------------------------------------------------------------


def load_recorded(workload: str) -> Dict[int, str]:
    if not os.path.exists(VERDICTS_PATH):
        return {}
    with open(VERDICTS_PATH) as f:
        return dict(enumerate(json.load(f).get(workload, {}).get("verdicts", [])))


@dataclass
class Review:
    labels: List[str] = field(default_factory=list)  # one per sample
    failures: List[str] = field(default_factory=list)
    moves: List[str] = field(default_factory=list)


def review(workload: str, samples: List[Sample], recorded: Dict[int, str]) -> Review:
    """Check every verdict's witness and compare it with the recorded one."""
    out = Review()
    for s in samples:
        i = s.problem.index
        if s.status == "error":
            reason = "raised %r" % (s.outcome,)
            lab = "error"
        elif s.status == "timeout":
            reason, lab = None, "timeout"
        else:
            lab = checks.label(workload, s.outcome)
            reason = checks.check(workload, s.problem, s.outcome)
        if reason is None and i in recorded:
            verdict = checks.compare(recorded[i], lab)
            if verdict == "contradicts":
                reason = "verdict %s contradicts the recorded %s" % (lab, recorded[i])
            elif verdict == "moved":
                out.moves.append("problem %d: %s -> %s" % (i, recorded[i], lab))
        if reason is not None:
            out.failures.append("problem %d: %s" % (i, reason))
        out.labels.append(lab)
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def band_mean(values: List[float], lo: float, hi: float) -> float:
    """Mean of the sorted values between the lo and hi quantiles."""
    values = sorted(values)
    a = int(lo * len(values))
    b = max(a + 1, math.ceil(hi * len(values)))
    return statistics.mean(values[a:b])


def end_to_end(samples: List[Sample], wall_s: float, rev: Review, setup_s: float) -> Dict[str, float]:
    """``geomean_ms`` is the geometric mean of the time to a verdict, with
    a timed-out problem counted at the deadline.  Every problem that
    finishes moves it by the ratio of its own change, and a problem that
    crosses the deadline moves it hardly at all, as its time changes only
    from just under to just over the deadline.  ``geomean_rel`` is the
    same in multiples of the median reference time of the pass, which
    takes out most of the machine's changes of speed.  ``setup_s`` is the
    set-up time ``setup_raw_s`` scaled the same way, to a machine whose
    reference computation takes ``REFERENCE_NOMINAL_S``.

    The median is smoothed over the 40th-60th percentiles: a corpus mixes
    fast and slow problem families, and a plain median often falls in the
    gap between two of them and jumps across it from run to run."""
    n = len(samples)
    times = sorted(s.elapsed_s for s in samples)
    capped = [min(t, DEADLINE_S) for t in times]
    completed = sum(1 for s in samples if s.status == "ok")
    decided = sum(1 for lab in rev.labels if checks.is_decided(lab))
    geomean_s = math.exp(statistics.mean(math.log(t) for t in capped))
    ref_s = statistics.median(s.reference_s for s in samples)
    return {
        "problems_per_s": completed / wall_s,
        "geomean_rel": geomean_s / ref_s,
        "geomean_ms": 1e3 * geomean_s,
        "p50_ms": 1e3 * band_mean(times, 0.4, 0.6),
        "p90_ms": 1e3 * statistics.quantiles(times, n=10)[8] if n > 1 else 1e3 * times[0],
        "decided_share": decided / n,
        "timeout_share": sum(1 for s in samples if s.status == "timeout") / n,
        "failed_share": len(rev.failures) / n,
        "setup_s": setup_s * REFERENCE_NOMINAL_S / ref_s,
        "setup_raw_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_value(tracer: Tracer, name: str) -> float:
    """One per-layer metric of the traced run, read by its name:
    ``<layer>.self_s``, or ``<layer>.<function>.<stat>`` where stat is
    ``calls``, ``s`` (busy time), ``yielded``, ``s_<kind>`` (busy time of
    the calls with that result kind), ``<count>`` or ``<count>_share``
    (per call), for the counts and kinds tracing.EXTRAS and
    tracing.RESULT_KINDS declare.  An unknown name raises KeyError."""
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_s":
        return tracer.layer_self_s()[parts[0]]
    if len(parts) != 3 or ".".join(parts[:2]) not in tracer.stats:
        raise KeyError(name)
    key, stat_name = ".".join(parts[:2]), parts[2]
    st = tracer.stats[key]
    kinds = set(RESULT_KINDS.get(key, {}).values())
    counts = set(EXTRAS.get(key, ())) | kinds
    if stat_name == "calls":
        return st.calls
    if stat_name == "s":
        return st.ns / 1e9
    if stat_name == "yielded":
        return st.yielded
    if stat_name.startswith("s_") and stat_name[2:] in kinds:
        return st.by_result_ns.get(stat_name[2:], 0) / 1e9
    if stat_name in counts:
        return st.extra.get(stat_name, 0)
    if stat_name.endswith("_share") and stat_name[: -len("_share")] in counts:
        return st.extra.get(stat_name[: -len("_share")], 0) / max(1, st.calls)
    raise KeyError(name)


def per_layer(
    tracer: Tracer, problem_s: float, overhead: float, setup_self_s: Dict[str, float]
) -> Dict[str, tuple]:
    """Every per-layer metric BENCHMARK.json lists, as (value, unit).

    ``trace.coverage`` is the share of problem time spent in the layers
    under ``focusing``: the self time of every other traced layer while
    the problems ran (the layers' self time less ``setup_self_s``, that
    of the traced set-up) over the problems' wall time.  Time that no
    traced function accounts for lands in the self time of its caller, so
    a gap in tracing below the ``focusing`` facade, or work the facade
    does itself, lowers it."""
    below = sum(
        v - setup_self_s.get(k, 0.0) for k, v in tracer.layer_self_s().items() if k != "focusing"
    )
    trace = {"trace.coverage": below / problem_s, "trace.overhead": overhead}
    out = {}
    for m in benchmark_spec()["per_layer"]:
        name = m["name"]
        out[name] = (trace[name] if name in trace else layer_value(tracer, name), m["unit"])
    return out


def record(workload: str, seed: int, labels: List[str]) -> None:
    """Rewrite one workload's recorded verdicts (one label per corpus index)."""
    data = {}
    if os.path.exists(VERDICTS_PATH):
        with open(VERDICTS_PATH) as f:
            data = json.load(f)
    data[workload] = {
        "seed": seed,
        "deadline_s": DEADLINE_S,
        "timed_out": [i for i, lab in enumerate(labels) if lab == "timeout"],
        "verdicts": labels,
    }
    with open(VERDICTS_PATH, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
