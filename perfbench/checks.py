"""Checks of the verdicts the benchmark receives.

A verdict that carries a witness is checked against the problem:

* a refuted determinacy condition: each of the two models is a model of
  the ontology that extends the witness instance, keeps the answers to
  the closed queries, and both agree on the fixed queries but answer the
  determined query differently;
* ``not_entailed``: the counter-model is a model, extends the database,
  keeps the answers to the closed queries and falsifies the query;
* ``nonempty``: a DL-Lite mosaic must solve its rebuilt inequation
  system (``check_solution``, not the solver that produced it); a general
  mosaic must pass ``check_mosaic``, and without a mosaic the empty
  instance must be a model.  These two repeat assertions that
  ``mosaic.mixed_sat`` makes itself, so they catch a witness changed
  after the verdict, not a defect of ``check_mosaic`` or ``is_model``;
* a bounded ``consistent``: the witness is a model extending the database.

Model checks use ``oracle.is_model`` on the problem's own (unnormalized)
ontology, and answers use ``oracle.evaluate_query``.

``check`` returns ``None`` when the verdict passes, else a reason.
"""

from __future__ import annotations

from typing import Optional

from ontofocus.ineq import check_solution
from ontofocus.mosaic import (
    LiteTile,
    build_lite_mosaic_system,
    check_mosaic,
    eliminate_closed_roles,
)
from ontofocus.oracle import EMPTY, evaluate_query, is_model
from ontofocus.syntax import normalize

UNDECIDED = ("unknown", "timeout", "error")


def label(workload: str, outcome) -> str:
    """The verdict of one problem as a short label.  A query request
    reads ``<consistency>`` or ``consistent/<entailment>``."""
    if workload != "query":
        return outcome.kind
    consistency, entailment = outcome
    if entailment is None:
        return consistency.kind
    return "%s/%s" % (consistency.kind, entailment.kind)


def is_decided(lab: str) -> bool:
    return not any(part in UNDECIDED for part in lab.split("/"))


def compare(recorded: str, got: str) -> str:
    """"same", "moved" (one side undecided) or "contradicts"."""
    if recorded == got:
        return "same"
    for a, b in zip(recorded.split("/"), got.split("/")):
        if a != b and a not in UNDECIDED and b not in UNDECIDED:
            return "contradicts"
    return "moved"


def _emptiness(problem, verdict) -> Optional[str]:
    if verdict.kind != "nonempty":
        return None
    onto = normalize(problem.ontology)
    mixed = verdict.mixed
    if mixed is None:
        return "nonempty verdict without a mixed-satisfiability witness"
    sigma = {q.atoms[0].pred for q in problem.config.closed}
    onto2, sigma2 = eliminate_closed_roles(onto, sigma)
    if mixed.mosaic is not None:
        return None if check_mosaic(onto2, sigma2, mixed.mosaic) else "mosaic rejected"
    if mixed.lite_mosaic is not None:
        tiles = sorted(mixed.lite_mosaic, key=LiteTile.sort_key)
        system, var_of = build_lite_mosaic_system(onto2, sigma2, tiles)
        assignment = {var_of[t]: n for t, n in mixed.lite_mosaic.items()}
        return None if check_solution(system, assignment) else "DL-Lite mosaic rejected"
    return None if is_model(EMPTY, onto) else "the empty instance is not a model"


def _focus(problem, verdict) -> Optional[str]:
    det = verdict.determinacy_condition
    if det is None or det.kind != "refuted":
        return None
    inst, j1, j2, q, diff = det.witness
    config = problem.config
    for j in (j1, j2):
        if not inst.atoms <= j.atoms or not is_model(j, problem.ontology):
            return "determinacy witness is not a model extending its instance"
        for cq in config.closed:
            if evaluate_query(j, cq) != evaluate_query(inst, cq):
                return "determinacy witness changes the answers to a closed query"
    for cq in config.fixed:
        if evaluate_query(j1, cq) != evaluate_query(j2, cq):
            return "determinacy witness models disagree on a fixed query"
    if q not in config.determined:
        return "determinacy witness names a query that is not determined"
    a1, a2 = evaluate_query(j1, q).tuples, evaluate_query(j2, q).tuples
    if a1 == a2 or diff not in a1 ^ a2:
        return "determinacy witness models agree on the determined query"
    return None


def _query(problem, outcome) -> Optional[str]:
    consistency, entailment = outcome
    onto, base = problem.ontology, problem.instance
    j = consistency.witness
    if consistency.kind == "consistent" and j is not None:
        if not (base.atoms <= j.atoms and is_model(j, onto)):
            return "consistency witness is not a model extending the database"
    if entailment is not None and entailment.kind == "not_entailed":
        j = entailment.counter_model
        if j is None or not base.atoms <= j.atoms or not is_model(j, onto):
            return "counter-model is not a model extending the database"
        for cq in problem.config.closed:
            if evaluate_query(j, cq) != evaluate_query(base, cq):
                return "counter-model changes the answers to a closed query"
        if evaluate_query(j, problem.query).holds():
            return "counter-model satisfies the query"
    return None


_CHECKS = {"emptiness": _emptiness, "focus": _focus, "query": _query}


def check(workload: str, problem, outcome) -> Optional[str]:
    return _CHECKS[workload](problem, outcome)
