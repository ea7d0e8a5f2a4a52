"""The four top-level decision problems over focusing configurations.

FOCUS recognition needs two checks: fixing must never destroy
consistency (after compiling the fixed queries away, an instance of the
nullability problem) and determined queries must have model-independent
answers (refuted by exhibiting two intended models that disagree).
EMPTINESS reduces to mixed unsatisfiability over the closed predicates;
CONSISTENCY with atomic closed queries is exact via type elimination;
ENTAILMENT dispatches to the closed-query procedure.

Everything reports three-tier verdicts: positive, negative with an
independently checkable witness, or unknown-at-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .closedworld import (
    closed_extension_exists,
    instance_bound_gap,
    intended_models_bounded,
    nullability,
    NullabilityVerdict,
    pinned_predicates,
    theory_answers,
)
from .entailment import entails_under_closed_queries, EntailmentVerdict
from .errors import ScopeError, Verdict
from .mosaic import mixed_sat, MixedSatVerdict
from .oracle import (
    Instance,
    enumerate_instances,
    enumeration_is_exhaustive,
    evaluate_query,
    split_signature,
)
from .syntax import (
    And,
    Atomic,
    BOT,
    CQ,
    Concept,
    ConceptInclusion,
    Exists,
    ExistsAxiom,
    FocusingConfiguration,
    FreshNames,
    Functional,
    GeneralInclusion,
    Not,
    Ontology,
    Or,
    QueryAtom,
    Role,
    TOP,
    Var,
    instance_query,
    is_atomic_query,
    is_instance_query,
    named,
    nominal,
    normalize,
)

DEFAULT_FRESH_BOUND = 1
DEFAULT_INSTANCE_BOUND = 2

ALWAYS_FALSE = CQ((), (QueryAtom("_false", (Var("x"),)),))


@dataclass(frozen=True)
class Bounds:
    """The search budget of the bounded procedures.

    fresh_bound: fresh constants the model oracle may add to an instance
    when it enumerates model extensions (intended models, theory answers
    of fixed queries).
    instance_bound: the most constants a legal instance may have in the
    searches over legal instances (determinacy, nullability, and the
    emptiness fallback).

    Every other limit is a module constant read at call time:
    `mosaic.TILE_CEILING`, `ineq.DEFAULT_VALUE_CAP`, `ineq._NODE_BUDGET`,
    `closedworld.UNARY_TYPE_CEILING`, `closedworld._CANDIDATE_CEILING`,
    `entailment.SET_CEILING`, `entailment.NTYPE_CEILING` and
    `entailment.ORACLE_FRESH_BOUND`.
    """

    fresh_bound: int = DEFAULT_FRESH_BOUND
    instance_bound: int = DEFAULT_INSTANCE_BOUND


def is_legal(instance: Instance, config: FocusingConfiguration) -> bool:
    return instance.predicates() <= config.schema


def _legal_instances(onto: Ontology, config: FocusingConfiguration, bounds: Bounds):
    """Legal instances with at most bounds.instance_bound constants."""
    concepts, roles = split_signature(
        onto, config.schema, queries=[*config.closed, *config.fixed, *config.determined]
    )
    return enumerate_instances(
        concepts, roles, sorted(onto.constants()), bounds.instance_bound
    )


# ---------------------------------------------------------------------------
# Fixed-query elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedElimination:
    ontology: Ontology
    config: FocusingConfiguration
    collector: str = ""  # the fresh concept naming "some fixed answer is new"

    def discharged(self) -> Tuple[Ontology, FocusingConfiguration]:
        """Freeze the single fixed query to its (empty) theory answers by
        forbidding the collector concept outright."""
        if not self.collector:
            return self.ontology, self.config
        onto = self.ontology.with_axioms(
            [ConceptInclusion((named(self.collector),), (BOT,))]
        )
        cfg = FocusingConfiguration(
            self.config.schema,
            self.config.closed,
            (),
            self.config.determined,
            self.config.name,
        )
        return onto, cfg


def _nominal_or(constants: Sequence[str]) -> Optional[Concept]:
    if not constants:
        return None
    parts = tuple(Atomic(nominal(c)) for c in constants)
    return parts[0] if len(parts) == 1 else Or(parts)


def eliminate_fixed_queries(
    onto: Ontology,
    config: FocusingConfiguration,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
) -> FixedElimination:
    """Compile the fixed queries into one fresh concept with empty theory
    answers: per query, a fresh name captures exactly its new answers,
    and a collector names their union.

    The theory answers (what the theory alone entails) must be exact:
    they are computed on the bounded model stream, so the elimination
    applies only when that enumeration is provably exhaustive.
    """
    if not config.fixed:
        return FixedElimination(onto, config)
    for q in config.fixed:
        if not is_atomic_query(q):
            raise ScopeError("fixed queries must be atomic")
    onto = normalize(onto)
    if not enumeration_is_exhaustive(onto, onto.constants()):
        raise ScopeError("theory answers for fixed queries are not certified exact")
    fresh = FreshNames(onto.concept_names())
    general: List[GeneralInclusion] = []
    per_query: List[str] = []
    for q in sorted(config.fixed, key=str):
        answers = sorted(theory_answers(onto, q, fresh_bound).tuples)
        a_q = named(fresh.mint())
        per_query.append(a_q.name)
        atom = q.atoms[0]
        if atom.is_concept_atom():
            known = _nominal_or([t[0] for t in answers])
            body: Concept = Atomic(named(atom.pred))
            if known is not None:
                body = And((body, Not(known)))
        else:
            role_ = Role(atom.pred, False)
            firsts = sorted({t[0] for t in answers})
            known_first = _nominal_or(firsts)
            anywhere = Exists(role_, Atomic(TOP))
            if known_first is None:
                body = anywhere
            else:
                parts: List[Concept] = [And((Not(known_first), anywhere))]
                for a in firsts:
                    targets = _nominal_or(sorted(t[1] for t in answers if t[0] == a))
                    parts.append(
                        And(
                            (
                                Atomic(nominal(a)),
                                Exists(role_, Not(targets)),
                            )
                        )
                    )
                body = Or(tuple(parts))
        general.append(GeneralInclusion(Atomic(a_q), body))
        general.append(GeneralInclusion(body, Atomic(a_q)))
    collector = named(fresh.mint())
    union = tuple(Atomic(named(n)) for n in per_query)
    body_b: Concept = union[0] if len(union) == 1 else Or(union)
    general.append(GeneralInclusion(Atomic(collector), body_b))
    general.append(GeneralInclusion(body_b, Atomic(collector)))
    out = normalize(
        Ontology(onto.axioms, onto.general_axioms | frozenset(general), onto.name)
    )
    cfg = FocusingConfiguration(
        config.schema,
        config.closed,
        (instance_query(collector.name),),
        config.determined,
        config.name,
    )
    return FixedElimination(out, cfg, collector.name)


# ---------------------------------------------------------------------------
# Determinacy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeterminacyVerdict(Verdict):
    POSITIVE = "holds"  # or "refuted" or "unknown"
    witness: Optional[tuple] = None  # (instance, model1, model2, query, tuple)


def _not_exhaustive(onto: Ontology, bounds: Bounds, queries) -> str:
    """Why the bounded double enumeration may miss a disagreement, or ""
    when it provably covers them all: restriction-closed ontology, enough
    fresh constants for any query match, and instances up to the
    quotient bound."""
    if any(isinstance(a, ExistsAxiom) for a in onto.axioms):
        return "an existential axiom makes the bounded search inexhaustive"
    max_vars = max([0] + [len(q.variables()) for q in queries])
    if bounds.fresh_bound < max_vars:
        return "fresh_bound %d is below a determined query's %d variables" % (
            bounds.fresh_bound,
            max_vars,
        )
    return instance_bound_gap(onto, bounds.instance_bound)


def check_determinacy(
    onto: Ontology, config: FocusingConfiguration, bounds: Bounds = Bounds()
) -> DeterminacyVerdict:
    """Search legal instances and pairs of intended models for an answer
    disagreement on a determined query; "holds" only when the search is
    exhaustive, otherwise "unknown" with the reason it is not."""
    if not config.determined:
        return DeterminacyVerdict("holds")
    onto = normalize(onto)
    if config.fixed:
        elim = eliminate_fixed_queries(onto, config, fresh_bound=bounds.fresh_bound)
        onto, config = elim.discharged()
    for inst in _legal_instances(onto, config, bounds):
        # every disagreement among the models is one with the first model
        first, first_answers = None, []
        for j in intended_models_bounded(onto, config, inst, bounds.fresh_bound):
            if first is None:
                first = j
                first_answers = [evaluate_query(j, q).tuples for q in config.determined]
                continue
            for q, t1 in zip(config.determined, first_answers):
                t2 = evaluate_query(j, q).tuples
                if t1 != t2:
                    return DeterminacyVerdict("refuted", (inst, first, j, q, min(t1 ^ t2)))
    gap = _not_exhaustive(onto, bounds, config.determined)
    return DeterminacyVerdict("unknown", note=gap) if gap else DeterminacyVerdict("holds")


# ---------------------------------------------------------------------------
# FOCUS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FocusVerdict(Verdict):
    POSITIVE = "solution"  # or "not_solution" or "unknown"
    consistency_condition: Optional[NullabilityVerdict] = None
    determinacy_condition: Optional[DeterminacyVerdict] = None


def check_focus(
    onto: Ontology, config: FocusingConfiguration, bounds: Bounds = Bounds()
) -> FocusVerdict:
    """Is the configuration a focusing solution for the theory?

    Condition 1 (fixing never destroys consistency) becomes a
    nullability question about the fixed-query collector; condition 2 is
    the determinacy check on the theory with that collector discharged.
    An unknown verdict's note carries the notes of its unknown conditions.
    """
    onto = normalize(onto)
    cond1: Optional[NullabilityVerdict] = None
    if config.fixed:
        for q in config.closed:
            if not is_instance_query(q):
                raise ScopeError(
                    "condition 1 needs instance queries as the closed set"
                )
        elim = eliminate_fixed_queries(onto, config, fresh_bound=bounds.fresh_bound)
        cond1 = nullability(
            elim.ontology,
            config.schema,
            list(elim.config.closed),
            elim.config.fixed[0],
            instance_bound=bounds.instance_bound,
        )
        if cond1.kind == "not_nullable":
            return FocusVerdict("not_solution", cond1, None)
        onto, config = elim.discharged()
    cond2 = check_determinacy(onto, config, bounds)
    if cond2.kind == "refuted":
        return FocusVerdict("not_solution", cond1, cond2)
    notes = [
        "condition %d: %s" % (i, c.note)
        for i, c in ((1, cond1), (2, cond2))
        if c is not None and c.kind == "unknown"
    ]
    if notes:
        return FocusVerdict("unknown", cond1, cond2, note="; ".join(notes))
    return FocusVerdict("solution", cond1, cond2)


# ---------------------------------------------------------------------------
# EMPTINESS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmptinessVerdict(Verdict):
    POSITIVE = "empty"  # or "nonempty" or "unknown"
    mixed: Optional[MixedSatVerdict] = None
    witness: Optional[Instance] = None


def check_emptiness(
    onto: Ontology, config: FocusingConfiguration, bounds: Bounds = Bounds()
) -> EmptinessVerdict:
    """Are the intended models empty for every legal instance?

    With atomic closed queries and no fixed queries this is exactly
    mixed unsatisfiability over the closed predicates; outside that
    fragment a bounded search can only refute.
    """
    onto = normalize(onto)
    if config.fixed:
        excluded = "fixed queries"
    elif not all(is_atomic_query(q) for q in config.closed):
        excluded = "a non-atomic closed query"
    else:
        sigma = sorted({q.atoms[0].pred for q in config.closed})
        verdict = mixed_sat(onto, sigma)
        kind = {"sat": "nonempty", "unsat": "empty", "unknown": "unknown"}[verdict.kind]
        return EmptinessVerdict(kind, mixed=verdict, note=verdict.note)
    # bounded fallback: look for one consistent legal instance
    for inst in _legal_instances(onto, config, bounds):
        for _ in intended_models_bounded(onto, config, inst, bounds.fresh_bound):
            return EmptinessVerdict("nonempty", witness=inst, note="bounded fallback")
    return EmptinessVerdict(
        "unknown",
        note="no legal instance within instance_bound %d has an intended model within "
        "fresh_bound %d; the exact check excludes %s"
        % (bounds.instance_bound, bounds.fresh_bound, excluded),
    )


# ---------------------------------------------------------------------------
# CONSISTENCY
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyVerdict(Verdict):
    POSITIVE = "consistent"  # or "inconsistent" or "unknown"
    witness: Optional[Instance] = None


def check_consistency(
    onto: Ontology,
    config: FocusingConfiguration,
    base: Instance,
    bounds: Bounds = Bounds(),
) -> ConsistencyVerdict:
    """Does the instance admit an intended model?

    Exact by type elimination (`closed_extension_exists`) when every
    closed query is atomic and the ontology has no functionality.
    Otherwise the bounded intended-model stream can confirm a model but
    never refute one, and the unknown verdict names the feature that
    ruled out the exact check.
    """
    if not is_legal(base, config):
        raise ValueError("instance is not legal for the configuration")
    onto = normalize(onto)
    if config.fixed:
        elim = eliminate_fixed_queries(onto, config, fresh_bound=bounds.fresh_bound)
        onto, config = elim.discharged()
    if any(isinstance(a, Functional) for a in onto.axioms):
        excluded = "functionality"
    elif not all(is_atomic_query(q) for q in config.closed):
        excluded = "a non-atomic closed query"
    else:
        ok = closed_extension_exists(onto, base, pinned_predicates(config.closed))
        return ConsistencyVerdict("consistent" if ok else "inconsistent")
    for j in intended_models_bounded(onto, config, base, bounds.fresh_bound):
        return ConsistencyVerdict("consistent", witness=j, note="bounded witness")
    return ConsistencyVerdict(
        "unknown",
        note="no intended model within fresh_bound %d; the exact check excludes %s"
        % (bounds.fresh_bound, excluded),
    )


# ---------------------------------------------------------------------------
# ENTAILMENT
# ---------------------------------------------------------------------------


def check_entailment(
    onto: Ontology,
    config: FocusingConfiguration,
    base: Instance,
    q: CQ,
    bounds: Bounds = Bounds(),
) -> EntailmentVerdict:
    """Is the Boolean query q true in every intended model?"""
    if not is_legal(base, config):
        raise ValueError("instance is not legal for the configuration")
    if q.arity != 0:
        raise ValueError("the entailment query must be Boolean")
    onto = normalize(onto)
    if config.fixed:
        elim = eliminate_fixed_queries(onto, config, fresh_bound=bounds.fresh_bound)
        onto, config = elim.discharged()
    return entails_under_closed_queries(onto, base, list(config.closed), q)