"""Closed-query semantics, consistency with closed predicates, nullability.

CWA membership keeps the query answers of an extension pinned to those
of the database; FIX membership pins them to what the theory alone
entails.  Consistency with closed concepts and closed roles is decided
exactly by type elimination: guess the restriction of a model to the
database constants (plus nominal constants), keep every closed-role edge
on a base pair of that role, then iteratively discard anonymous element
types whose existential obligations cannot be served.  Nullability
quantifies that check over all legal databases up to a size bound (the
exact bound is exponential in the vocabulary; smaller bounds degrade
the verdict to unknown rather than guessing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set

from .errors import DialectError, ResourceCeilingError, Verdict
from .oracle import (
    AnswerSet,
    EMPTY,
    Instance,
    _consistent_types,
    _element_mem,
    _pointwise_ok,
    certain_answers_bounded,
    enumerate_extensions,
    enumerate_instances,
    evaluate_query,
    is_model,
    split_signature,
)
from .syntax import (
    BOT,
    CQ,
    ConceptInclusion,
    ExistsAxiom,
    ForallAxiom,
    FocusingConfiguration,
    Functional,
    Ontology,
    Role,
    TOP,
    is_atomic_query,
    is_instance_query,
    named,
    role_closure,
)

UNARY_TYPE_CEILING = 2 ** 12  # unary types over the concepts of a closed extension


# ---------------------------------------------------------------------------
# CWA / FIX / MOD
# ---------------------------------------------------------------------------


def in_cwa(onto: Ontology, base: Instance, queries, extension: Instance) -> bool:
    """Extension of base, model of onto, no new answers to the queries."""
    if not base.atoms <= extension.atoms:
        return False
    if not is_model(extension, onto):
        return False
    for q in queries:
        if evaluate_query(base, q) != evaluate_query(extension, q):
            return False
    return True


def in_fix(onto, base: Instance, queries, extension: Instance, fixed_answers) -> bool:
    """Extension of base, model of onto, query answers frozen to what the
    theory alone entails over the empty base (supplied in fixed_answers)."""
    if not base.atoms <= extension.atoms:
        return False
    if not is_model(extension, onto):
        return False
    for q in queries:
        if q not in fixed_answers:
            raise ValueError("missing base answers for fixed query %s" % (q,))
        if evaluate_query(extension, q) != fixed_answers[q]:
            return False
    return True


def theory_answers(onto: Ontology, q, fresh_bound: int = 1) -> AnswerSet:
    """ans over the empty database, computed on the bounded model stream."""
    return certain_answers_bounded(onto, EMPTY, q, fresh_bound)


def pinned_predicates(closed) -> frozenset:
    """(predicate, arity) of each atomic closed query: CWA pins its atoms to the base's."""
    return frozenset((q.atoms[0].pred, len(q.atoms[0].args)) for q in closed if is_atomic_query(q))


def intended_models_bounded(
    onto: Ontology,
    config: FocusingConfiguration,
    base: Instance,
    fresh_bound: int = 1,
) -> Iterator[Instance]:
    """Bounded stream of intended models: CWA- and FIX-members among the
    bounded model extensions of the base instance, in their order.  The
    pool leaves out the atoms that `in_cwa` would reject (`closed` of
    `enumerate_extensions`), and its models extend the base, so only the
    answers are compared, with those of the base and the theory.
    """
    expected = [(q, evaluate_query(base, q)) for q in config.closed]
    expected += [(q, theory_answers(onto, q, fresh_bound)) for q in config.fixed]
    queries = [*config.closed, *config.fixed, *config.determined]
    pinned = pinned_predicates(config.closed)
    for j in enumerate_extensions(onto, base, fresh_bound, queries, pinned):
        if all(evaluate_query(j, q) == answers for q, answers in expected):
            yield j


# ---------------------------------------------------------------------------
# Type elimination for consistency with closed predicates
# ---------------------------------------------------------------------------


def _link_ok(onto, clo, src_mem, r: Role, dst_mem) -> bool:
    """Can an edge carrying r and its super-roles connect the two sides
    without violating a value restriction?"""
    edge_roles = clo.get(r, frozenset({r}))
    for a in onto.axioms:
        if not isinstance(a, ForallAxiom):
            continue
        if a.role in edge_roles and src_mem(a.lhs) and not dst_mem(a.filler):
            return False
        if a.role.inverse() in edge_roles and dst_mem(a.lhs) and not src_mem(a.filler):
            return False
    return True


def _closed_room(clo, base: Instance, closed_roles, r: Role) -> Optional[frozenset]:
    """The pairs an edge carrying r may join: those where the base already
    holds every closed role the edge carries (r⁻ included), or None when
    it carries no closed role."""
    room = None
    for p in clo.get(r, frozenset({r})):
        if p.name in closed_roles:
            pairs = base.role_pairs(p)
            room = pairs if room is None else room & pairs
    return room


_CANDIDATE_CEILING = 300000


def closed_extension_exists(onto: Ontology, base: Instance, closed) -> bool:
    """Is there a model J of onto with base ⊆ J that keeps every closed
    predicate to its base atoms?

    `closed` holds (predicate, arity) pairs, as `pinned_predicates`
    builds them: A^J = A^base for each closed concept A (arity 1) and
    s^J = s^base for each closed role s (arity 2).

    Exact for normalized ontologies without functionality.  The
    restriction of J to the database-plus-nominal constants is searched
    as one unary type per constant.  An edge carrying a closed role s or
    s⁻ (through the role hierarchy) may join only a base pair of that
    role, so anonymous elements and nominals outside the base get no such
    edge.  Given the types, taking every edge that the value restrictions
    and the closed roles allow dominates any other choice: an allowed edge
    breaks no axiom, since functionality is excluded and each role it
    carries already joins that pair in the base or is open, and it can
    only serve more existentials.  So edges need no search.  The
    anonymous part is then type-eliminated: an anonymous element serves
    its obligations and those of the constants only over edges that carry
    no closed role.
    """
    if not onto.is_normalized():
        raise DialectError("closed_extension_exists requires a normalized ontology")
    if any(isinstance(a, Functional) for a in onto.axioms):
        raise DialectError("functionality is outside the supported fragment")
    closed_concepts = frozenset(p for p, k in closed if k == 1)
    closed_roles = frozenset(p for p, k in closed if k == 2)
    clo = role_closure(onto)
    concepts = sorted(onto.concept_names() | base.predicates_unary() | closed_concepts)
    role_names = onto.role_names() | base.predicates_binary()
    roles = sorted({Role(n, False) for n in role_names} | {Role(n, True) for n in role_names})
    pinned = sorted(onto.constants() - base.adom())
    domain = sorted(base.adom()) + pinned

    if 2 ** len(concepts) > UNARY_TYPE_CEILING:
        raise ResourceCeilingError("type space exceeds closedworld.UNARY_TYPE_CEILING")

    inclusions = [a for a in onto.sorted_axioms() if isinstance(a, ConceptInclusion)]
    exists_axioms = [a for a in onto.sorted_axioms() if isinstance(a, ExistsAxiom)]
    room = {r: _closed_room(clo, base, closed_roles, r) for r in roles}

    # a base edge carries its super-roles into J: each closed one must be
    # in the base already, whatever the types
    for r in roles:
        if not r.inverted and room[r] is not None and not base.role_pairs(r) <= room[r]:
            return False

    # anonymous elements, by the membership function of their type: no
    # closed concepts, no nominal identity, and no obligation that only
    # an edge carrying a closed role could serve
    open_concepts = [c for c in concepts if c not in closed_concepts]
    closed_obligations = [a for a in exists_axioms if room[a.role] is not None]
    anon_mems = [
        m
        for m in (_element_mem(None, t, True) for t in _consistent_types(open_concepts, inclusions))
        if not any(m(a.lhs) for a in closed_obligations)
    ]

    # per-constant options: (type, active); database constants are active
    # and keep their closed memberships exactly
    options: List[List[tuple]] = []
    base_adom = base.adom()
    for c in domain:
        base_type = base.concept_memberships(c)
        opts = []
        for k in range(len(open_concepts) + 1):
            for chosen in itertools.combinations(open_concepts, k):
                t = frozenset(chosen) | (base_type & closed_concepts)
                if not base_type <= t:
                    continue
                if c in base_adom:
                    variants = [(t, True)]
                elif t == base_type:  # pinned nominal without atoms
                    variants = [(t, False), (t, True)]
                else:
                    variants = [(t, True)]
                for t2, act in variants:
                    if _pointwise_ok(_element_mem(c, t2, act), inclusions):
                        opts.append((t2, act))
        if not opts:
            return False
        options.append(sorted(set(opts), key=lambda ta: (sorted(ta[0]), ta[1])))

    if not roles:
        # no edges anywhere: constants are independent; an active option
        # needs a concept atom to live in the active domain
        return all(
            any((not act) or t for t, act in opts) for opts in options
        )

    combos = 1
    for opts in options:
        combos *= len(opts)
    if combos > _CANDIDATE_CEILING:
        raise ResourceCeilingError("restriction search exceeds closedworld._CANDIDATE_CEILING")

    for assignment in itertools.product(*options):
        mems = {
            c: _element_mem(c, t, act)
            for c, (t, act) in zip(domain, assignment)
        }
        actives = {c for c, (_, act) in zip(domain, assignment) if act}
        if _candidate_works(
            onto, clo, base, domain, roles, room, mems, actives, anon_mems, exists_axioms
        ):
            return True
    return False


def _candidate_works(
    onto, clo, base, domain, roles, room, mems, actives, anon_mems, exists_axioms
) -> bool:
    # the base edges, between active database constants, must themselves
    # be compatible
    for r in roles:
        if r.inverted:
            continue
        for (x, y) in base.role_pairs(r):
            if not _link_ok(onto, clo, mems[x], r, mems[y]):
                return False

    # maximal compatible edge set, used for fulfilled obligations
    pairs: Dict[Role, Set[tuple]] = {}
    for r in roles:
        pairs[r] = {
            (x, y)
            for x in sorted(actives)
            for y in sorted(actives)
            if (room[r] is None or (x, y) in room[r])
            and _link_ok(onto, clo, mems[x], r, mems[y])
        }

    # an active constant must end up with an atom: a named concept, an
    # allowed incident edge, or a triggered existential
    for c in sorted(actives):
        if c in base.adom() or any(mems[c](named(n)) for n in onto.concept_names()):
            continue
        if any(
            (c, y) in pairs[r] or (y, c) in pairs[r]
            for r in roles
            for y in sorted(actives)
        ):
            continue
        if any(mems[c](a.lhs) for a in exists_axioms):
            continue
        return False
    # an inactive constant cannot carry obligations
    for c in domain:
        if c in actives:
            continue
        if any(mems[c](a.lhs) for a in exists_axioms):
            return False

    # type elimination over the anonymous part: an anonymous type stays
    # while a surviving type or an active constant serves each obligation
    constant_mems = [mems[d] for d in sorted(actives)]
    survivors = list(anon_mems)
    changed = True
    while changed:
        remaining = [
            tm
            for tm in survivors
            if all(
                any(
                    m(a.filler) and _link_ok(onto, clo, tm, a.role, m)
                    for m in survivors + constant_mems
                )
                for a in exists_axioms
                if tm(a.lhs)
            )
        ]
        changed = len(remaining) < len(survivors)
        survivors = remaining

    # every active element's unfulfilled obligations need a witness: a
    # constant over an allowed edge, or an anonymous survivor over an edge
    # that carries no closed role
    for c in sorted(actives):
        for a in exists_axioms:
            if not mems[c](a.lhs):
                continue
            if any(mems[y](a.filler) for (x, y) in pairs[a.role] if x == c):
                continue
            if room[a.role] is None and any(
                m(a.filler) and _link_ok(onto, clo, mems[c], a.role, m) for m in survivors
            ):
                continue
            return False
    return True


# ---------------------------------------------------------------------------
# Nullability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullabilityVerdict(Verdict):
    POSITIVE = "nullable"  # or "not_nullable" or "unknown"
    witness: Optional[Instance] = None
    paper_bound: int = 0


def query_suppression_axiom(q: CQ):
    """The axiom forcing a query's answers empty: concept queries get
    A -> Bot; role queries forbid any edge via Top -> all r : Bot."""
    if not is_atomic_query(q):
        raise ValueError("suppression axioms exist for atomic queries only")
    atom = q.atoms[0]
    if atom.is_concept_atom():
        return ConceptInclusion((named(atom.pred),), (BOT,))
    return ForallAxiom(TOP, Role(atom.pred, False), BOT)


def exact_instance_bound(onto: Ontology) -> int:
    """Witness instances need at most 2^|simple concepts| constants."""
    return 2 ** len(onto.simple_concepts())


def instance_bound_gap(onto: Ontology, instance_bound: int) -> str:
    """"" when instance_bound reaches `exact_instance_bound`, else the
    note of the unknown verdict that the shortfall leaves."""
    bound = exact_instance_bound(onto)
    if instance_bound >= bound:
        return ""
    return "instance_bound %d is below the witness bound %d = 2^|simple concepts|" % (
        instance_bound,
        bound,
    )


def nullability(
    onto: Ontology,
    sigma: Iterable[str],
    closed_queries,
    q: CQ,
    instance_bound: int,
) -> NullabilityVerdict:
    """Do all legal databases admit an intended extension in which q has
    no answers?

    Positive answers are exact only when instance_bound reaches the
    exponential witness bound; below it they degrade to unknown.
    Negative answers always carry a concrete witness database.
    """
    if not onto.is_normalized():
        raise DialectError("nullability requires a normalized ontology")
    if any(isinstance(a, Functional) for a in onto.axioms):
        raise DialectError("functionality is outside the supported fragment")
    for cq_ in closed_queries:
        if not is_instance_query(cq_):
            raise DialectError("nullability takes closed concept queries only")
    closed = pinned_predicates(closed_queries)
    sigma_concepts, sigma_roles = split_signature(
        onto, sigma, queries=[*closed_queries, q]
    )
    suppressed = onto.with_axioms([query_suppression_axiom(q)])

    bound = exact_instance_bound(onto)
    for inst in enumerate_instances(
        sigma_concepts, sigma_roles, sorted(onto.constants()), instance_bound
    ):
        if not closed_extension_exists(onto, inst, closed):
            continue  # no intended extension at all: vacuously fine
        if closed_extension_exists(suppressed, inst, closed):
            continue
        return NullabilityVerdict("not_nullable", inst, bound)
    gap = instance_bound_gap(onto, instance_bound)
    return NullabilityVerdict("unknown" if gap else "nullable", None, bound, note=gap)
