"""Entailment under closed conjunctive queries.

The question "does q hold in every CWA-member extension of the
database" reduces to the non-existence of a counter-model among
tree-shaped extensions: a shared restriction of the model to the
database constants plus a family of bounded-depth witness trees (the
n-types), mutually consistent (coherent).  Membership in the CWA class
itself is rewritten into a union of conjunctive queries capturing bad
matches of the closed queries, so a counter-model is a coherent family
whose union avoids the whole rewritten disjunction.

Marker concepts distinguish database constants from fresh ones inside
the rewriting; they are materialized at evaluation time relative to the
database's active domain, never stored.

Verdict discipline: Entailed is claimed only when the family
enumeration is provably complete (no ceiling hit); NotEntailed is
claimed only when the candidate family is confirmed by the brute-force
oracle to extend to an actual CWA counter-model; everything else
degrades to unknown-at-bound.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .closedworld import in_cwa, pinned_predicates
from .errors import DialectError, ResourceCeilingError, Verdict
from .oracle import (
    Instance,
    _axiom_holds,
    _consistent_types,
    _element_mem,
    _witnessed,
    candidate_atoms,
    enumerate_extensions,
    evaluate_query,
    simple_extension,
)
from .syntax import (
    CQ,
    ConceptInclusion,
    ExistsAxiom,
    ForallAxiom,
    Functional,
    Ontology,
    QueryAtom,
    Role,
    RoleInclusion,
    UCQ,
    closure_of,
    role_closure,
)

ADOM_MARKER = "_adom"
FRESH_MARKER = "_outside"

SET_CEILING = 10 ** 4  # base restrictions per database, and coherent-family search steps
NTYPE_CEILING = 4000  # n-types per database restriction
ORACLE_FRESH_BOUND = 2  # fresh constants the oracle adds when confirming a counter-model
NODE_PREFIX = "_n"


# ---------------------------------------------------------------------------
# Marker-aware evaluation and the bad-match rewriting
# ---------------------------------------------------------------------------


def evaluate_with_markers(inst: Instance, query, adom0: Iterable[str]):
    """Evaluate with the database markers materialized: _adom holds the
    given constants, _outside everything else in the instance."""
    adom0 = frozenset(adom0)
    extra = [(ADOM_MARKER, (c,)) for c in adom0]
    extra += [(FRESH_MARKER, (c,)) for c in inst.adom() - adom0]
    return evaluate_query(inst.with_atoms(extra), query)


def build_bad_match_ucq(closed_queries: Sequence[CQ], base: Instance) -> UCQ:
    """One Boolean disjunct per bad match of a closed query: a match on
    database constants that was not an answer over the database, or a
    match sending an answer variable outside the database."""
    disjuncts: List[CQ] = []
    adom = sorted(base.adom())
    for q in closed_queries:
        answers = evaluate_query(base, q).tuples
        for tup in itertools.product(adom, repeat=q.arity):
            if tup in answers:
                continue
            binding = dict(zip(q.answer_vars, tup))
            atoms = tuple(
                QueryAtom(
                    a.pred,
                    tuple(binding.get(t, t) for t in a.args),
                )
                for a in q.atoms
            )
            disjuncts.append(CQ((), atoms))
        for v in q.answer_vars:
            atoms = (QueryAtom(FRESH_MARKER, (v,)),) + tuple(q.atoms)
            disjuncts.append(CQ((), atoms))
    return UCQ(tuple(disjuncts))


# ---------------------------------------------------------------------------
# Unary types
# ---------------------------------------------------------------------------


def build_type_links(onto: Ontology) -> FrozenSet[FrozenSet[str]]:
    """The unary types (sets of concept names) that a fresh element can
    carry: those satisfying every concept inclusion pointwise.

    A nominal on the right of an inclusion counts as false, since a fresh
    element is no database constant; the constants' own types are checked,
    nominals included, by `_base_candidates`.  Value restrictions and role
    inclusions are checked on whole n-types by `enumerate_ntypes`, and
    counter-models are confirmed by the oracle, so no model search runs
    here.
    """
    if any(isinstance(a, Functional) for a in onto.axioms):
        raise DialectError("the entailment fragment excludes functionality")
    inclusions = [a for a in onto.sorted_axioms() if isinstance(a, ConceptInclusion)]
    return frozenset(_consistent_types(onto.concept_names(), inclusions))


# ---------------------------------------------------------------------------
# n-types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NType:
    """A shared database restriction plus one witness tree of depth <= n.

    Tree nodes are reserved fresh constants; the root may receive edges
    from database constants, and tree edges may land on database
    constants (leaves).
    """

    base: Instance
    root: str
    tree_atoms: frozenset

    _tree = _successors = None  # memos, as the indexes of `Instance`

    def combined(self) -> Instance:
        return Instance(self.base.atoms | self.tree_atoms)

    @property
    def tree(self) -> Instance:
        """The tree atoms as an instance, for its index of unary types."""
        tree = self._tree
        if tree is None:
            tree = self.__dict__["_tree"] = Instance(self.tree_atoms)
        return tree

    def successors(self) -> Tuple[str, ...]:
        """The root's successors in the order of the sorted tree atoms,
        computed on the first call."""
        out = self._successors
        if out is None:
            out = self.__dict__["_successors"] = tuple(dict.fromkeys(
                args[1] for _, args in sorted(self.tree_atoms)
                if len(args) == 2 and args[0] == self.root and args[1] != self.root
            ))
        return out


def _base_candidates(onto: Ontology, base: Instance, extra_concepts) -> Iterator[Instance]:
    """Supersets of the database over its own constants that could be
    restrictions of models: every axiom but the existential ones holds."""
    concepts = sorted(onto.concept_names() | base.predicates_unary() | set(extra_concepts))
    roles = sorted(onto.role_names() | base.predicates_binary())
    dom = sorted(base.adom())
    pool = [
        a for a in candidate_atoms(concepts, roles, dom) if a not in base.atoms
    ]
    if 2 ** len(pool) > SET_CEILING:
        raise ResourceCeilingError("base restriction space exceeds entailment.SET_CEILING")
    checked = [a for a in onto.sorted_axioms() if not isinstance(a, ExistsAxiom)]
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            j0 = base.with_atoms(combo)
            if all(_axiom_holds(j0, a) for a in checked):
                yield j0


def _edge(clo, r: Role, source: str, target: str) -> Set[tuple]:
    """The atoms of an r-edge from source to target and of its super-roles."""
    return {
        (s.name, (target, source) if s.inverted else (source, target))
        for s in closure_of([r], clo)
    }


def enumerate_ntypes(
    onto: Ontology,
    base_restriction: Instance,
    adom0: FrozenSet[str],
    types: FrozenSet[FrozenSet[str]],
) -> List[NType]:
    """All depth-1 witness trees over a fixed database restriction.

    The root is existentially saturated, children are typed fresh leaves
    (`_n2`, `_n3`, ...) or database constants, and the root may take
    labelled in-edges from database constants.  Fresh nodes carry a type
    from `types` (see `build_type_links`).  A tree is kept, once, when
    the value restrictions and role inclusions hold on its union with
    the restriction.  Trees are built only from parts that pass: each
    witness option and in-edge is checked once per root type, with the
    restriction and the root's atoms.  This is exact.  The restriction
    satisfies every axiom but the existential ones (`_base_candidates`);
    a violation shows in one edge atom and the unary atoms of its ends; a
    tree adds no unary atom to a database constant and no edge between
    two of them; and each part's edges are closed under `role_closure`.
    Validity does not depend on a fresh child's name, so it is checked
    under `_n2`.
    """
    clo = role_closure(onto)
    ordered_types = sorted(types, key=sorted)
    fresh_mem = {t: _element_mem(None, t, True) for t in ordered_types}
    exists_axioms = [a for a in onto.sorted_axioms() if isinstance(a, ExistsAxiom)]
    tree_axioms = [
        a for a in onto.sorted_axioms() if isinstance(a, (ForallAxiom, RoleInclusion))
    ]
    roles = sorted(Role(nm, inv) for nm in onto.role_names() for inv in (False, True))
    constants = sorted(adom0)
    root = NODE_PREFIX + "1"
    # optional in-edges from database constants into the root
    in_edges = {(c, r): _edge(clo, r, c, root) for c in constants for r in roles}

    def option_atoms(option, child: str) -> Set[tuple]:
        kind, r, target = option
        if kind == "const":
            return _edge(clo, r, root, target)
        return _edge(clo, r, root, child) | {(cname, (child,)) for cname in target}

    out: Dict[frozenset, NType] = {}  # by tree atoms: equal trees are kept once
    count = 0  # trees kept, each duplicate counted again, as the ceiling counts them
    for root_t in ordered_types:
        root_atoms = {(a, (root,)) for a in root_t}

        def valid(part: Set[tuple]) -> bool:
            j = Instance(base_restriction.atoms.union(root_atoms, part))
            return all(_axiom_holds(j, a) for a in tree_axioms)

        witness_options = []
        for a in exists_axioms:
            if not fresh_mem[root_t](a.lhs):
                continue
            # a fresh child leaf of a consistent type, or a database constant
            filler = simple_extension(base_restriction, a.filler)
            opts = [("fresh", a.role, t2) for t2 in ordered_types if fresh_mem[t2](a.filler)]
            opts += [("const", a.role, c) for c in constants if c in filler]
            witness_options.append(
                [o for o in opts if valid(option_atoms(o, NODE_PREFIX + "2"))]
            )
        edge_pool = [e for e, atoms in in_edges.items() if valid(atoms)]
        count += math.prod(map(len, witness_options)) << len(edge_pool)
        if count > NTYPE_CEILING:
            raise ResourceCeilingError("n-types exceed entailment.NTYPE_CEILING")
        for combo in itertools.product(*witness_options):
            atoms = set(root_atoms)
            children = (NODE_PREFIX + str(i) for i in itertools.count(2))
            for option in combo:
                atoms |= option_atoms(option, next(children) if option[0] == "fresh" else "")
            for k in range(len(edge_pool) + 1):
                for chosen in itertools.combinations(edge_pool, k):
                    tree = frozenset(atoms.union(*(in_edges[e] for e in chosen)))
                    if tree not in out:
                        out[tree] = NType(base_restriction, root, tree)
    return list(out.values())


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------


def check_coherence(onto: Ontology, members: Sequence[NType], adom0) -> bool:
    """Shared base, root-witnessing of database existentials, and
    boundary matching of depth-one subtrees.  The tests' reference for
    `minimal_coherent_sets`, whose families pass it by construction."""
    if not members:
        return False
    base = members[0].base
    if any(m.base != base for m in members):
        return False

    # database constants get their witnesses from the base or from roots
    for c, a in _open_obligations(onto, base, adom0):
        if not any(_root_witnesses(m, c, a) for m in members):
            return False

    # every root successor pattern is matched by some member's root
    for m in members:
        for d in m.successors():
            if d in base.adom():
                continue
            if not any(_boundary_match(m, d, m2) for m2 in members):
                return False
    return True


def _open_obligations(onto: Ontology, inst: Instance, adom0) -> Iterator[Tuple[str, ExistsAxiom]]:
    """The existential axioms whose left side holds at a database constant
    of inst but which inst does not fulfil there, as (constant, axiom)."""
    unfulfilled = [
        (a, simple_extension(inst, a.lhs) - _witnessed(inst, a))
        for a in onto.sorted_axioms()
        if isinstance(a, ExistsAxiom)
    ]
    for c in sorted(adom0):
        for a, open_at in unfulfilled:
            if c in open_at:
                yield c, a


def _root_witnesses(m: NType, c: str, axiom: ExistsAxiom) -> bool:
    j = m.combined()
    return (c, m.root) in j.role_pairs(axiom.role) and m.root in simple_extension(j, axiom.filler)


def _boundary_match(m: NType, d: str, m2: NType) -> bool:
    """At depth one the boundary comparison reduces to the unary level:
    successor d must carry exactly the unary atoms of m2's root.  (The
    fringe below the cut is invisible on both sides; comparing edge sets
    would wrongly separate continuations whose witnesses live in the
    database.)  Weaker matching only admits more candidate families,
    which keeps the positive verdict sound."""
    return m.tree.concept_memberships(d) == m2.tree.concept_memberships(m2.root)


def minimal_coherent_sets(
    onto: Ontology,
    candidates: Sequence[NType],
    adom0,
) -> Tuple[List[tuple], bool]:
    """Subset-minimal coherent families, by breadth-first growth.

    Returns (families, complete): complete is False when the ceiling
    truncated the search.
    """
    base = candidates[0].base if candidates else None
    found: Dict[frozenset, tuple] = {}  # by the members' tree atoms
    complete = True
    # seeds: cover each database obligation with one member; the empty
    # family seeds the no-obligation case
    obligations = [] if base is None else list(_open_obligations(onto, base, adom0))
    option_lists = []
    for (c, a) in obligations:
        opts = [m for m in candidates if _root_witnesses(m, c, a)]
        if not opts:
            return [], True  # no coherent family exists for this base
        option_lists.append(opts)

    budget = SET_CEILING
    seeds: List[frozenset] = []
    for combo in itertools.product(*option_lists):
        seeds.append(frozenset(combo))
        budget -= 1
        if budget <= 0:
            complete = False
            break

    # the gap search asks for the candidates whose root carries a given
    # unary type (`_boundary_match`)
    by_root_type: Dict[FrozenSet[str], List[NType]] = {}
    for m2 in candidates:
        by_root_type.setdefault(m2.tree.concept_memberships(m2.root), []).append(m2)

    for seed in seeds:
        frontier = deque([seed])
        local_seen = set()
        while frontier:
            fam = frontier.popleft()
            if fam in local_seen:
                continue
            local_seen.add(fam)
            budget -= 1
            if budget <= 0:
                complete = False
                break
            members = sorted(fam, key=lambda m: sorted(m.tree_atoms))
            # find one unmatched successor pattern
            gap = next(
                (
                    (m, d) for m in members for d in m.successors()
                    if d not in base.adom() and not any(_boundary_match(m, d, m2) for m2 in members)
                ),
                None,
            )
            if gap is None:
                if members:
                    found.setdefault(frozenset(m.tree_atoms for m in members), tuple(members))
                continue
            m, d = gap
            for m2 in by_root_type.get(m.tree.concept_memberships(d), ()):
                if m2 not in fam:
                    frontier.append(fam | {m2})
    # keep subset-minimal families only: visited by size, a family is
    # minimal unless it contains one of the minimal families kept before.
    # A kept family is filed under its member found in fewest families; a
    # family can contain it only if it contains that member.
    keys, families = list(found), list(found.values())
    frequency = Counter(m for key in keys for m in key)
    kept: List[int] = []
    filed: Dict[frozenset, List[int]] = {}
    for i in sorted(range(len(found)), key=lambda i: len(keys[i])):
        if not any(keys[j] < keys[i] for m in keys[i] for j in filed.get(m, ())):
            kept.append(i)
            filed.setdefault(min(keys[i], key=frequency.__getitem__), []).append(i)
    return [families[i] for i in sorted(kept)], complete


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntailmentVerdict(Verdict):
    POSITIVE = "entailed"  # or "not_entailed" or "unknown"
    counter_model: Optional[Instance] = None


def entails_under_closed_queries(
    onto: Ontology,
    base: Instance,
    closed_queries: Sequence[CQ],
    q: CQ,
) -> EntailmentVerdict:
    """Is the Boolean query q true in every CWA-member extension of base?

    Every CWA-member extension contains base, and a conjunctive query
    true in base is true in every superset (Chandra and Merlin, STOC
    1977).  So q is entailed when it holds in base; only otherwise does
    the tree decomposition run."""
    if not onto.is_normalized():
        raise DialectError("entailment requires a normalized ontology")
    if any(isinstance(a, Functional) for a in onto.axioms):
        raise DialectError("the entailment fragment excludes functionality")
    if q.arity != 0:
        raise ValueError("the entailment query must be Boolean")
    if evaluate_query(base, q).holds():
        return EntailmentVerdict("entailed", note="the query holds in the database")
    n = max([1] + [len(cq_.variables()) for cq_ in [*closed_queries, q]])
    adom0 = base.adom()
    if onto.constants() - adom0:
        return EntailmentVerdict(
            "unknown",
            note="nominal constants outside the database are not covered "
            "by the tree decomposition",
        )
    q_hat = build_bad_match_ucq(closed_queries, base)
    target = UCQ(q_hat.disjuncts + (q,))

    types = build_type_links(onto)

    # why `entailed` is out of reach, in the order first seen
    causes: Dict[str, None] = {}
    try:
        if n != 1:
            raise ResourceCeilingError("tree depth %d exceeds the supported bound 1" % n)
        for restriction in _base_candidates(
            onto, base, _query_concepts(closed_queries, q)
        ):
            ntypes = enumerate_ntypes(onto, restriction, adom0, types)
            families, fam_complete = minimal_coherent_sets(onto, ntypes, adom0)
            if not fam_complete:
                causes["coherent-family search truncated at entailment.SET_CEILING"] = None
            # the family with no trees at all, valid when the restriction
            # fulfils every database obligation itself
            if next(_open_obligations(onto, restriction, adom0), None) is None:
                families = [()] + families
            for fam in families:
                union = restriction if fam == () else Instance(
                    frozenset().union(*(m.combined().atoms for m in fam))
                    | restriction.atoms
                )
                answers = evaluate_with_markers(union, target, adom0)
                if answers.holds():
                    continue
                confirmed = _confirm_counter_model(onto, base, closed_queries, q, union)
                if confirmed is not None:
                    return EntailmentVerdict("not_entailed", counter_model=confirmed)
                causes[
                    "the oracle confirmed no candidate counter-model within "
                    "entailment.ORACLE_FRESH_BOUND fresh constants"
                ] = None
    except ResourceCeilingError as exc:
        return EntailmentVerdict("unknown", note=str(exc))
    if causes:
        return EntailmentVerdict("unknown", note="; ".join(causes))
    return EntailmentVerdict("entailed")


def _query_concepts(closed_queries, q):
    out = set()
    for cq_ in list(closed_queries) + [q]:
        for a in cq_.atoms:
            if len(a.args) == 1 and not a.pred.startswith("_"):
                out.add(a.pred)
    return sorted(out)


def _confirm_counter_model(onto, base, closed_queries, q, union):
    """Ask the oracle for a CWA-member extension of the candidate union
    that avoids q; exact confirmation of a NotEntailed verdict."""
    queries = [*closed_queries, q]
    pinned = pinned_predicates(closed_queries)
    for j in enumerate_extensions(onto, union, ORACLE_FRESH_BOUND, queries, pinned):
        if in_cwa(onto, base, closed_queries, j) and not evaluate_query(j, q).holds():
            return j
    return None