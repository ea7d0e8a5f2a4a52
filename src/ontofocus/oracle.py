"""Finite-instance semantics and the brute-force model oracle.

Instances are finite sets of ground atoms.  Concepts are evaluated by
the table semantics: Top denotes the active domain, negation is taken
relative to the active domain, and a nominal {c} denotes {c} whether or
not c occurs in the instance.  `enumerate_extensions` yields every
bounded model extension of an instance and is deliberately naive; it is
the ground truth the decision procedures are checked against.  Only its
data structures are tuned: `Instance` indexes its atoms on first use, and
predicates closed over the instance (the callers' CWA input) leave the pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .syntax import (
    And,
    Atomic,
    CQ,
    Concept,
    ConceptInclusion,
    Exists,
    ExistsAxiom,
    Forall,
    ForallAxiom,
    Functional,
    Not,
    Ontology,
    Or,
    QueryAtom,
    Role,
    RoleInclusion,
    SimpleConcept,
    Var,
    _concept_simples,
    as_cqs,
    generic_truth,
)

FRESH_POOL_PREFIX = "_f"

Atom = Tuple[str, Tuple[str, ...]]  # (predicate, constants)


@dataclass(frozen=True)
class Instance:
    """A finite set of ground atoms."""

    atoms: FrozenSet[Atom] = frozenset()
    name: str = ""

    @staticmethod
    def of(*facts, name: str = "") -> "Instance":
        """Build from ('A', 'c') and ('r', 'c', 'd') style tuples."""
        out = set()
        for f in facts:
            pred, args = f[0], tuple(f[1:])
            out.add((pred, args))
        return Instance(frozenset(out), name)

    # Indexes built on first use and kept in the instance dictionary, where
    # they hide these class-level Nones (on Python 3.11 a
    # `functools.cached_property` takes a lock on first read); equality and
    # the hash stay on the fields.
    _adom = _index = _types = None

    def adom(self) -> FrozenSet[str]:
        adom = self._adom
        if adom is None:
            adom = self.__dict__["_adom"] = frozenset(c for _, args in self.atoms for c in args)
        return adom

    def _by_predicate(self) -> Tuple[Dict[str, set], Dict[str, set], dict]:
        """The unary and the binary atoms' arguments by predicate, and the
        frozen copies that `concept_atoms` and `role_pairs` hand out, made
        on first read: most instances are read once, and freezing every
        group up front slowed the oracle's model checks by about a tenth."""
        index = self._index
        if index is None:
            unary, binary = {}, {}
            for p, args in self.atoms:
                if len(args) == 1:
                    unary.setdefault(p, set()).add(args[0])
                elif len(args) == 2:
                    binary.setdefault(p, set()).add(args)
            index = self.__dict__["_index"] = (unary, binary, {})
        return index

    def predicates(self) -> FrozenSet[str]:
        return frozenset(p for p, _ in self.atoms)

    def predicates_unary(self) -> FrozenSet[str]:
        return frozenset(self._by_predicate()[0])

    def predicates_binary(self) -> FrozenSet[str]:
        return frozenset(self._by_predicate()[1])

    def concept_memberships(self, const: str) -> FrozenSet[str]:
        types = self._types  # the concept names of each constant
        if types is None:
            types = self.__dict__["_types"] = {}
            for p, args in self.atoms:
                if len(args) == 1:
                    types.setdefault(args[0], set()).add(p)
        return frozenset(types.get(const, ()))

    def concept_atoms(self, name: str) -> FrozenSet[str]:
        unary, _, frozen = self._index or self._by_predicate()
        ext = frozen.get(name)
        if ext is None:
            ext = frozen[name] = frozenset(unary.get(name, ()))
        return ext

    def role_pairs(self, r: Role) -> FrozenSet[Tuple[str, str]]:
        _, binary, frozen = self._index or self._by_predicate()
        pairs = frozen.get(r)
        if pairs is None:
            pairs = binary.get(r.name, ())
            if r.inverted:
                pairs = ((b, a) for a, b in pairs)
            pairs = frozen[r] = frozenset(pairs)
        return pairs

    def union(self, other: "Instance") -> "Instance":
        return Instance(self.atoms | other.atoms, self.name)

    def with_atoms(self, extra: Iterable[Atom]) -> "Instance":
        return Instance(self.atoms | frozenset(extra), self.name)

    def restrict_predicates(self, preds: Iterable[str]) -> "Instance":
        keep = frozenset(preds)
        return Instance(frozenset(a for a in self.atoms if a[0] in keep), self.name)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __le__(self, other: "Instance") -> bool:
        return self.atoms <= other.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __str__(self) -> str:
        body = ", ".join(
            "%s(%s)" % (p, ",".join(args)) for p, args in sorted(self.atoms)
        )
        return "{%s}" % body


EMPTY = Instance()


@dataclass(frozen=True)
class AnswerSet:
    arity: int
    tuples: FrozenSet[Tuple[str, ...]]

    def holds(self) -> bool:
        """For Boolean queries: whether the empty tuple is present."""
        return bool(self.tuples)

    def __str__(self) -> str:
        if self.arity == 0:
            return "true" if self.holds() else "false"
        return "{%s}" % ", ".join("(%s)" % ",".join(t) for t in sorted(self.tuples))


# ---------------------------------------------------------------------------
# Concept extensions and model checking
# ---------------------------------------------------------------------------


def simple_extension(inst: Instance, b: SimpleConcept) -> FrozenSet[str]:
    if b.kind == "top":
        return inst.adom()
    if b.kind == "bot":
        return frozenset()
    if b.kind == "nominal":
        return frozenset({b.name})
    return inst.concept_atoms(b.name)


def _element_mem(c: Optional[str], t: FrozenSet[str], active: bool):
    """Membership in simple concepts of an element with concept names t:
    the constant c (None for a fresh element), active or not."""

    def mem(b: SimpleConcept) -> bool:
        if b.kind == "top":
            return active
        if b.kind == "bot":
            return False
        if b.kind == "nominal":
            return b.name == c
        return b.name in t

    return mem


def _pointwise_ok(mem, inclusions) -> bool:
    for a in inclusions:
        if all(mem(b) for b in a.lhs) and not any(mem(b) for b in a.rhs):
            return False
    return True


def _consistent_types(names: Iterable[str], inclusions) -> List[FrozenSet[str]]:
    """The sets of the given concept names that an active fresh element
    can carry without breaking a concept inclusion, by size, then in
    lexicographic order."""
    names = sorted(names)
    return [
        t
        for k in range(len(names) + 1)
        for t in map(frozenset, itertools.combinations(names, k))
        if _pointwise_ok(_element_mem(None, t, True), inclusions)
    ]


def _witnessed(inst: Instance, a: ExistsAxiom) -> FrozenSet[str]:
    """The elements of inst with an a.role-edge into a.filler."""
    filler = simple_extension(inst, a.filler)
    return frozenset(x for x, y in inst.role_pairs(a.role) if y in filler)


def member(inst: Instance, c: Concept, x: str) -> bool:
    """Membership of a concrete constant in a concept, per the table."""
    if isinstance(c, Atomic):
        return x in simple_extension(inst, c.base)
    if isinstance(c, Not):
        return x in inst.adom() and not member(inst, c.sub, x)
    if isinstance(c, And):
        return all(member(inst, p, x) for p in c.parts)
    if isinstance(c, Or):
        return any(member(inst, p, x) for p in c.parts)
    if isinstance(c, Exists):
        return any(
            a == x and member(inst, c.filler, b) for a, b in inst.role_pairs(c.role)
        )
    if isinstance(c, Forall):
        return all(
            member(inst, c.filler, b)
            for a, b in inst.role_pairs(c.role)
            if a == x
        )
    raise TypeError("unexpected concept %r" % (c,))


def _concept_constants(c: Concept) -> FrozenSet[str]:
    return frozenset(b.name for b in _concept_simples(c) if b.kind == "nominal")


def concept_extension(inst: Instance, c: Concept) -> FrozenSet[str]:
    """The extension of a concept, restricted to the relevant constants.

    The relevant constants are adom(inst) plus the nominals in c; for
    concepts without universal restrictions this is the whole extension.
    For Forall the (co-finite) vacuous remainder of Const is elided here
    and accounted for separately by `generic_truth` in `is_model`.
    """
    dom = inst.adom() | _concept_constants(c)
    return frozenset(x for x in dom if member(inst, c, x))


def _axiom_holds(inst: Instance, a) -> bool:
    if isinstance(a, ConceptInclusion):
        lhs = None
        for b in a.lhs:
            e = simple_extension(inst, b)
            lhs = e if lhs is None else lhs & e
        rhs: FrozenSet[str] = frozenset()
        for b in a.rhs:
            rhs = rhs | simple_extension(inst, b)
        return lhs <= rhs
    if isinstance(a, ExistsAxiom):
        lhs = simple_extension(inst, a.lhs)
        return not lhs or lhs <= _witnessed(inst, a)
    if isinstance(a, ForallAxiom):
        lhs = simple_extension(inst, a.lhs)
        if not lhs:
            return True
        filler = simple_extension(inst, a.filler)
        for x, y in inst.role_pairs(a.role):
            if x in lhs and y not in filler:
                return False
        return True
    if isinstance(a, RoleInclusion):
        return inst.role_pairs(a.sub) <= inst.role_pairs(a.sup)
    if isinstance(a, Functional):
        seen = {}
        for x, y in inst.role_pairs(a.role):
            if x in seen and seen[x] != y:
                return False
            seen[x] = y
        return True
    raise TypeError("unexpected axiom %r" % (a,))


def is_model(inst: Instance, onto: Ontology) -> bool:
    """Check every inclusion and functionality assertion against inst, in
    the fixed order of `Ontology.check_order`."""
    for a in onto.check_order:
        if not _axiom_holds(inst, a):
            return False
    for g in onto.general_axioms:
        dom = inst.adom() | _concept_constants(g.lhs) | _concept_constants(g.rhs)
        for x in dom:
            if member(inst, g.lhs, x) and not member(inst, g.rhs, x):
                return False
        if generic_truth(g.lhs) and not generic_truth(g.rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# Query evaluation
# ---------------------------------------------------------------------------


def _match_atoms(
    inst: Instance, atoms: Tuple[QueryAtom, ...], binding: Dict[Var, str], domain
) -> Iterator[Dict[Var, str]]:
    if not atoms:
        yield dict(binding)
        return
    a, rest = atoms[0], atoms[1:]
    if len(a.args) == 1:
        ext = inst.concept_atoms(a.pred)
        (t,) = a.args
        for c in _candidates(t, binding, ext, domain):
            binding2 = dict(binding)
            if isinstance(t, Var):
                binding2[t] = c
            yield from _match_atoms(inst, rest, binding2, domain)
    else:
        t1, t2 = a.args
        for c1, c2 in (inst._index or inst._by_predicate())[1].get(a.pred, ()):
            b2 = _extend(binding, t1, c1)
            if b2 is None:
                continue
            b3 = _extend(b2, t2, c2)
            if b3 is None:
                continue
            yield from _match_atoms(inst, rest, b3, domain)


def _candidates(t, binding, ext, domain):
    if isinstance(t, Var):
        if t in binding:
            return [binding[t]] if binding[t] in ext else []
        return sorted(ext)
    return [t] if t in ext else []


def _extend(binding, t, c):
    if isinstance(t, Var):
        if t in binding:
            return binding if binding[t] == c else None
        out = dict(binding)
        out[t] = c
        return out
    return binding if t == c else None


def evaluate_cq(inst: Instance, q: CQ) -> AnswerSet:
    domain = inst.adom() | q.constants()
    tuples = set()
    if not q.atoms:
        # degenerate body: holds with the empty match
        tuples.add(tuple())
        return AnswerSet(q.arity, frozenset(tuples))
    for binding in _match_atoms(inst, q.atoms, {}, domain):
        tuples.add(tuple(binding[v] for v in q.answer_vars))
    return AnswerSet(q.arity, frozenset(tuples))


def evaluate_query(inst: Instance, q) -> AnswerSet:
    cqs = as_cqs(q)
    arity = cqs[0].arity if cqs else 0
    tuples: FrozenSet[Tuple[str, ...]] = frozenset()
    for d in cqs:
        tuples = tuples | evaluate_cq(inst, d).tuples
    return AnswerSet(arity, tuples)


# ---------------------------------------------------------------------------
# Bounded extension enumeration
# ---------------------------------------------------------------------------


def fresh_constant(k: int) -> str:
    return "%s%d" % (FRESH_POOL_PREFIX, k)


def candidate_atoms(
    concepts: Iterable[str], roles: Iterable[str], domain: Iterable[str]
) -> List[Atom]:
    dom = sorted(domain)
    out: List[Atom] = []
    for a in sorted(concepts):
        for c in dom:
            out.append((a, (c,)))
    for r in sorted(roles):
        for c in dom:
            for d in dom:
                out.append((r, (c, d)))
    return out


def split_signature(
    onto: Ontology, names: Iterable[str], inst: Instance = EMPTY, queries=()
) -> Tuple[List[str], List[str]]:
    """Split predicate names into sorted concepts and sorted roles.

    A name is a role if the ontology uses it as a role, or an instance
    or query atom gives it two arguments; every other name is a concept.
    """
    roles = set(onto.role_names()) | inst.predicates_binary()
    for q in queries:
        for d in as_cqs(q):
            roles.update(a.pred for a in d.atoms if len(a.args) == 2)
    names = set(names)
    return sorted(names - roles), sorted(names & roles)


def _fresh_canonical(combo, position: Dict[str, int]) -> bool:
    """Accept only atoms whose fresh constants first appear in pool order,
    fresh[0], fresh[1], ...; position maps each to its index."""
    used = 0
    for _, args in combo:
        for c in args:
            k = position.get(c, -1)
            if k > used:
                return False
            used += k == used
    return True


def enumerate_extensions(
    onto: Ontology, inst: Instance, fresh_bound: int = 0, queries=(), closed=()
) -> Iterator[Instance]:
    """Yield every model J of onto with inst ⊆ J over the bounded domain.

    The domain is adom(inst) plus the constants of the ontology and of
    the queries plus `fresh_bound` reserved fresh constants; atoms range
    over the predicates of the ontology, the instance and the queries,
    typed by `split_signature`.  Enumeration order is deterministic
    (increasing size, then lexicographic); extensions are generated up
    to canonical first-use renaming of fresh constants.

    `closed` holds (predicate, arity) pairs whose atoms in J are exactly
    those of inst.  The stream is then the part of the unrestricted one
    that adds none of their atoms, in order: the combinations of a
    sub-pool keep their order, and the first-use test reads only them.
    """
    names = onto.concept_names() | onto.role_names() | inst.predicates()
    constants = inst.adom() | onto.constants()
    for q in queries:
        for d in as_cqs(q):
            names |= d.predicates()
            constants |= d.constants()
    concepts, roles = split_signature(onto, names, inst, queries)
    fresh = [fresh_constant(i + 1) for i in range(fresh_bound)]
    domain = sorted(constants) + fresh
    pool = [a for a in candidate_atoms(concepts, roles, domain) if a not in inst.atoms]
    pool = [a for a in pool if (a[0], len(a[1])) not in closed]
    position = {c: k for k, c in enumerate(fresh)}
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if fresh and not _fresh_canonical(combo, position):
                continue
            cand = Instance(inst.atoms | frozenset(combo), inst.name)
            if is_model(cand, onto):
                yield cand


def enumerate_instances(
    concepts: Iterable[str],
    roles: Iterable[str],
    fixed_constants: Iterable[str] = (),
    max_constants: int = 2,
) -> Iterator[Instance]:
    """All instances over the given predicates with at most
    `max_constants` constants in their active domain, taken from the
    fixed ones plus a canonical fresh pool, up to isomorphism of the
    fresh constants.  Deterministic order.

    Role-free signatures enumerate directly as multisets of concept
    types, which stays feasible at the exponential witness bounds; mixed
    signatures fall back to canonical-filtered subset enumeration."""
    concepts = sorted(set(concepts))
    roles = sorted(set(roles))
    fixed = sorted(set(fixed_constants))
    if not roles:
        types = [
            frozenset(chosen)
            for k in range(1, len(concepts) + 1)
            for chosen in itertools.combinations(concepts, k)
        ]
        fixed_options = []
        for c in fixed:
            fixed_options.append(
                [
                    frozenset(chosen)
                    for k in range(0, len(concepts) + 1)
                    for chosen in itertools.combinations(concepts, k)
                ]
            )
        for fixed_choice in itertools.product(*fixed_options) if fixed else [()]:
            used = sum(1 for t in fixed_choice if t)
            for k in range(max_constants - used + 1):
                for multiset in itertools.combinations_with_replacement(types, k):
                    atoms = set()
                    for c, t in zip(fixed, fixed_choice):
                        atoms.update((a, (c,)) for a in t)
                    for i, t in enumerate(multiset):
                        const = fresh_constant(i + 1)
                        atoms.update((a, (const,)) for a in t)
                    yield Instance(frozenset(atoms))
        return
    fresh = [fresh_constant(i + 1) for i in range(max_constants)]
    pool = candidate_atoms(concepts, roles, fixed + fresh)
    position = {c: k for k, c in enumerate(fresh)}
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if fresh and not _fresh_canonical(combo, position):
                continue
            inst = Instance(frozenset(combo))
            if len(inst.adom()) <= max_constants:
                yield inst


def certain_answers_bounded(
    onto: Ontology, inst: Instance, q, fresh_bound: int = 1
) -> AnswerSet:
    """Intersect query answers over all bounded model extensions.

    Tuples absent from some enumerated model are certainly not certain;
    tuples present in all of them are only bounded-certain.  An empty
    model stream yields the empty set.
    """
    answers: Optional[FrozenSet[Tuple[str, ...]]] = None
    for j in enumerate_extensions(onto, inst, fresh_bound, queries=(q,)):
        got = evaluate_query(j, q).tuples
        answers = got if answers is None else (answers & got)
        if not answers:
            break
    return AnswerSet(as_cqs(q)[0].arity, answers or frozenset())


def enumeration_is_exhaustive(onto: Ontology, domain: Iterable[str]) -> bool:
    """Certificate that bounded enumeration covers all models up to
    restriction: no existential axioms and all nominals inside the domain.

    Under these conditions any model of the ontology restricts to a
    bounded model over the domain, so certain answers computed on the
    bounded stream are exact.
    """
    if not onto.is_normalized():
        return False
    dom = set(domain)
    for a in onto.axioms:
        if isinstance(a, ExistsAxiom):
            return False
    return all(c in dom for c in onto.constants())
