"""Core syntax: vocabulary, concepts, axioms, ontologies, queries, dialects.

An ontology is kept in two layers: `axioms` holds normal-form statements
(conjunction-of-simples inclusions, single-step existential/universal
restrictions, role inclusions, functionality assertions) and
`general_axioms` holds arbitrary concept inclusions over the full
ALCHOIF grammar.  `normalize` compiles the second layer into the first,
minting fresh `_N<k>` names; user input may not use the reserved `_`
prefix, so fresh names never collide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Optional

RESERVED_PREFIX = "_"

# ---------------------------------------------------------------------------
# Roles and simple concepts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Role:
    """A role name or its inverse; double inversion yields the base role."""

    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + "-" if self.inverted else self.name


def role(name: str) -> Role:
    return Role(name, False)


def inv(name: str) -> Role:
    return Role(name, True)


@dataclass(frozen=True, order=True)
class SimpleConcept:
    """Top, Bot, a concept name, or a nominal {c}."""

    kind: str  # "named" | "nominal" | "top" | "bot"
    name: str = ""

    def __str__(self) -> str:
        if self.kind == "top":
            return "Top"
        if self.kind == "bot":
            return "Bot"
        if self.kind == "nominal":
            return "{%s}" % self.name
        return self.name


TOP = SimpleConcept("top")
BOT = SimpleConcept("bot")


def named(name: str) -> SimpleConcept:
    return SimpleConcept("named", name)


def nominal(const: str) -> SimpleConcept:
    return SimpleConcept("nominal", const)


# ---------------------------------------------------------------------------
# Full concept grammar (used in general_axioms and by the model oracle)
# ---------------------------------------------------------------------------


class Concept:
    """Marker base class for the full concept grammar."""

    __slots__ = ()


@dataclass(frozen=True)
class Atomic(Concept):
    base: SimpleConcept

    def __str__(self) -> str:
        return str(self.base)


@dataclass(frozen=True)
class Not(Concept):
    sub: Concept

    def __str__(self) -> str:
        return "!(%s)" % self.sub


@dataclass(frozen=True)
class And(Concept):
    parts: tuple

    def __str__(self) -> str:
        return "(" + " & ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Concept):
    parts: tuple

    def __str__(self) -> str:
        return "(" + " | ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Exists(Concept):
    role: Role
    filler: Concept

    def __str__(self) -> str:
        return "ex %s . %s" % (self.role, self.filler)


@dataclass(frozen=True)
class Forall(Concept):
    role: Role
    filler: Concept

    def __str__(self) -> str:
        return "all %s . %s" % (self.role, self.filler)


def atom(simple: SimpleConcept) -> Atomic:
    return Atomic(simple)


def conj(*parts: Concept) -> Concept:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


def _sc_key(b: SimpleConcept):
    return (b.kind, b.name)


@dataclass(frozen=True, eq=False)
class ConceptInclusion:
    """B1 & ... & Bk -> B(k+1) | ... | Bm over simple concepts.

    Input order of both sides is preserved for serialization, but two
    inclusions compare equal when the sides agree as multisets.
    """

    lhs: tuple
    rhs: tuple

    def __post_init__(self):
        if not self.lhs:
            object.__setattr__(self, "lhs", (TOP,))

    def _key(self):
        return (
            "sub",
            tuple(sorted(self.lhs, key=_sc_key)),
            tuple(sorted(self.rhs, key=_sc_key)),
        )

    def __eq__(self, other):
        return isinstance(other, ConceptInclusion) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self) -> str:
        left = " & ".join(str(b) for b in self.lhs)
        right = " | ".join(str(b) for b in self.rhs) if self.rhs else "Bot"
        return "sub %s -> %s" % (left, right)


@dataclass(frozen=True)
class ExistsAxiom:
    """B1 -> ex R : B2, i.e. B1 is included in exists R . B2."""

    lhs: SimpleConcept
    role: Role
    filler: SimpleConcept

    def _key(self):
        return ("ex", _sc_key(self.lhs), (self.role.name, self.role.inverted), _sc_key(self.filler))

    def __str__(self) -> str:
        return "ex %s -> %s : %s" % (self.lhs, self.role, self.filler)


@dataclass(frozen=True)
class ForallAxiom:
    """B1 -> all R : B2, i.e. B1 is included in forall R . B2."""

    lhs: SimpleConcept
    role: Role
    filler: SimpleConcept

    def _key(self):
        return ("all", _sc_key(self.lhs), (self.role.name, self.role.inverted), _sc_key(self.filler))

    def __str__(self) -> str:
        return "all %s -> %s : %s" % (self.lhs, self.role, self.filler)


@dataclass(frozen=True)
class RoleInclusion:
    sub: Role
    sup: Role

    def _key(self):
        return ("rsub", (self.sub.name, self.sub.inverted), (self.sup.name, self.sup.inverted))

    def __str__(self) -> str:
        return "rsub %s -> %s" % (self.sub, self.sup)


@dataclass(frozen=True)
class Functional:
    role: Role

    def _key(self):
        return ("func", (self.role.name, self.role.inverted))

    def __str__(self) -> str:
        return "func %s" % self.role


@dataclass(frozen=True)
class GeneralInclusion:
    """A concept inclusion over the full grammar, prior to normalization."""

    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return "gsub %s -> %s" % (self.lhs, self.rhs)


def axiom_sort_key(a) -> str:
    return str(a)


# ---------------------------------------------------------------------------
# Ontology
# ---------------------------------------------------------------------------


def _concept_simples(c: Concept) -> Iterator[SimpleConcept]:
    if isinstance(c, Atomic):
        yield c.base
    elif isinstance(c, Not):
        yield from _concept_simples(c.sub)
    elif isinstance(c, (And, Or)):
        for p in c.parts:
            yield from _concept_simples(p)
    elif isinstance(c, (Exists, Forall)):
        yield from _concept_simples(c.filler)


def _concept_roles(c: Concept) -> Iterator[Role]:
    if isinstance(c, (Exists, Forall)):
        yield c.role
        yield from _concept_roles(c.filler)
    elif isinstance(c, Not):
        yield from _concept_roles(c.sub)
    elif isinstance(c, (And, Or)):
        for p in c.parts:
            yield from _concept_roles(p)


@dataclass(frozen=True)
class Ontology:
    axioms: frozenset = frozenset()
    general_axioms: frozenset = frozenset()
    name: str = ""

    @staticmethod
    def of(axioms: Iterable = (), general: Iterable = (), name: str = "") -> "Ontology":
        return Ontology(frozenset(axioms), frozenset(general), name)

    def sorted_axioms(self) -> list:
        return sorted(self.axioms, key=axiom_sort_key)

    @cached_property
    def check_order(self) -> tuple:
        """The order a model check walks the axioms, fixed against string
        hashing: concept inclusions (the cheapest) first, shorter first."""
        key = lambda a: (not isinstance(a, ConceptInclusion), len(str(a)), str(a))
        return tuple(sorted(self.axioms, key=key))

    def sorted_general(self) -> list:
        return sorted(self.general_axioms, key=str)

    def is_normalized(self) -> bool:
        return not self.general_axioms

    def union(self, other: "Ontology") -> "Ontology":
        return Ontology(
            self.axioms | other.axioms,
            self.general_axioms | other.general_axioms,
            self.name or other.name,
        )

    def with_axioms(self, extra: Iterable) -> "Ontology":
        return Ontology(self.axioms | frozenset(extra), self.general_axioms, self.name)

    def concept_names(self) -> frozenset:
        names = set()
        for b in self.simple_concepts():
            if b.kind == "named":
                names.add(b.name)
        return frozenset(names)

    def role_names(self) -> frozenset:
        names = set()
        for a in self.axioms:
            if isinstance(a, (ExistsAxiom, ForallAxiom)):
                names.add(a.role.name)
            elif isinstance(a, RoleInclusion):
                names.add(a.sub.name)
                names.add(a.sup.name)
            elif isinstance(a, Functional):
                names.add(a.role.name)
        for g in self.general_axioms:
            for r in itertools.chain(_concept_roles(g.lhs), _concept_roles(g.rhs)):
                names.add(r.name)
        return frozenset(names)

    def roles_with_inverses(self) -> frozenset:
        out = set()
        for n in self.role_names():
            out.add(Role(n, False))
            out.add(Role(n, True))
        return frozenset(out)

    def constants(self) -> frozenset:
        return frozenset(b.name for b in self.simple_concepts() if b.kind == "nominal")

    def simple_concepts(self) -> frozenset:
        """All simple concepts occurring in the ontology (Top always included)."""
        out = {TOP}
        for a in self.axioms:
            if isinstance(a, ConceptInclusion):
                out.update(a.lhs)
                out.update(a.rhs)
            elif isinstance(a, (ExistsAxiom, ForallAxiom)):
                out.add(a.lhs)
                out.add(a.filler)
        for g in self.general_axioms:
            out.update(_concept_simples(g.lhs))
            out.update(_concept_simples(g.rhs))
        return frozenset(out)

    def __str__(self) -> str:
        lines = ["ontology %s" % (self.name or "O")]
        for a in self.sorted_axioms():
            lines.append("  " + str(a))
        for g in self.sorted_general():
            lines.append("  # general: %s" % g)
        lines.append("end")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class QueryAtom:
    pred: str
    args: tuple

    def is_concept_atom(self) -> bool:
        return len(self.args) == 1

    def variables(self) -> Iterator[Var]:
        for t in self.args:
            if isinstance(t, Var):
                yield t

    def constants(self) -> Iterator[str]:
        for t in self.args:
            if not isinstance(t, Var):
                yield t

    def __str__(self) -> str:
        def s(t):
            return t.name if isinstance(t, Var) else "{%s}" % t

        return "%s(%s)" % (self.pred, ", ".join(s(t) for t in self.args))


@dataclass(frozen=True)
class CQ:
    """A conjunctive query; answer_vars may be empty (Boolean query)."""

    answer_vars: tuple
    atoms: tuple
    name: str = ""

    @property
    def arity(self) -> int:
        return len(self.answer_vars)

    def variables(self) -> frozenset:
        out = set(self.answer_vars)
        for a in self.atoms:
            out.update(a.variables())
        return frozenset(out)

    def constants(self) -> frozenset:
        out = set()
        for a in self.atoms:
            out.update(a.constants())
        return frozenset(out)

    def predicates(self) -> frozenset:
        return frozenset(a.pred for a in self.atoms)

    def __str__(self) -> str:
        head = "%s(%s)" % (self.name or "q", ", ".join(v.name for v in self.answer_vars))
        return "%s := %s" % (head, ", ".join(str(a) for a in self.atoms))


@dataclass(frozen=True)
class UCQ:
    disjuncts: tuple
    name: str = ""

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity if self.disjuncts else 0

    def __str__(self) -> str:
        return " | ".join(str(d) for d in self.disjuncts)


def cq(answer_vars, atoms, name="") -> CQ:
    return CQ(tuple(answer_vars), tuple(atoms), name)


def instance_query(concept_name: str, var_name: str = "x", name: str = "") -> CQ:
    v = Var(var_name)
    return CQ((v,), (QueryAtom(concept_name, (v,)),), name)


def role_query(role_name: str, v1: str = "x", v2: str = "y", name: str = "") -> CQ:
    a, b = Var(v1), Var(v2)
    return CQ((a, b), (QueryAtom(role_name, (a, b)),), name)


def is_atomic_query(q) -> bool:
    """Single-atom CQ whose arguments are exactly the distinct answer variables."""
    if not isinstance(q, CQ) or len(q.atoms) != 1:
        return False
    args = q.atoms[0].args
    return (
        all(isinstance(t, Var) for t in args)
        and len(set(args)) == len(args)
        and tuple(args) == q.answer_vars
    )


def is_instance_query(q) -> bool:
    return is_atomic_query(q) and q.atoms[0].is_concept_atom()


def as_cqs(q) -> tuple:
    return q.disjuncts if isinstance(q, UCQ) else (q,)


# ---------------------------------------------------------------------------
# Focusing configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FocusingConfiguration:
    """Schema plus closed, fixed, and determined query sets."""

    schema: frozenset
    closed: tuple
    fixed: tuple
    determined: tuple
    name: str = ""

    @staticmethod
    def of(schema=(), closed=(), fixed=(), determined=(), name="") -> "FocusingConfiguration":
        return FocusingConfiguration(
            frozenset(schema), tuple(closed), tuple(fixed), tuple(determined), name
        )


# ---------------------------------------------------------------------------
# Dialects
# ---------------------------------------------------------------------------


class Dialect(Enum):
    ALCHOIF = "ALCHOIF"
    ALCHOI = "ALCHOI"
    ALCHIF = "ALCHIF"
    ALCO = "ALCO"
    ALCOI = "ALCOI"
    DLLiteBoolHOF = "DLLiteBoolHOF"
    DLLiteHF = "DLLiteHF"
    HornALCIF = "HornALCIF"
    ELIbot = "ELIbot"
    Unknown = "Unknown"


def role_closure(onto: "Ontology") -> dict:
    """Reflexive-transitive super-role closure, closed under inversion."""
    roles = set()
    for a in onto.axioms:
        if isinstance(a, (ExistsAxiom, ForallAxiom, Functional)):
            roles.add(a.role)
        elif isinstance(a, RoleInclusion):
            roles.add(a.sub)
            roles.add(a.sup)
    roles |= {r.inverse() for r in roles}
    direct = {r: {r} for r in roles}
    for a in onto.axioms:
        if isinstance(a, RoleInclusion):
            direct.setdefault(a.sub, {a.sub}).add(a.sup)
            direct.setdefault(a.sub.inverse(), {a.sub.inverse()}).add(a.sup.inverse())
    changed = True
    while changed:
        changed = False
        for r, sups in direct.items():
            extra = set()
            for s in sups:
                extra |= direct.get(s, {s})
            if not extra <= sups:
                sups |= extra
                changed = True
    return {r: frozenset(sups) for r, sups in direct.items()}


def closure_of(roles: Iterable[Role], clo: dict) -> frozenset:
    out = set()
    for r in roles:
        out |= clo.get(r, frozenset({r}))
    return frozenset(out)


# Most specific first; used to break ties between incomparable minima.
_DIALECT_PRIORITY = [
    Dialect.DLLiteHF,
    Dialect.ELIbot,
    Dialect.HornALCIF,
    Dialect.DLLiteBoolHOF,
    Dialect.ALCO,
    Dialect.ALCOI,
    Dialect.ALCHIF,
    Dialect.ALCHOI,
    Dialect.ALCHOIF,
]


def _dialect_features(onto: Ontology) -> dict:
    has_nominal = any(b.kind == "nominal" for b in onto.simple_concepts())
    has_inverse = False
    has_func = False
    has_rsub = False
    horn = True
    lite_exists_ok = True  # every existential filler is Top
    lite_forall_ok = True  # every universal restriction has Top on the left
    lite_shapes_ok = True  # concept inclusions are B1 -> B2 only
    func_roles = set()
    for a in onto.axioms:
        if isinstance(a, ConceptInclusion):
            if len(a.rhs) > 1:
                horn = False
            if len(a.lhs) > 1 or len(a.rhs) > 1:
                lite_shapes_ok = False
        elif isinstance(a, ExistsAxiom):
            if a.role.inverted:
                has_inverse = True
            if a.filler != TOP:
                lite_exists_ok = False
        elif isinstance(a, ForallAxiom):
            if a.role.inverted:
                has_inverse = True
            if a.lhs != TOP:
                lite_forall_ok = False
        elif isinstance(a, RoleInclusion):
            has_rsub = True
            if a.sub.inverted or a.sup.inverted:
                has_inverse = True
        elif isinstance(a, Functional):
            has_func = True
            if a.role.inverted:
                has_inverse = True
            func_roles.add(a.role)
    clo = role_closure(onto)
    func_has_subrole = any(
        r != p and p in clo.get(r, frozenset())
        for p in func_roles
        for r in clo
    )
    return {
        "nominal": has_nominal,
        "inverse": has_inverse,
        "func": has_func,
        "rsub": has_rsub,
        "horn": horn,
        "lite_exists_ok": lite_exists_ok,
        "lite_forall_ok": lite_forall_ok,
        "lite_shapes_ok": lite_shapes_ok,
        "func_has_subrole": func_has_subrole,
    }


def _dialect_admits(d: Dialect, f: dict) -> bool:
    if d == Dialect.ALCHOIF:
        return True
    if d == Dialect.ALCHOI:
        return not f["func"]
    if d == Dialect.ALCHIF:
        return not f["nominal"]
    if d == Dialect.ALCO:
        return not (f["inverse"] or f["func"] or f["rsub"])
    if d == Dialect.ALCOI:
        return not (f["func"] or f["rsub"])
    if d == Dialect.DLLiteBoolHOF:
        return f["lite_exists_ok"] and f["lite_forall_ok"] and not f["func_has_subrole"]
    if d == Dialect.DLLiteHF:
        return (
            f["lite_exists_ok"]
            and f["lite_forall_ok"]
            and f["lite_shapes_ok"]
            and not f["nominal"]
            and not f["func_has_subrole"]
        )
    if d == Dialect.HornALCIF:
        return f["horn"] and not f["nominal"] and not f["rsub"]
    if d == Dialect.ELIbot:
        return f["horn"] and not (f["nominal"] or f["func"] or f["rsub"])
    return False


def dialect_rank(d: Dialect) -> int:
    """Position in the specificity order (refines the inclusion order)."""
    return _DIALECT_PRIORITY.index(d)


def classify_dialect(onto: Ontology) -> Dialect:
    """Least dialect admitting every axiom, ties broken toward the more
    specific.  The priority list refines the inclusion order, so the first
    admitted dialect is always an inclusion-minimal one."""
    if not onto.is_normalized():
        return Dialect.Unknown
    feats = _dialect_features(onto)
    for d in _DIALECT_PRIORITY:
        if _dialect_admits(d, feats):
            return d
    return Dialect.Unknown


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class FreshNames:
    """Deterministic `_N<k>` name source, skipping names already in use."""

    def __init__(self, taken: Iterable[str]):
        self._taken = set(taken)
        self._next = 1

    def mint(self) -> str:
        while True:
            cand = "%sN%d" % (RESERVED_PREFIX, self._next)
            self._next += 1
            if cand not in self._taken:
                self._taken.add(cand)
                return cand


def _is_simple(c: Concept) -> Optional[SimpleConcept]:
    return c.base if isinstance(c, Atomic) else None


# Constants outside the active domain satisfy exactly the universally
# quantified concepts; a left side true out there with a right side false
# out there makes the axiom unsatisfiable by any (finite) instance.
ABSURD_CONSTANT = RESERVED_PREFIX + "unsat"


def generic_truth(c: Concept) -> bool:
    """Membership of a fresh, never-mentioned constant outside adom."""
    if isinstance(c, Atomic):
        return False
    if isinstance(c, Not):
        return False
    if isinstance(c, And):
        return all(generic_truth(p) for p in c.parts)
    if isinstance(c, Or):
        return any(generic_truth(p) for p in c.parts)
    if isinstance(c, Exists):
        return False
    if isinstance(c, Forall):
        return True
    raise TypeError("unexpected concept %r" % (c,))


class _Normalizer:
    def __init__(self, onto: Ontology):
        self.out = set(onto.axioms)
        self.fresh = FreshNames(onto.concept_names())
        self.defs = {}  # concept -> fresh simple concept standing for it

    def run(self, general) -> frozenset:
        for g in sorted(general, key=str):
            if generic_truth(g.lhs) and not generic_truth(g.rhs):
                # violated by the infinitely many untouched constants
                self.out.add(ConceptInclusion((nominal(ABSURD_CONSTANT),), (BOT,)))
            self._inclusion(g.lhs, g.rhs)
        return frozenset(self.out)

    # -- helpers ------------------------------------------------------------

    def _name_superset_exists(self, c: Exists) -> SimpleConcept:
        """Fresh n covering an existential conjunct on a left-hand side.

        Exact because existentials hold only inside the active domain,
        where the defining inclusion pins n.
        """
        key = ("up", c)
        if key not in self.defs:
            n = named(self.fresh.mint())
            self.defs[key] = n
            self._inclusion(c, Atomic(n))
        return self.defs[key]

    def _name_subset(self, c: Concept) -> SimpleConcept:
        """Fresh n with n -> c, for over-approximated right-hand uses."""
        key = ("down", c)
        if key not in self.defs:
            n = named(self.fresh.mint())
            self.defs[key] = n
            self._inclusion(Atomic(n), c)
        return self.defs[key]

    def _complement(self, c: Concept) -> SimpleConcept:
        """Fresh cbar usable for not-c on a right-hand side.

        cbar is disjoint from a name covering c-on-adom, and together
        they cover the active domain; so cbar lies inside adom minus c.
        """
        key = ("not", c)
        if key not in self.defs:
            cb = _is_simple(c)
            if cb is not None and cb.kind in ("named", "top", "bot", "nominal"):
                up = cb
            else:
                up = named(self.fresh.mint())
                self._inclusion(And((c, Atomic(TOP))), Atomic(up))
            cbar = named(self.fresh.mint())
            self.defs[key] = cbar
            self.out.add(ConceptInclusion((up, cbar), (BOT,)))
            self.out.add(ConceptInclusion((TOP,), (up, cbar)))
        return self.defs[key]

    # -- main recursion -----------------------------------------------------

    def _inclusion(self, lhs: Concept, rhs: Concept):
        # Left-hand side first: drive it to a conjunction of simples,
        # moving negated and universal conjuncts to the right.
        if isinstance(lhs, Or):
            for p in lhs.parts:
                self._inclusion(p, rhs)
            return
        if isinstance(lhs, Exists):
            self._inclusion(lhs.filler, Forall(lhs.role.inverse(), rhs))
            return
        if isinstance(lhs, Not):
            self._inclusion(Atomic(TOP), Or((lhs.sub, rhs)))
            return
        if isinstance(lhs, Forall):
            self._inclusion(Atomic(TOP), Or((Exists(lhs.role, Not(lhs.filler)), rhs)))
            return

        # flatten the conjunction, distributing any disjunctive conjunct
        conjs = []
        todo = list(lhs.parts) if isinstance(lhs, And) else [lhs]
        while todo:
            p = todo.pop(0)
            if isinstance(p, And):
                todo = list(p.parts) + todo
            else:
                conjs.append(p)
        for i, p in enumerate(conjs):
            if isinstance(p, Or):
                for q in p.parts:
                    self._inclusion(And(tuple(conjs[:i] + [q] + conjs[i + 1 :])), rhs)
                return

        simples = []
        extra_disjuncts = []  # conjuncts moved to the right-hand side
        need_adom_guard = False
        for p in conjs:
            b = _is_simple(p)
            if b is not None:
                simples.append(b)
            elif isinstance(p, Not):
                # (X and not Q) -> D  ==  (X and Top) -> Q or D
                extra_disjuncts.append(p.sub)
                need_adom_guard = True
            elif isinstance(p, Forall):
                # (X and all r.P) -> D  ==  X -> (ex r. not P) or D
                extra_disjuncts.append(Exists(p.role, Not(p.filler)))
            elif isinstance(p, Exists):
                simples.append(self._name_superset_exists(p))
            else:
                raise TypeError("unexpected concept %r" % (p,))
        if need_adom_guard and TOP not in simples:
            simples.append(TOP)
        if not simples:
            simples = [TOP]
        if extra_disjuncts:
            rhs = Or(tuple(extra_disjuncts + [rhs]))
        self._rhs(tuple(simples), rhs)

    def _rhs(self, lhs: tuple, rhs: Concept):
        b = _is_simple(rhs)
        if b is not None:
            self.out.add(ConceptInclusion(lhs, (b,)))
            return
        if isinstance(rhs, And):
            for p in rhs.parts:
                self._rhs(lhs, p)
            return
        if isinstance(rhs, Or):
            parts = []
            todo = list(rhs.parts)
            while todo:  # flatten nested disjunctions
                p = todo.pop(0)
                if isinstance(p, Or):
                    todo = list(p.parts) + todo
                else:
                    parts.append(p)
            disjuncts = []
            for p in parts:
                pb = _is_simple(p)
                if pb is not None:
                    disjuncts.append(pb)
                elif isinstance(p, Not):
                    disjuncts.append(self._complement(p.sub))
                else:
                    disjuncts.append(self._name_subset(p))
            self.out.add(ConceptInclusion(lhs, tuple(disjuncts)))
            return
        if isinstance(rhs, Not):
            self._rhs(lhs, Or((rhs,)))
            return
        if isinstance(rhs, (Exists, Forall)):
            if len(lhs) == 1:
                left = lhs[0]
            else:
                left = named(self.fresh.mint())
                self.out.add(ConceptInclusion(tuple(lhs), (left,)))
            fb = _is_simple(rhs.filler)
            if fb is None:
                fb = self._name_subset(rhs.filler)
            if isinstance(rhs, Exists):
                self.out.add(ExistsAxiom(left, rhs.role, fb))
            else:
                self.out.add(ForallAxiom(left, rhs.role, fb))
            return
        raise TypeError("unexpected concept: %r" % (rhs,))


def normalize(onto: Ontology) -> Ontology:
    """Compile general axioms into normal form.

    Fresh names are minted deterministically; every model of the input
    expands to a model of the output, and every model of the output,
    restricted to the input signature, models the input.
    """
    if onto.is_normalized():
        return onto
    norm = _Normalizer(onto)
    axioms = norm.run(onto.general_axioms)
    return Ontology(axioms, frozenset(), onto.name)
