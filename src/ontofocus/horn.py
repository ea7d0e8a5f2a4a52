"""Mixed satisfiability for Horn dialects via cycle reversion.

A consequence-driven calculus derives, per conjunction of concept names
K, the entailed atoms K -> A, existential successors K -> ex r.K', and
qualified at-most-one facts K -> (<=1 r Q).  Inverse-functional
existential cycles through finitely-constrained conjunctions are the
obstruction to building finite parts of a model; reversing every such
cycle (adding the backward existentials and at-most-one facts) reduces
mixed satisfiability to plain satisfiability, which the same saturation
decides over a seed instance.

Conjunctions are frozensets of concept names; the empty set is Top.
Qualified at-most-one facts live only in this internal store, never in
the user-facing syntax.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import DialectError, ResourceCeilingError
from .oracle import Instance
from .syntax import (
    And,
    Atomic,
    Concept,
    ConceptInclusion,
    Dialect,
    Exists,
    ExistsAxiom,
    ForallAxiom,
    Functional,
    GeneralInclusion,
    Ontology,
    Role,
    TOP,
    classify_dialect,
    named,
    role_closure,
)

TOP_ATOM = Atomic(TOP)

Conj = FrozenSet[str]  # conjunction of concept names; empty = Top

TOPC: Conj = frozenset()

HORN_DIALECTS = (Dialect.HornALCIF, Dialect.DLLiteHF, Dialect.ELIbot)

FACT_CEILING = 200000


def conj(*names: str) -> Conj:
    return frozenset(names)


def _check_horn(onto: Ontology) -> None:
    d = classify_dialect(Ontology(onto.axioms, frozenset(), onto.name))
    if d not in HORN_DIALECTS:
        raise DialectError("expected a Horn dialect, got %s" % d.value)
    for g in onto.general_axioms:
        if _general_as_exists(g) is None:
            raise DialectError("unsupported general axiom in Horn input: %s" % g)


def _general_as_exists(g: GeneralInclusion) -> Optional[Tuple[Conj, Role, Conj]]:
    """Recognize And(names) -> ex r. And(names), the only general shape
    the reversion itself emits."""

    def as_conj(c: Concept) -> Optional[Conj]:
        parts = c.parts if isinstance(c, And) else (c,)
        out = set()
        for p in parts:
            if not isinstance(p, Atomic):
                return None
            if p.base.kind == "named":
                out.add(p.base.name)
            elif p.base.kind != "top":
                return None
        return frozenset(out)

    lhs = as_conj(g.lhs)
    if lhs is None or not isinstance(g.rhs, Exists):
        return None
    filler = as_conj(g.rhs.filler)
    if filler is None:
        return None
    return lhs, g.rhs.role, filler


@dataclass(frozen=True)
class LeqFact:
    """cond -> (<= 1 role qual): elements satisfying cond have at most
    one role-successor satisfying qual (empty qual means Top)."""

    cond: Conj
    role: Role
    qual: Conj


@dataclass(frozen=True)
class SigmaCycle:
    """Alternating conjunctions and roles; first equals last."""

    nodes: tuple  # (Conj, ...) with nodes[0] == nodes[-1]
    roles: tuple  # (Role, ...) with len == len(nodes) - 1


class Saturation:
    """The consequence store for one ontology (plus reversal facts)."""

    def __init__(self, onto: Ontology):
        _check_horn(onto)
        self.onto = onto
        self.clo = role_closure(onto)
        self.atoms: Dict[Conj, Set[str]] = {}  # derived named atoms per conjunction
        self.bots: Set[Conj] = set()
        self.exists: Set[Tuple[Conj, Role, Conj]] = set()
        self.leqs: Set[LeqFact] = set()
        self.reversal_exists: Set[Tuple[Conj, Role, Conj]] = set()

        self.inclusions = [a for a in onto.sorted_axioms() if isinstance(a, ConceptInclusion)]
        self.exist_axioms = [a for a in onto.sorted_axioms() if isinstance(a, ExistsAxiom)]
        self.forall_axioms = [a for a in onto.sorted_axioms() if isinstance(a, ForallAxiom)]
        for a in onto.sorted_axioms():
            if isinstance(a, Functional):
                self.leqs.add(LeqFact(TOPC, a.role, TOPC))
        for g in sorted(onto.general_axioms, key=str):
            shape = _general_as_exists(g)
            lhs, r, filler = shape
            self._touch(lhs)
            self._touch(filler)
            self.exists.add((lhs, r, filler))

        self._touch(TOPC)
        for ax in self.inclusions:
            self._touch(frozenset(b.name for b in ax.lhs if b.kind == "named"))
        for ax in self.exist_axioms:
            if ax.lhs.kind == "named":
                self._touch(frozenset({ax.lhs.name}))
            if ax.filler.kind == "named":
                self._touch(frozenset({ax.filler.name}))
        for ax in self.forall_axioms:
            if ax.lhs.kind == "named":
                self._touch(frozenset({ax.lhs.name}))
        self.saturate()

    # -- store primitives ---------------------------------------------------

    def _touch(self, k: Conj) -> None:
        if k not in self.atoms:
            self.atoms[k] = set(k)

    def conjunctions(self) -> List[Conj]:
        return sorted(self.atoms, key=sorted)

    def entails_atom(self, k: Conj, name: str) -> bool:
        return name in self.atoms.get(k, k)

    def entails_bot(self, k: Conj) -> bool:
        return k in self.bots

    def _covers(self, k: Conj, qual: Conj) -> bool:
        """k -> q for every q in qual (empty qual is Top)."""
        return all(self.entails_atom(k, q) for q in qual)

    def _in_simple(self, b, k: Conj) -> bool:
        if b.kind == "top":
            return True
        if b.kind == "named":
            return self.entails_atom(k, b.name)
        return False

    def _leq_applicable(self, k: Conj, r: Role) -> List[LeqFact]:
        return [
            f
            for f in self.leqs
            if f.role == r and self._covers(k, f.cond)
        ]

    def entails_leq(self, k: Conj, r: Role, qual: Conj) -> bool:
        """k -> (<= 1 r qual) derivable: some stored fact applies to k
        whose qualifier is implied by qual."""
        for f in self._leq_applicable(k, r):
            if self._covers(qual, f.qual):
                return True
        return False

    def entails_exists(self, k: Conj, r: Role, filler: Conj) -> bool:
        for (k2, r2, f2) in self.exists:
            if r2 == r and self._covers(k, k2) and self._covers(f2, filler):
                return True
        return False

    # -- saturation ---------------------------------------------------------

    def _fact_count(self) -> int:
        return (
            sum(len(v) for v in self.atoms.values())
            + len(self.exists)
            + len(self.leqs)
            + len(self.bots)
        )

    def add_conjunction(self, k: Conj) -> None:
        """Register an externally supplied conjunction and re-saturate."""
        if k not in self.atoms:
            self._touch(k)
            self.saturate()

    def saturate(self) -> None:
        changed = True
        while changed:
            changed = False
            if self._fact_count() > FACT_CEILING:
                raise ResourceCeilingError("saturation exceeded fact ceiling")

            for k in list(self.atoms):
                derived = self.atoms[k]
                # ontology concept inclusions (generalizes chaining)
                for ax in self.inclusions:
                    if all(self._in_simple(b, k) for b in ax.lhs):
                        (rhs,) = ax.rhs
                        if rhs.kind == "named" and rhs.name not in derived:
                            derived.add(rhs.name)
                            changed = True
                        elif rhs.kind == "bot" and k not in self.bots:
                            self.bots.add(k)
                            changed = True
                # ontology existential axioms
                for ax in self.exist_axioms:
                    if self._in_simple(ax.lhs, k):
                        filler = (
                            frozenset({ax.filler.name})
                            if ax.filler.kind == "named"
                            else TOPC
                        )
                        fact = (k, ax.role, filler)
                        if fact not in self.exists:
                            self._touch(filler)
                            self.exists.add(fact)
                            changed = True

            for (k, r, filler) in sorted(self.exists, key=lambda f: (sorted(f[0]), str(f[1]), sorted(f[2]))):
                # propagate bottom back along existentials
                if filler in self.bots and k not in self.bots:
                    self.bots.add(k)
                    changed = True
                # value restrictions along the inverse edge see the source
                back = self.clo.get(r.inverse(), frozenset({r.inverse()}))
                for ax in self.forall_axioms:
                    if ax.role in back and self._in_simple(ax.lhs, filler):
                        target = ax.filler
                        if target.kind == "named" and target.name not in self.atoms[k]:
                            self.atoms[k].add(target.name)
                            changed = True
                        elif target.kind == "bot" and k not in self.bots:
                            self.bots.add(k)
                            changed = True
                # value restrictions along the edge enrich the filler
                fwd = self.clo.get(r, frozenset({r}))
                for ax in self.forall_axioms:
                    if ax.role in fwd and self._in_simple(ax.lhs, k):
                        target = ax.filler
                        if target.kind == "named" and not self.entails_atom(filler, target.name):
                            bigger = filler | {target.name}
                            self._touch(bigger)
                            self.exists.discard((k, r, filler))
                            self.exists.add((k, r, bigger))
                            changed = True
                        elif target.kind == "bot" and k not in self.bots:
                            self.bots.add(k)
                            changed = True

            # merge coexisting successors under an applicable at-most-one
            by_source: Dict[Tuple[Conj, Role], List[Conj]] = {}
            for (k, r, filler) in self.exists:
                by_source.setdefault((k, r), []).append(filler)
            for (k, r), fillers in sorted(
                by_source.items(), key=lambda kv: (sorted(kv[0][0]), str(kv[0][1]))
            ):
                if len(fillers) < 2:
                    continue
                for fact in self._leq_applicable(k, r):
                    covered = [f for f in fillers if self._covers(f, fact.qual)]
                    for f1, f2 in itertools.combinations(sorted(covered, key=sorted), 2):
                        merged = f1 | f2
                        if merged != f1 or merged != f2:
                            if (k, r, merged) not in self.exists:
                                self._touch(merged)
                                self.exists.add((k, r, merged))
                                changed = True

            # the double-edge merge: k -> ex r.m and m -> ex r-.k1 with an
            # at-most-one on m for r- covering both k and k1 identifies
            # k with k1, so k inherits k1's atoms
            for (k, r, m) in list(self.exists):
                for fact in self._leq_applicable(m, r.inverse()):
                    if not self._covers(k, fact.qual):
                        continue
                    for (m2, r2, k1) in list(self.exists):
                        if m2 != m or r2 != r.inverse():
                            continue
                        if not self._covers(k1, fact.qual):
                            continue
                        new_atoms = {a for a in self.atoms[k1]} - self.atoms[k]
                        if new_atoms:
                            self.atoms[k].update(new_atoms)
                            changed = True
                        if k1 in self.bots and k not in self.bots:
                            self.bots.add(k)
                            changed = True

    # -- cycle machinery ----------------------------------------------------

    def side_condition(self, src: Conj, r: Role, dst: Conj) -> bool:
        """dst -> (<= 1 r- A) for some A in src (or Top): each dst element
        admits at most one r-predecessor of src's kind."""
        qualifiers = [TOPC] + [frozenset({a}) for a in sorted(src)]
        return any(self.entails_leq(dst, r.inverse(), q) for q in qualifiers)

    def cycle_edges(self) -> List[Tuple[Conj, Role, Conj]]:
        out = []
        for (k, r, filler) in self.exists:
            if self.side_condition(k, r, filler):
                out.append((k, r, filler))
        return sorted(out, key=lambda f: (sorted(f[0]), str(f[1]), sorted(f[2])))

    def find_cycles(self, sigma_star: Iterable[Conj]) -> List[SigmaCycle]:
        """One representative cycle per reversible edge (for reporting)."""
        sigma_star = set(sigma_star)
        edges = self.cycle_edges()
        cycles = []
        for k, r, filler in edges:
            path = self._path(filler, k, edges)
            if path is None:
                continue
            walk = [(k, r, filler)] + path  # closed: k -> filler -> ... -> k
            starts = [i for i, e in enumerate(walk) if e[0] in sigma_star]
            if not starts:
                continue
            i = starts[0]
            rotated = walk[i:] + walk[:i]
            nodes = tuple([e[0] for e in rotated] + [rotated[-1][2]])
            roles = tuple(e[1] for e in rotated)
            cycles.append(SigmaCycle(nodes, roles))
        return cycles

    @staticmethod
    def _path(src: Conj, dst: Conj, edges) -> Optional[list]:
        if src == dst:
            return []
        seen = {src}
        frontier = [(src, [])]
        while frontier:
            node, path = frontier.pop(0)
            for e in edges:
                if e[0] != node:
                    continue
                nxt = e[2]
                if nxt == dst:
                    return path + [e]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, path + [e]))
        return None

    def is_reversed(self, cycle: SigmaCycle) -> bool:
        for i in range(len(cycle.roles)):
            k, r, nxt = cycle.nodes[i], cycle.roles[i], cycle.nodes[i + 1]
            if not self.entails_exists(nxt, r.inverse(), k):
                return False
            if not any(
                self._covers(nxt, f.qual)
                for f in self._leq_applicable(k, r)
            ):
                return False
        return True

    def reverse_cycles(self, sigma_star: Iterable[Conj]) -> None:
        """Reverse every cycle of side-condition edges lying in a strongly
        connected component that touches sigma-star, to fixpoint."""
        sigma_star = set(sigma_star)
        while True:
            edges = self.cycle_edges()
            comp = _scc({(tuple(sorted(k)), str(r), tuple(sorted(f))) for k, r, f in edges})
            key_of = lambda k, r, f: (tuple(sorted(k)), str(r), tuple(sorted(f)))
            added = False
            for k, r, filler in edges:
                kk, ff = key_of(k, r, filler)[0], key_of(k, r, filler)[2]
                if comp.get(kk) is None or comp.get(kk) != comp.get(ff):
                    continue
                members = [
                    c for c in self.atoms if comp.get(tuple(sorted(c))) == comp.get(kk)
                ]
                if not any(c in sigma_star for c in members):
                    continue
                back = (filler, r.inverse(), k)
                leq = LeqFact(k, r, filler)
                if back not in self.exists or leq not in self.leqs:
                    self.exists.add(back)
                    self.reversal_exists.add(back)
                    self.leqs.add(leq)
                    added = True
            if not added:
                return
            self.saturate()


def _scc(edges: Set[tuple]) -> dict:
    """Strongly connected components of the (node, role, node) edge set;
    returns node -> component id (only for nodes on some edge)."""
    graph: Dict[tuple, Set[tuple]] = {}
    for a, _, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = {}
    counter = itertools.count()
    comp_counter = itertools.count()

    def strongconnect(v):
        work = [(v, iter(sorted(graph[v])))]
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                cid = next(comp_counter)
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    out[w] = cid
                    if w == node:
                        break

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def entails_subsumption(onto: Ontology, k: Iterable[str], concept) -> bool:
    """Does every model make each k-element a concept-element?

    concept: a SimpleConcept (Top/Bot/named) or Exists over a simple or
    conjunction filler.
    """
    sat = Saturation(onto)
    kc = frozenset(k)
    sat.add_conjunction(kc)
    return _entails(sat, kc, concept)


def _entails(sat: Saturation, kc: Conj, concept) -> bool:
    if sat.entails_bot(kc):
        return True
    if isinstance(concept, Exists):
        filler = concept.filler
        if isinstance(filler, Atomic):
            f = frozenset({filler.base.name}) if filler.base.kind == "named" else TOPC
        else:
            f = frozenset(
                p.base.name for p in filler.parts if p.base.kind == "named"
            )
        return sat.entails_exists(kc, concept.role, f)
    if isinstance(concept, Atomic):
        concept = concept.base
    if concept.kind == "top":
        return True
    if concept.kind == "bot":
        return sat.entails_bot(kc)
    if concept.kind == "named":
        return sat.entails_atom(kc, concept.name)
    raise ValueError("unsupported concept for Horn entailment: %s" % (concept,))


def compute_sigma_star(onto: Ontology, sigma: Iterable[str], sat: Optional[Saturation] = None):
    """Least set of conjunctions forced to be finitely realized when the
    sigma concepts are finite: those entailing a sigma concept, closed
    backwards through existentials whose targets admit at most one
    incoming witness of the source's kind."""
    if sat is None:
        sat = Saturation(onto)
    sigma = sorted(set(sigma))
    for a in sigma:
        sat.add_conjunction(frozenset({a}))
    universe = sat.conjunctions()
    star: Set[Conj] = set()
    for k in universe:
        if any(sat.entails_atom(k, a) for a in sigma):
            star.add(k)
    changed = True
    while changed:
        changed = False
        for (k, r, filler) in sat.cycle_edges():
            if filler in star and k not in star:
                star.add(k)
                changed = True
    return star, sat


def reverse_sigma_cycles(onto: Ontology, sigma_star: Iterable[Conj]) -> Ontology:
    """Saturate with cycle reversion; the output extends the input with
    the reversal existentials (the at-most-one facts stay internal)."""
    sat = Saturation(onto)
    sat.reverse_cycles(sigma_star)
    extra = []
    for (k, r, filler) in sorted(
        sat.reversal_exists, key=lambda f: (sorted(f[0]), str(f[1]), sorted(f[2]))
    ):
        lhs = (
            And(tuple(Atomic(named(a)) for a in sorted(k)))
            if len(k) > 1
            else (Atomic(named(next(iter(k)))) if k else TOP_ATOM)
        )
        rhs_filler = (
            And(tuple(Atomic(named(a)) for a in sorted(filler)))
            if len(filler) > 1
            else (Atomic(named(next(iter(filler)))) if filler else TOP_ATOM)
        )
        extra.append(GeneralInclusion(lhs, Exists(r, rhs_filler)))
    return Ontology(onto.axioms, onto.general_axioms | frozenset(extra), onto.name)


# ---------------------------------------------------------------------------
# Satisfiability over a seed instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HornVerdict:
    kind: str  # "sat" | "unsat"

    @property
    def tier(self) -> str:
        return "positive" if self.kind == "sat" else "negative"


def _abox_saturate(sat: Saturation, onto: Ontology, seed: Instance) -> bool:
    """Propagate consequences at the seed constants; False on clash."""
    types: Dict[str, Set[str]] = {c: set() for c in seed.adom()}
    for pred, args in seed.atoms:
        if len(args) == 1:
            types[args[0]].add(pred)
    clo = sat.clo
    roles_present = {
        Role(p, False) for p, args in seed.atoms if len(args) == 2
    }
    roles_present |= {r.inverse() for r in roles_present}

    def closure(c: str) -> Set[str]:
        k = frozenset(types[c])
        sat.add_conjunction(k)
        return sat.atoms[k]

    changed = True
    while changed:
        changed = False
        for c in sorted(types):
            k = frozenset(types[c])
            sat.add_conjunction(k)
            if sat.entails_bot(k):
                return False
            derived = sat.atoms[k] - types[c]
            if derived:
                types[c].update(derived)
                changed = True
        # forall propagation along seed edges (hierarchy-closed)
        for ax in sat.forall_axioms:
            for r in clo:
                if ax.role not in clo[r]:
                    continue
                for (x, y) in seed.role_pairs(r):
                    if sat._in_simple(ax.lhs, frozenset(types[x])):
                        if ax.filler.kind == "named" and ax.filler.name not in types[y]:
                            types[y].add(ax.filler.name)
                            changed = True
                        elif ax.filler.kind == "bot":
                            return False
        # functionality over seed edges (sub-role atoms count)
        for fact in sorted(sat.leqs, key=str):
            pairs = set()
            for r, sups in clo.items():
                if fact.role in sups:
                    pairs |= seed.role_pairs(r)
            pairs |= seed.role_pairs(fact.role)
            for c in sorted(types):
                if not sat._covers(frozenset(types[c]), fact.cond):
                    continue
                succs = [
                    y
                    for (x, y) in pairs
                    if x == c and sat._covers(frozenset(types[y]), fact.qual)
                ]
                if len(set(succs)) > 1:
                    return False
                # a derived existential must route into the unique successor
                if len(set(succs)) == 1:
                    (y,) = set(succs)
                    k = frozenset(types[c])
                    sat.add_conjunction(k)
                    for (k2, r2, filler) in list(sat.exists):
                        if r2 != fact.role or not sat._covers(k, k2):
                            continue
                        if not sat._covers(filler, fact.qual):
                            continue
                        missing = {
                            a for a in filler if a not in types[y]
                        }
                        if missing:
                            types[y].update(missing)
                            changed = True
    return True


def horn_mixed_sat(onto: Ontology, seed: Instance, sigma: Iterable[str]) -> HornVerdict:
    """Is there a model J of onto extending seed with every sigma concept
    finite?  Decided by reversing the sigma-star cycles and checking
    plain satisfiability of the result over the seed."""
    sigma_star, sat = compute_sigma_star(onto, sigma)
    sat.reverse_cycles(sigma_star)
    ok = _abox_saturate(sat, onto, seed)
    return HornVerdict("sat" if ok else "unsat")
