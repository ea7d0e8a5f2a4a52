"""Seeded problem generators for the three benchmark workloads.

Each workload is a fixed corpus: the shape of problem ``i`` is drawn from
``random.Random("<workload>/<i>")``, so it never depends on the seed or on
how many problems are generated.  The seed draws, per problem, a
permutation of the vocabulary the shape is written in (concept names,
role names and constants).  So every seed sends isomorphic copies of the
same problems: the decided verdicts cannot change with the seed, while
the documents, the order of sorted axioms and the search orders inside
the library do.

Every problem is rendered as a document with ``parser.serialize``;
set-up parses the documents back with ``parse_document`` and checks that
each block round-trips unchanged.

Every problem stays inside the documented scope of its procedure: FOCUS
problems close and fix atomic concept queries only, and fix them only
over ontologies of concept inclusions; ENTAILMENT problems use no
functionality.  So any exception raised by the library counts as a
failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ontofocus.oracle import Instance
from ontofocus import parser
from ontofocus.syntax import (
    BOT,
    CQ,
    TOP,
    ConceptInclusion,
    ExistsAxiom,
    FocusingConfiguration,
    ForallAxiom,
    Functional,
    Ontology,
    QueryAtom,
    Role,
    RoleInclusion,
    Var,
    instance_query,
    inv,
    named,
    nominal,
    role,
    role_query,
)

WORKLOADS = ("emptiness", "focus", "query")

EMPTINESS_FAMILIES = ("alchif", "lite_bool_nom", "lite_hf", "horn_alcif")
EMPTINESS_AXIOMS = (3, 4, 5)
FOCUS_AXIOMS = (3, 4, 5)
QUERY_ONTOLOGIES = 6
QUERY_AXIOMS = (2, 3, 4)


@dataclass(frozen=True)
class Vocabulary:
    concepts: Tuple[str, ...]
    roles: Tuple[str, ...]
    constants: Tuple[str, ...]

    def permuted(self, rng: random.Random) -> "Vocabulary":
        def shuffled(names):
            names = list(names)
            rng.shuffle(names)
            return tuple(names)

        return Vocabulary(shuffled(self.concepts), shuffled(self.roles), shuffled(self.constants))


EMPTINESS_VOCABULARY = Vocabulary(("A", "B", "C", "D"), ("r", "s"), ("c", "d"))
FOCUS_VOCABULARY = Vocabulary(("A", "B", "C", "D"), ("r",), ())
QUERY_VOCABULARY = Vocabulary(("A", "B", "C"), ("r", "s"), ("a", "b", "e"))


@dataclass(frozen=True)
class Problem:
    """One problem, as parsed from its document."""

    index: int
    family: str
    ontology: Ontology
    config: FocusingConfiguration
    instance: Optional[Instance] = None
    query: Optional[CQ] = None


# ---------------------------------------------------------------------------
# Random axioms
# ---------------------------------------------------------------------------


def _simple(rng, concepts, constants=(), bot=False):
    pool = [named(c) for c in concepts] + [nominal(c) for c in constants] + [TOP]
    if bot:
        pool.append(BOT)
    return rng.choice(pool)


def _role(rng, roles):
    return Role(rng.choice(roles), rng.random() < 0.4)


def random_axioms(
    rng, n, vocab, constants=(), lite=False, horn=False, conj=True, rsub=True, func=True
) -> set:
    """n random normal-form axioms over the vocabulary; lite keeps
    existential fillers and universal left sides at Top, horn keeps
    right-hand sides single."""
    concepts, roles = vocab.concepts, vocab.roles
    axioms = set()
    for _ in range(n):
        kind = rng.choice(("sub", "sub", "ex", "all", "rsub", "func"))
        if kind == "sub":
            n_lhs = rng.choice((1, 2)) if conj else 1
            n_rhs = 1 if horn or not conj else rng.choice((1, 2))
            lhs = tuple(_simple(rng, concepts, constants) for _ in range(n_lhs))
            rhs = tuple(_simple(rng, concepts, constants, bot=True) for _ in range(n_rhs))
            axioms.add(ConceptInclusion(lhs, rhs))
        elif kind == "ex":
            lhs = _simple(rng, concepts, constants)
            filler = TOP if lite else _simple(rng, concepts, constants)
            axioms.add(ExistsAxiom(lhs, _role(rng, roles), filler))
        elif kind == "all":
            lhs = TOP if lite else _simple(rng, concepts, constants)
            axioms.add(ForallAxiom(lhs, _role(rng, roles), _simple(rng, concepts, constants)))
        elif kind == "rsub" and rsub:
            axioms.add(RoleInclusion(_role(rng, roles), _role(rng, roles)))
        elif kind == "func" and func:
            axioms.add(Functional(_role(rng, roles)))
    if lite:
        # DL-Lite forbids functional roles with proper sub-roles
        functional = {a.role.name for a in axioms if isinstance(a, Functional)}
        axioms = {
            a
            for a in axioms
            if not (
                isinstance(a, RoleInclusion)
                and a.sup.name in functional
                and a.sub.name != a.sup.name
            )
        }
    return axioms


def _occurring(names, onto: Ontology) -> list:
    """The vocabulary's concept names that occur in onto, in vocabulary
    order (sorting would break the isomorphism between seeds)."""
    present = onto.concept_names()
    return [n for n in names if n in present]


def _closing_config(names) -> FocusingConfiguration:
    return FocusingConfiguration.of(
        schema=names, closed=[instance_query(n) for n in names], name="F"
    )


# ---------------------------------------------------------------------------
# Workload shapes: each returns (family, blocks)
# ---------------------------------------------------------------------------


def chain_problem():
    """The paper's CHAIN ontology, nominally encoded with A(c), B closed."""
    a, b, r = named("A"), named("B"), role("r")
    onto = Ontology.of(
        [
            ExistsAxiom(a, r, b),
            ExistsAxiom(b, r, b),
            ConceptInclusion((a, b), (BOT,)),
            Functional(inv("r")),
            ConceptInclusion((nominal("c"),), (a,)),
        ],
        name="O",
    )
    return "chain", [onto, _closing_config(["B"])]


def disaster_problem():
    """The paper's DISASTER ontology with its focusing configuration."""
    disaster, flood, drought = named("Disaster"), named("Flood"), named("Drought")
    onto = Ontology.of(
        [
            ConceptInclusion((disaster,), (flood, drought)),
            ConceptInclusion((flood,), (disaster,)),
            ConceptInclusion((drought,), (disaster,)),
        ],
        name="O",
    )
    config = FocusingConfiguration.of(
        schema={"Flood"},
        closed=[instance_query("Flood")],
        fixed=[instance_query("Drought")],
        name="F",
    )
    return "disaster", [onto, config]


def emptiness_shape(rng, vocab):
    """An ontology from one of four generators plus nominal seed axioms
    (without them the empty instance is a model), closing 1-2 names."""
    family = rng.choice(EMPTINESS_FAMILIES)
    n = rng.choice(EMPTINESS_AXIOMS)
    c, d = (nominal(k) for k in vocab.constants[:2])
    first, second = (named(k) for k in rng.sample(vocab.concepts, 2))
    seeds = {ConceptInclusion((c,), (first,))}
    extra = rng.random() < 0.5
    if family == "alchif":
        axioms = random_axioms(rng, n, vocab)
        if extra:
            seeds.add(ExistsAxiom(c, _role(rng, vocab.roles), d))
    elif family == "lite_bool_nom":
        axioms = random_axioms(rng, n, vocab, constants=vocab.constants[:1], lite=True)
        if extra:
            seeds.add(ExistsAxiom(c, _role(rng, vocab.roles), TOP))
    elif family == "lite_hf":
        axioms = random_axioms(rng, n, vocab, lite=True, horn=True, conj=False)
        if extra:
            seeds.add(ConceptInclusion((d,), (second,)))
    else:
        axioms = random_axioms(rng, n, vocab, horn=True, rsub=False)
        if extra:
            seeds.add(ExistsAxiom(c, _role(rng, vocab.roles), d))
    onto = Ontology.of(axioms | seeds, name="O")
    names = _occurring(vocab.concepts, onto)
    closed = rng.sample(names, min(len(names), rng.choice((1, 2))))
    return family, [onto, _closing_config(closed)]


def focus_shape(rng, vocab):
    """A small concept-level ontology with a schema, closed, fixed and
    determined queries.  Fixed queries come only with concept inclusions,
    whose bounded models are exhaustive."""
    fixing = rng.random() < 0.4
    axioms = random_axioms(rng, rng.choice(FOCUS_AXIOMS), vocab, rsub=False, func=False)
    fixed = []
    if fixing:
        axioms = {a for a in axioms if isinstance(a, ConceptInclusion)}
        fixed = [rng.choice(vocab.concepts)]
    schema = rng.sample(vocab.concepts, rng.choice((1, 2)))
    closed = [n for n in schema if rng.random() < 0.6]
    config = FocusingConfiguration.of(
        schema=schema,
        closed=[instance_query(n) for n in closed],
        fixed=[instance_query(n) for n in fixed],
        determined=[instance_query(rng.choice(vocab.concepts))],
        name="F",
    )
    return "fixed" if fixing else "open", [Ontology.of(axioms, name="O"), config]


def query_service(rng, vocab):
    """One ontology of the knowledge-enriched database, with its closed
    concepts and, sometimes, a closed role."""
    onto = Ontology.of(random_axioms(rng, rng.choice(QUERY_AXIOMS), vocab, func=False), name="O")
    concepts = _occurring(vocab.concepts, onto) or list(vocab.concepts[:1])
    closed = [instance_query(n) for n in rng.sample(concepts, min(2, len(concepts)))]
    roles = [r for r in vocab.roles if r in onto.role_names()]
    if roles and rng.random() < 0.25:
        closed.append(role_query(roles[0]))
    schema = set(vocab.concepts) | set(roles)
    return onto, FocusingConfiguration(frozenset(schema), tuple(closed), (), (), "F")


def query_request(rng, vocab, onto):
    """A database over 1-3 constants and a Boolean conjunctive query."""
    consts = vocab.constants[: rng.choice((1, 2, 3))]
    roles = [r for r in vocab.roles if r in onto.role_names()]
    facts = set()
    for _ in range(rng.choice((1, 2, 3))):
        if roles and rng.random() < 0.3:
            facts.add((rng.choice(roles), (rng.choice(consts), rng.choice(consts))))
        else:
            facts.add((rng.choice(vocab.concepts), (rng.choice(consts),)))
    x, y = Var("x"), Var("y")
    atoms = [QueryAtom(rng.choice(vocab.concepts), (x,))]
    if rng.random() < 0.4:
        atoms.append(QueryAtom(rng.choice(vocab.roles), (x, y)))
        atoms.append(QueryAtom(rng.choice(vocab.concepts), (y,)))
    return [Instance(frozenset(facts), "I"), CQ((), tuple(atoms), "goal")]


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, count: int) -> List[Tuple[int, str, str, list]]:
    """The first `count` problems of a workload under a seed, as
    (index, family, document, blocks) with the blocks the document
    was rendered from."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    out = []
    if workload == "query":
        services = []
        for k in range(QUERY_ONTOLOGIES):
            vocab = QUERY_VOCABULARY.permuted(random.Random("query/%d/service%d" % (seed, k)))
            services.append((vocab,) + query_service(random.Random("query/service%d" % k), vocab))
    for i in range(count):
        shape = random.Random("%s/%d" % (workload, i))
        names = random.Random("%s/%d/%d" % (workload, seed, i))
        if workload == "emptiness":
            family, blocks = (
                chain_problem() if i == 0 else emptiness_shape(shape, EMPTINESS_VOCABULARY.permuted(names))
            )
        elif workload == "focus":
            family, blocks = (
                disaster_problem() if i == 0 else focus_shape(shape, FOCUS_VOCABULARY.permuted(names))
            )
        else:
            k = i % QUERY_ONTOLOGIES
            vocab, onto, config = services[k]
            family = "service%d" % k
            blocks = [onto, config] + query_request(shape, vocab, onto)
        out.append((i, family, "".join(parser.serialize(b) for b in blocks), blocks))
    return out


def _same_block(a, b) -> bool:
    if isinstance(a, Ontology):
        return a.axioms == b.axioms and a.general_axioms == b.general_axioms
    if isinstance(a, Instance):
        return a.atoms == b.atoms
    return a == b


def parse_problem(index: int, family: str, document: str, blocks: list) -> Problem:
    """Parse a problem document and check that every block round-trips."""
    parsed = parser.parse_document(document)
    if len(parsed) != len(blocks) or not all(map(_same_block, blocks, parsed)):
        raise ValueError("problem %d does not round-trip through its document" % index)
    onto, config, *rest = parsed
    return Problem(index, family, onto, config, *rest)
