import itertools
import random

import pytest

from ontofocus import entailment
from ontofocus.closedworld import in_cwa
from ontofocus.entailment import (
    NODE_PREFIX,
    EntailmentVerdict,
    NType,
    build_bad_match_ucq,
    build_type_links,
    check_coherence,
    entails_under_closed_queries,
    enumerate_ntypes,
    evaluate_with_markers,
    minimal_coherent_sets,
    _base_candidates,
)
from ontofocus.errors import ResourceCeilingError
from ontofocus.oracle import (
    EMPTY,
    Instance,
    _axiom_holds,
    _element_mem,
    enumerate_extensions,
    evaluate_query,
    simple_extension,
)
from ontofocus.syntax import (
    BOT,
    CQ,
    ConceptInclusion,
    ExistsAxiom,
    ForallAxiom,
    Ontology,
    QueryAtom,
    Role,
    RoleInclusion,
    TOP,
    UCQ,
    Var,
    closure_of,
    inv,
    instance_query,
    named,
    nominal,
    normalize,
    role,
    role_closure,
)

from genutil import random_normal_ontology

A, B, C = named("A"), named("B"), named("C")
x, y = Var("x"), Var("y")

DISASTER = Ontology.of(
    [
        ConceptInclusion((named("Disaster"),), (named("Flood"), named("Drought"))),
        ConceptInclusion((named("Flood"),), (named("Disaster"),)),
        ConceptInclusion((named("Drought"),), (named("Disaster"),)),
    ]
)


def boolean(atoms):
    return CQ((), tuple(atoms))


# ---------------------------------------------------------------------------
# bad-match rewriting
# ---------------------------------------------------------------------------


def test_bad_match_empty_closed_set():
    out = build_bad_match_ucq([], Instance.of(("A", "c")))
    assert out.disjuncts == ()
    assert not evaluate_with_markers(Instance.of(("A", "c")), out, {"c"}).holds()


def test_bad_match_single_answer():
    base = Instance.of(("A", "c"))
    out = build_bad_match_ucq([instance_query("A")], base)
    # only escape: a fresh A-element
    assert len(out.disjuncts) == 1
    j_ok = Instance.of(("A", "c"), ("B", "c"))
    assert not evaluate_with_markers(j_ok, out, base.adom()).holds()
    j_bad = Instance.of(("A", "c"), ("A", "e"))
    assert evaluate_with_markers(j_bad, out, base.adom()).holds()


def test_bad_match_includes_adom_non_answers():
    base = Instance.of(("A", "c"), ("B", "d"))
    out = build_bad_match_ucq([instance_query("A")], base)
    assert len(out.disjuncts) == 2  # A(d) plus the fresh-element escape
    j = Instance.of(("A", "c"), ("B", "d"), ("A", "d"))
    assert evaluate_with_markers(j, out, base.adom()).holds()


def test_bad_match_equals_cwa_membership_on_oracle_stream():
    # exact correspondence: CWA membership == (model and no bad match)
    rng = random.Random(15)
    for _ in range(10):
        onto = random_normal_ontology(
            rng, n_axioms=2, concepts=["A", "B"], roles=["r"],
            allow_func=False, allow_nominal=False,
        )
        base = Instance.of(("A", "c"), ("r", "c", "d"))
        closed = [instance_query("A")]
        if rng.random() < 0.5:
            closed.append(CQ((x,), (QueryAtom("A", (x,)), QueryAtom("r", (x, y)))))
        q_hat = build_bad_match_ucq(closed, base)
        for j in enumerate_extensions(onto, base, 1, queries=[instance_query("A"), instance_query("B")]):
            lhs = in_cwa(onto, base, closed, j)
            rhs = not evaluate_with_markers(j, q_hat, base.adom()).holds()
            assert lhs == rhs, "mismatch on %s" % (j,)


# ---------------------------------------------------------------------------
# type links
# ---------------------------------------------------------------------------


def test_type_links_unconstrained():
    # no concept inclusions: every set of concept names is a type
    types = build_type_links(Ontology.of([ExistsAxiom(A, role("r"), B)]))
    assert types == {frozenset(), frozenset("A"), frozenset("B"), frozenset("AB")}


def test_type_links_respect_bottom():
    onto = Ontology.of([ConceptInclusion((A,), (BOT,))])
    types = build_type_links(onto)
    assert types == {frozenset()}  # no type contains A


def test_type_links_value_restriction():
    # the type set admits edges into non-B types; the n-type check makes
    # every r-successor carry B
    onto = Ontology.of([ExistsAxiom(A, role("r"), TOP), ForallAxiom(TOP, role("r"), B)])
    edges = 0
    for nt in enumerate_ntypes(onto, EMPTY, frozenset(), build_type_links(onto)):
        for _, y in nt.combined().role_pairs(role("r")):
            edges += 1
            assert ("B", (y,)) in nt.tree_atoms
    assert edges


# ---------------------------------------------------------------------------
# n-types and coherence
# ---------------------------------------------------------------------------


def test_ntypes_trivial_ontology():
    links = build_type_links(Ontology.of())
    types = enumerate_ntypes(Ontology.of(), EMPTY, frozenset(), links)
    assert len(types) == 1
    (nt,) = types
    assert nt.tree_atoms == frozenset()  # lone root with the empty type


def test_ntypes_witnessed_existential():
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])
    links = build_type_links(onto)
    types = enumerate_ntypes(onto, EMPTY, frozenset(), links)
    rooted_a = [
        nt for nt in types if ("A", (nt.root,)) in nt.tree_atoms
    ]
    assert rooted_a
    for nt in rooted_a:
        succ = nt.successors()
        assert any(
            ("r", (nt.root, d)) in nt.tree_atoms and ("B", (d,)) in nt.tree_atoms
            for d in succ
        )


def test_ntypes_respect_role_inclusions():
    from ontofocus.syntax import RoleInclusion

    onto = Ontology.of([ExistsAxiom(A, role("r"), B), RoleInclusion(role("r"), role("s"))])
    links = build_type_links(onto)
    for nt in enumerate_ntypes(onto, EMPTY, frozenset(), links):
        combined = nt.combined()
        assert combined.role_pairs(role("r")) <= combined.role_pairs(role("s"))


def reference_ntypes(onto, base_restriction, adom0, types, filtered=True):
    """The generate-and-filter definition of `enumerate_ntypes`: build
    every tree from every witness choice and in-edge set, and keep those
    on whose union with the restriction the value restrictions and role
    inclusions hold (all of them when not `filtered`)."""
    clo = role_closure(onto)
    ordered_types = sorted(types, key=sorted)
    fresh_mem = {t: _element_mem(None, t, True) for t in ordered_types}
    exists_axioms = [a for a in onto.sorted_axioms() if isinstance(a, ExistsAxiom)]
    tree_axioms = [
        a for a in onto.sorted_axioms() if isinstance(a, (ForallAxiom, RoleInclusion))
    ]
    roles = sorted(
        {Role(nm, False) for nm in onto.role_names()}
        | {Role(nm, True) for nm in onto.role_names()}
    )
    in_edge_pool = [(c, r) for c in sorted(adom0) for r in roles]
    root = NODE_PREFIX + "1"
    out = []
    for root_t in ordered_types:
        obligations = [a for a in exists_axioms if fresh_mem[root_t](a.lhs)]
        witness_options = []
        for a in obligations:
            opts = [("fresh", a.role, t2) for t2 in ordered_types if fresh_mem[t2](a.filler)]
            filler = simple_extension(base_restriction, a.filler)
            opts += [("const", a.role, c) for c in sorted(adom0) if c in filler]
            witness_options.append(opts)
        for combo in itertools.product(*witness_options):
            for k in range(len(in_edge_pool) + 1):
                for in_edges in itertools.combinations(in_edge_pool, k):
                    atoms = {(a, (root,)) for a in root_t}
                    counter = 2
                    for kind, r, target in combo:
                        if kind == "fresh":
                            endpoint = NODE_PREFIX + str(counter)
                            counter += 1
                            atoms |= {(cname, (endpoint,)) for cname in target}
                        else:
                            endpoint = target
                        for s in closure_of([r], clo):
                            atoms.add((s.name, (endpoint, root) if s.inverted else (root, endpoint)))
                    for c, r in in_edges:
                        for s in closure_of([r], clo):
                            atoms.add((s.name, (root, c) if s.inverted else (c, root)))
                    nt = NType(base_restriction, root, frozenset(atoms))
                    combined = nt.combined()
                    if not filtered or all(_axiom_holds(combined, a) for a in tree_axioms):
                        out.append(nt)
                        if len(out) > entailment.NTYPE_CEILING:
                            raise ResourceCeilingError("n-types exceed entailment.NTYPE_CEILING")
    unique = {}
    for nt in out:
        unique.setdefault(nt.tree_atoms, nt)
    return list(unique.values())


def _ntype_cases(count):
    """Seeded ontologies with inverse roles, role inclusions, value
    restrictions and the nominal {c0}, over 0-2 database constants (c0
    among them or not), each with up to three base restrictions."""
    for seed in range(count):
        rng = random.Random(seed)
        onto = normalize(
            random_normal_ontology(
                rng, rng.randint(3, 5), concepts=["A", "B"], roles=["r", "s"],
                allow_nominal=True, allow_func=False,
            )
        )
        base = Instance.of(*rng.choice([
            [],
            [("A", "c0")],
            [("B", "c1")],
            [("A", "c0"), ("r", "c0", "c1")],
            [("B", "c1"), ("s", "c1", "c0")],
        ]))
        try:
            restrictions = list(itertools.islice(_base_candidates(onto, base, []), 3))
        except ResourceCeilingError:
            continue
        for restriction in restrictions:
            yield seed, onto, restriction, base.adom(), build_type_links(onto)


def _ntypes_or_ceiling(build, *args):
    try:
        return [(nt.base, nt.root, nt.tree_atoms) for nt in build(*args)]
    except ResourceCeilingError as exc:
        return str(exc)


def test_enumerate_ntypes_matches_generate_and_filter():
    # the lists must be equal element by element; `pruned` counts the
    # cases where the filter rejects some tree, so that a part check
    # left out shows
    compared = pruned = 0
    for seed, onto, restriction, adom0, types in _ntype_cases(60):
        expected = _ntypes_or_ceiling(reference_ntypes, onto, restriction, adom0, types)
        got = _ntypes_or_ceiling(enumerate_ntypes, onto, restriction, adom0, types)
        assert got == expected, "seed %d, restriction %s" % (seed, restriction)
        every = _ntypes_or_ceiling(reference_ntypes, onto, restriction, adom0, types, False)
        compared += 1
        pruned += every != expected
    assert compared >= 60 and pruned >= 10, (compared, pruned)


def test_enumerate_ntypes_ceiling_matches_generate_and_filter(monkeypatch):
    monkeypatch.setattr(entailment, "NTYPE_CEILING", 6)
    raised = 0
    for seed, onto, restriction, adom0, types in _ntype_cases(30):
        expected = _ntypes_or_ceiling(reference_ntypes, onto, restriction, adom0, types)
        got = _ntypes_or_ceiling(enumerate_ntypes, onto, restriction, adom0, types)
        assert got == expected, "seed %d, restriction %s" % (seed, restriction)
        raised += isinstance(got, str)
    assert raised


def test_coherence_shared_base_required():
    links = build_type_links(Ontology.of())
    b1 = Instance.of(("A", "c"))
    b2 = Instance.of(("B", "c"))
    (t1,) = enumerate_ntypes(Ontology.of(), b1, b1.adom(), links)[:1]
    (t2,) = enumerate_ntypes(Ontology.of(), b2, b2.adom(), links)[:1]
    assert not check_coherence(Ontology.of(), [t1, t2], {"c"})


def test_minimal_coherent_sets_pass_check_coherence():
    # the gap search leaves the coherence check out: its families must
    # pass it by construction
    families = 0
    for seed, onto, restriction, adom0, types in _ntype_cases(40):
        try:
            ntypes = enumerate_ntypes(onto, restriction, adom0, types)
        except ResourceCeilingError:
            continue
        for fam in minimal_coherent_sets(onto, ntypes, adom0)[0]:
            assert check_coherence(onto, list(fam), adom0), "seed %d" % seed
            families += 1
    assert families >= 20, families


def test_minimal_coherent_sets_cover_obligations():
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])
    base = Instance.of(("A", "c"))
    links = build_type_links(onto)
    ntypes = enumerate_ntypes(onto, base, base.adom(), links)
    families, complete = minimal_coherent_sets(onto, ntypes, base.adom())
    assert complete and families
    for fam in families:
        assert check_coherence(onto, list(fam), base.adom())


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def test_entailed_trivially_by_base():
    v = entails_under_closed_queries(
        Ontology.of(), Instance.of(("A", "c")), [], boolean([QueryAtom("A", (x,))])
    )
    assert v.kind == "entailed"


@pytest.mark.parametrize(
    "onto, base, q",
    [
        # a two-variable query: the tree layer supports depth one only
        (
            Ontology.of([ExistsAxiom(A, role("r"), B), ForallAxiom(B, role("s"), A)]),
            Instance.of(("A", "c"), ("r", "c", "d")),
            boolean([QueryAtom("r", (x, y))]),
        ),
        # a nominal outside the database: the tree layer does not cover it
        (
            Ontology.of([ConceptInclusion((B,), (nominal("e"),)), ExistsAxiom(A, role("r"), B)]),
            Instance.of(("A", "c")),
            boolean([QueryAtom("A", (x,))]),
        ),
    ],
    ids=["two-variable-query", "nominal-outside-database"],
)
def test_query_true_in_the_database_is_entailed(onto, base, q):
    v = entails_under_closed_queries(onto, base, [], q)
    assert v.kind == "entailed" and "database" in v.note


def test_oracle_agreement_with_queries_true_in_the_database():
    # every CWA-member extension contains the database, so a query that
    # matches it holds in every member the oracle finds
    members = 0
    for seed in range(20):
        rng = random.Random(seed)
        onto = normalize(
            random_normal_ontology(rng, 3, concepts=["A", "B"], roles=["r"], allow_func=False)
        )
        base = Instance.of(("A", "c"), ("r", "c", "d"), ("B", "d"))
        closed = [instance_query("B")] if rng.random() < 0.5 else []
        q = boolean(rng.choice([
            [QueryAtom("A", (x,))],
            [QueryAtom("r", (x, y)), QueryAtom("B", (y,))],
            [QueryAtom("r", (x, y)), QueryAtom("A", (x,)), QueryAtom("r", (x, Var("z")))],
        ]))
        assert entails_under_closed_queries(onto, base, closed, q).kind == "entailed"
        queries = [instance_query("A"), instance_query("B"), q]
        for j in enumerate_extensions(onto, base, 1, queries=queries):
            if in_cwa(onto, base, closed, j):
                assert evaluate_query(j, q).holds(), "seed %d: %s" % (seed, j)
                members += 1
    assert members, "no seed has a CWA member"


def test_not_entailed_with_counterexample():
    v = entails_under_closed_queries(
        Ontology.of(), Instance.of(("A", "c")), [], boolean([QueryAtom("B", (x,))])
    )
    assert v.kind == "not_entailed"
    assert v.counter_model is not None
    assert not evaluate_query(v.counter_model, boolean([QueryAtom("B", (x,))])).holds()


def test_database_constant_with_nominal_type_sends_edges():
    # A ⊑ {c} rules type {A} out for fresh nodes only: c itself may still
    # send an s-edge to a fresh root, which avoids s(x,x)
    onto = Ontology.of([ConceptInclusion((A,), (nominal("c"),)), ExistsAxiom(A, role("s"), TOP)])
    base = Instance.of(("A", "c"))
    q = boolean([QueryAtom("s", (x, x))])
    v = entails_under_closed_queries(onto, base, [], q)
    assert v.kind == "not_entailed"
    assert in_cwa(onto, base, [], v.counter_model)
    assert not evaluate_query(v.counter_model, q).holds()


@pytest.mark.parametrize(
    "axioms, base",
    [
        # the existential A ⊑ ∃r.{c} is served by the database constant c
        (
            [ExistsAxiom(B, role("s"), A), ExistsAxiom(A, role("r"), nominal("c"))],
            Instance.of(("B", "c")),
        ),
        # the value restriction B ⊑ ∀r.{c} sends every r-edge of a B to c
        (
            [
                ExistsAxiom(C, role("s"), B),
                ExistsAxiom(B, role("r"), TOP),
                ForallAxiom(B, role("r"), nominal("c")),
            ],
            Instance.of(("C", "c")),
        ),
    ],
    ids=["exists-nominal-filler", "forall-nominal-filler"],
)
def test_nominal_fillers_leave_room_for_a_counter_model(axioms, base):
    # a fresh s-successor of c carries the r-edge back to c, so no r-loop
    onto = Ontology.of(axioms)
    q = boolean([QueryAtom("r", (x, x))])
    v = entails_under_closed_queries(onto, base, [], q)
    assert v.kind == "not_entailed"
    assert in_cwa(onto, base, [], v.counter_model)
    assert not evaluate_query(v.counter_model, q).holds()


def test_closing_a_disjunct_forces_the_other():
    onto = Ontology.of([ConceptInclusion((A,), (B, C))])
    base = Instance.of(("A", "c"))
    q = boolean([QueryAtom("C", (x,))])
    with_closed = entails_under_closed_queries(onto, base, [instance_query("B")], q)
    assert with_closed.kind == "entailed"
    without = entails_under_closed_queries(onto, base, [], q)
    assert without.kind == "not_entailed"


def test_disaster_probe():
    base = Instance.of(("Flood", "c"))
    q = boolean([QueryAtom("Disaster", (x,))])
    v = entails_under_closed_queries(DISASTER, base, [instance_query("Flood")], q)
    assert v.kind == "entailed"


def test_entailment_antitone_in_closed_set():
    # shrinking the closed set can only lose entailments
    onto = Ontology.of([ConceptInclusion((A,), (B, C))])
    base = Instance.of(("A", "c"))
    q = boolean([QueryAtom("C", (x,))])
    big = entails_under_closed_queries(onto, base, [instance_query("B")], q)
    small = entails_under_closed_queries(onto, base, [], q)
    if small.kind == "entailed":
        assert big.kind == "entailed"


def test_oracle_agreement_exhaustive_fragment():
    # on ontologies whose bounded enumeration is exhaustive (no
    # existentials), the verdict matches direct intersection
    rng = random.Random(123)
    for _ in range(12):
        names = [named(n) for n in "ABC"]
        axioms = set()
        for _ in range(rng.randint(1, 3)):
            lhs = tuple(rng.sample(names, rng.randint(1, 2)))
            rhs = tuple(rng.sample(names, rng.randint(1, 2)))
            if rng.random() < 0.2:
                rhs = (BOT,)
            axioms.add(ConceptInclusion(lhs, rhs))
        onto = Ontology.of(axioms)
        base = Instance.of(("A", "c"))
        closed = [instance_query("B")] if rng.random() < 0.5 else []
        q = boolean([QueryAtom(rng.choice("BC"), (x,))])
        verdict = entails_under_closed_queries(onto, base, closed, q)
        members = [
            j
            for j in enumerate_extensions(
                onto, base, 1, queries=[instance_query(p) for p in "ABC"]
            )
            if in_cwa(onto, base, closed, j)
        ]
        oracle = all(evaluate_query(j, q).holds() for j in members) if members else True
        if verdict.kind == "entailed":
            assert oracle, str(onto)
        elif verdict.kind == "not_entailed":
            assert not oracle, str(onto)


def test_oracle_agreement_with_roles_and_existentials():
    # role edges and existentials reach the n-type enumeration and its
    # value-restriction checks; the bounded oracle must not contradict a
    # decided verdict
    checked = {"entailed": 0, "not_entailed": 0}
    for seed in range(40):
        rng = random.Random(seed)
        onto = normalize(
            random_normal_ontology(rng, 3, concepts=["A", "B"], roles=["r"], allow_func=False)
        )
        if rng.random() < 0.5:
            base = Instance.of(("A", "c"))
        else:
            base = Instance.of(("A", "c"), ("r", "c", "d"))
        closed = [instance_query("B")] if rng.random() < 0.5 else []
        if rng.random() < 0.5:
            q = boolean([QueryAtom("B", (x,))])
        else:
            q = boolean([QueryAtom("r", (x, y)), QueryAtom("B", (y,))])
        verdict = entails_under_closed_queries(onto, base, closed, q)
        if verdict.kind == "entailed":
            queries = [instance_query("A"), instance_query("B"), q]
            for j in enumerate_extensions(onto, base, 1, queries=queries):
                if in_cwa(onto, base, closed, j):
                    assert evaluate_query(j, q).holds(), "seed %d: %s" % (seed, j)
        elif verdict.kind == "not_entailed":
            j = verdict.counter_model
            assert in_cwa(onto, base, closed, j), "seed %d" % seed
            assert not evaluate_query(j, q).holds(), "seed %d" % seed
        if verdict.kind in checked:
            checked[verdict.kind] += 1
    assert all(checked.values()), checked
