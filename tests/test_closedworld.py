import random

import pytest

from ontofocus.closedworld import (
    closed_extension_exists,
    exact_instance_bound,
    in_cwa,
    in_fix,
    intended_models_bounded,
    nullability,
    pinned_predicates,
    query_suppression_axiom,
    theory_answers,
)
from ontofocus.errors import DialectError
from ontofocus.oracle import (
    AnswerSet,
    EMPTY,
    Instance,
    enumerate_extensions,
    enumeration_is_exhaustive,
)
from ontofocus.syntax import (
    BOT,
    ConceptInclusion,
    ExistsAxiom,
    ForallAxiom,
    FocusingConfiguration,
    Functional,
    Ontology,
    QueryAtom,
    CQ,
    TOP,
    Var,
    instance_query,
    named,
    nominal,
    role,
    role_query,
)

from genutil import random_normal_ontology

A, B, C = named("A"), named("B"), named("C")
x = Var("x")

DISASTER = Ontology.of(
    [
        ConceptInclusion((named("Disaster"),), (named("Flood"), named("Drought"))),
        ConceptInclusion((named("Flood"),), (named("Disaster"),)),
        ConceptInclusion((named("Drought"),), (named("Disaster"),)),
    ]
)


def test_in_cwa_examples():
    i = Instance.of(("A", "c"))
    assert in_cwa(Ontology.of(), i, [], Instance.of(("A", "c"), ("B", "c")))
    q = instance_query("A")
    assert in_cwa(Ontology.of(), i, [q], Instance.of(("A", "c"), ("B", "c")))
    assert not in_cwa(Ontology.of(), i, [q], Instance.of(("A", "c"), ("A", "d")))
    assert not in_cwa(Ontology.of(), Instance.of(("A", "c")), [], EMPTY)


def test_in_fix_examples():
    q = instance_query("Drought")
    base_answers = {q: AnswerSet(1, frozenset())}
    i = Instance.of(("Flood", "c"))
    good = Instance.of(("Flood", "c"), ("Disaster", "c"))
    bad = good.with_atoms([("Drought", ("c",))])
    assert in_fix(DISASTER, i, [q], good, base_answers)
    assert not in_fix(DISASTER, i, [q], bad, base_answers)
    with pytest.raises(ValueError, match="missing base answers"):
        in_fix(DISASTER, i, [q], good, {})


def test_theory_answers_empty_for_disaster():
    q = instance_query("Drought")
    assert theory_answers(DISASTER, q).tuples == frozenset()


def test_intended_models_disaster():
    config = FocusingConfiguration.of(
        schema={"Flood"},
        closed=[instance_query("Flood")],
        fixed=[instance_query("Drought")],
    )
    i = Instance.of(("Flood", "c"))
    models = list(intended_models_bounded(DISASTER, config, i, fresh_bound=1))
    assert models
    for m in models:
        assert m.concept_atoms("Drought") == frozenset()
        assert m.concept_atoms("Flood") == frozenset({"c"})
        assert "c" in m.concept_atoms("Disaster")


def test_intended_models_empty_on_contradiction():
    onto = Ontology.of([ConceptInclusion((A,), (BOT,))])
    config = FocusingConfiguration.of(schema={"A"})
    assert list(intended_models_bounded(onto, config, Instance.of(("A", "c")))) == []


def test_intended_models_unconstrained_equals_extension_stream():
    config = FocusingConfiguration.of(schema={"A"})
    i = Instance.of(("A", "c"))
    got = [m.atoms for m in intended_models_bounded(Ontology.of(), config, i, 1)]
    want = [m.atoms for m in enumerate_extensions(Ontology.of(), i, 1)]
    assert got == want


def _intended_models_by_filter(onto, config, base, fresh_bound):
    """The intended models as the `in_cwa`/`in_fix` filter over the
    unpinned extension stream."""
    fixed_answers = {q: theory_answers(onto, q, fresh_bound) for q in config.fixed}
    queries = [*config.closed, *config.fixed, *config.determined]
    for j in enumerate_extensions(onto, base, fresh_bound, queries=queries):
        if in_cwa(onto, base, config.closed, j) and in_fix(
            onto, base, config.fixed, j, fixed_answers
        ):
            yield j


def test_intended_models_pin_closed_predicates_by_arity():
    # P is a role of the ontology, so the closed P(x) pins no role atom
    onto = Ontology.of([ExistsAxiom(A, role("P"), TOP)])
    config = FocusingConfiguration.of(schema={"A", "P"}, closed=[instance_query("P")])
    i = Instance.of(("A", "c"))
    got = list(intended_models_bounded(onto, config, i, 1))
    assert len(got) == 21
    assert got == list(_intended_models_by_filter(onto, config, i, 1))


def test_intended_models_equal_filtered_stream_differential():
    rng = random.Random(23)
    has_r = CQ((x,), (QueryAtom("r", (x, Var("y"))),))  # not atomic: pins nothing
    queries = [instance_query("A"), instance_query("B"), role_query("r"), role_query("s"), has_r]
    nonempty = 0
    for _ in range(30):
        onto = random_normal_ontology(rng, n_axioms=3, concepts=["A", "B"], roles=["r", "s"])
        closed = [q for q in queries if rng.random() < 0.4]
        fixed = [instance_query("B")] if rng.random() < 0.3 else []
        config = FocusingConfiguration.of(schema={"A", "B", "r", "s"}, closed=closed, fixed=fixed)
        pool = [("A", ("c",)), ("B", ("c",)), ("r", ("c", "c")), ("s", ("c", "c"))]
        base = Instance(frozenset(a for a in pool if rng.random() < 0.5))
        got = list(intended_models_bounded(onto, config, base, 1))
        assert got == list(_intended_models_by_filter(onto, config, base, 1))
        nonempty += bool(got)
    assert nonempty >= 10


# ---------------------------------------------------------------------------
# closed_extension_exists
# ---------------------------------------------------------------------------


def test_closed_extension_trivial():
    assert closed_extension_exists(Ontology.of(), Instance.of(("A", "c")), set())


def test_closed_extension_blocked_witness():
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])
    assert not closed_extension_exists(onto, Instance.of(("A", "c")), {("B", 1)})
    assert closed_extension_exists(
        onto, Instance.of(("A", "c"), ("B", "d")), {("B", 1)}
    )


def test_closed_extension_rejects_functionality():
    onto = Ontology.of([Functional(role("r"))])
    with pytest.raises(DialectError):
        closed_extension_exists(onto, EMPTY, set())


def test_closed_extension_nominal_obligation():
    onto = Ontology.of([ConceptInclusion((nominal("c"),), (A,)), ConceptInclusion((A,), (BOT,))])
    assert not closed_extension_exists(onto, EMPTY, set())


def test_closed_extension_agrees_with_oracle():
    rng = random.Random(77)
    checked_true = checked_false = 0
    for _ in range(25):
        onto = random_normal_ontology(
            rng,
            n_axioms=rng.randint(1, 3),
            concepts=["A", "B"],
            roles=["r"],
            allow_func=False,
            allow_nominal=rng.random() < 0.2,
        )
        base_atoms = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.7:
                base_atoms.append((rng.choice("AB"), rng.choice("cd")))
            else:
                base_atoms.append(("r", rng.choice("cd"), rng.choice("cd")))
        base = Instance.of(*base_atoms)
        closed = [c for c in ["B"] if rng.random() < 0.7]
        exact = closed_extension_exists(onto, base, {(c, 1) for c in closed})

        def closed_filter(j):
            return all(
                j.concept_atoms(c) == base.concept_atoms(c) for c in closed
            )

        oracle_found = next(
            filter(closed_filter, enumerate_extensions(onto, base, 1)), None
        )
        if oracle_found is not None:
            assert exact, "oracle found %s but exact says no for %s" % (
                oracle_found,
                onto,
            )
            checked_true += 1
        if not exact:
            assert oracle_found is None
            checked_false += 1
    assert checked_true >= 5


def _agrees_with_oracle(onto, base, closed_queries) -> bool:
    """Compare the exact verdict with the first model of the bounded
    extension stream that adds no atom of a closed predicate (a CWA
    member, as the closed queries are atomic); returns the verdict."""
    pinned = pinned_predicates(closed_queries)
    exact = closed_extension_exists(onto, base, pinned)
    model = next(enumerate_extensions(onto, base, 1, closed_queries, pinned), None)
    if not exact:
        assert model is None, "model %s of %s refutes the exact no" % (model, onto)
    elif enumeration_is_exhaustive(onto, base.adom() | onto.constants()):
        assert model is not None, "no model of %s backs the exact yes" % (onto,)
    return exact


def test_closed_extension_with_closed_roles_agrees_with_oracle():
    rng = random.Random(41)
    pool = [("A", ("c",)), ("B", ("c",)), ("r", ("c", "c")), ("s", ("c", "c"))]
    verdicts = []
    for _ in range(40):
        onto = random_normal_ontology(
            rng, n_axioms=rng.randint(2, 4), concepts=["A", "B"], roles=["r", "s"],
            allow_func=False,
        )
        closed = [instance_query(c) for c in "AB" if rng.random() < 0.4] + [role_query("s")]
        if rng.random() < 0.3:
            closed.append(role_query("r"))
        base = Instance(frozenset(a for a in pool if rng.random() < 0.4))
        verdicts.append(_agrees_with_oracle(onto, base, closed))
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    # DL-Lite ontologies with r closed, over databases with two constants
    rng = random.Random(3)
    for _ in range(4):
        onto = random_normal_ontology(
            rng, n_axioms=2, concepts=["A", "B"], roles=["r"], allow_func=False,
            allow_rsub=False, allow_inverse=False, lite=True,
            allow_nominal=rng.random() < 0.3,
        )
        for base in [
            Instance.of(),
            Instance.of(("A", "c")),
            Instance.of(("r", "c", "d")),
            Instance.of(("A", "c"), ("r", "c", "d")),
            Instance.of(("B", "c"), ("r", "d", "c")),
        ]:
            _agrees_with_oracle(onto, base, [role_query("r")])


# ---------------------------------------------------------------------------
# nullability
# ---------------------------------------------------------------------------


def test_suppression_axioms():
    assert query_suppression_axiom(instance_query("A")) == ConceptInclusion((A,), (BOT,))
    assert query_suppression_axiom(role_query("r")) == ForallAxiom(TOP, role("r"), BOT)


def test_nullability_negative_nominal_witness():
    onto = Ontology.of([ExistsAxiom(nominal("c"), role("r"), A)])
    verdict = nullability(onto, [], [], instance_query("A"), instance_bound=3)
    assert verdict.kind == "not_nullable"
    assert verdict.witness is not None and verdict.witness.atoms == frozenset()


def test_nullability_trivial_positive():
    verdict = nullability(Ontology.of(), [], [], instance_query("A"), instance_bound=3)
    assert verdict.kind == "nullable"


def test_nullability_disjunction_gives_room():
    onto = Ontology.of([ConceptInclusion((A,), (B, C))])
    bound = exact_instance_bound(onto)
    verdict = nullability(onto, ["A"], [], instance_query("B"), instance_bound=bound)
    assert verdict.kind == "nullable"
    # below the exact bound the positive verdict honestly degrades
    small = nullability(onto, ["A"], [], instance_query("B"), instance_bound=2)
    assert small.kind == "unknown"
    assert small.paper_bound == bound


def test_nullability_closed_concepts_matter():
    # closing B pins B to the database: a database with A(c) and no B
    # cannot extend at all, which rescues nullability vacuously
    onto = Ontology.of([ConceptInclusion((A,), (B,))])
    verdict = nullability(
        onto, ["A"], [instance_query("B")], instance_query("B"),
        instance_bound=exact_instance_bound(onto),
    )
    assert verdict.kind == "nullable"


def test_nullability_witness_transfers_to_larger_schema():
    onto = Ontology.of([ExistsAxiom(nominal("c"), role("r"), A)])
    small = nullability(onto, [], [], instance_query("A"), instance_bound=3)
    big = nullability(onto, ["B"], [], instance_query("A"), instance_bound=3)
    assert small.kind == big.kind == "not_nullable"
    # the small-schema witness remains legal and refuting for the big one
    assert small.witness.atoms <= big.witness.atoms or big.witness is not None


def test_nullability_rejects_closed_role_queries():
    with pytest.raises(DialectError):
        nullability(
            Ontology.of(), [], [role_query("r")], instance_query("A"), instance_bound=3
        )
