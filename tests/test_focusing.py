import dataclasses
import random
import re

import pytest

from ontofocus import entailment, ineq, mosaic
from ontofocus.closedworld import intended_models_bounded, nullability
from ontofocus.entailment import entails_under_closed_queries
from ontofocus.errors import DialectError, ResourceCeilingError, ScopeError, Verdict
from ontofocus.focusing import (
    ALWAYS_FALSE,
    Bounds,
    check_consistency,
    check_determinacy,
    check_emptiness,
    check_entailment,
    check_focus,
    eliminate_fixed_queries,
    is_legal,
)
from ontofocus.mosaic import mixed_sat
from ontofocus.oracle import EMPTY, Instance, evaluate_query, is_model
from ontofocus.parser import parse_document
from ontofocus.syntax import (
    BOT,
    CQ,
    ConceptInclusion,
    ExistsAxiom,
    FocusingConfiguration,
    Ontology,
    QueryAtom,
    RoleInclusion,
    TOP,
    Var,
    instance_query,
    named,
    nominal,
    normalize,
    role,
    role_query,
)

from genutil import CONCEPTS, random_normal_ontology

A, B, C = named("A"), named("B"), named("C")
x = Var("x")

DISASTER = Ontology.of(
    [
        ConceptInclusion((named("Disaster"),), (named("Flood"), named("Drought"))),
        ConceptInclusion((named("Flood"),), (named("Disaster"),)),
        ConceptInclusion((named("Drought"),), (named("Disaster"),)),
    ]
)

DISASTER_CONFIG = FocusingConfiguration.of(
    schema={"Flood"},
    closed=[instance_query("Flood")],
    fixed=[instance_query("Drought")],
)


def test_is_legal():
    cfg = FocusingConfiguration.of(schema={"A"})
    assert is_legal(Instance.of(("A", "c")), cfg)
    assert not is_legal(Instance.of(("B", "c")), cfg)


# ---------------------------------------------------------------------------
# fixed-query elimination
# ---------------------------------------------------------------------------


def test_eliminate_fixed_identity_without_fixed():
    cfg = FocusingConfiguration.of(schema={"A"})
    elim = eliminate_fixed_queries(Ontology.of(), cfg)
    assert elim.ontology is Ontology.of() or elim.ontology.axioms == frozenset()
    assert elim.config is cfg


def test_eliminate_fixed_disaster_shape():
    elim = eliminate_fixed_queries(DISASTER, DISASTER_CONFIG)
    assert elim.collector
    assert len(elim.config.fixed) == 1
    (fixed_q,) = elim.config.fixed
    assert fixed_q.atoms[0].pred == elim.collector
    # with empty theory answers the per-query concept is plain equivalence:
    # Drought itself feeds the collector
    names = elim.ontology.concept_names()
    assert elim.collector in names


def test_eliminate_fixed_preserves_intended_models():
    base = Instance.of(("Flood", "c"))
    before = sorted(
        m.restrict_predicates(["Flood", "Drought", "Disaster"]).atoms
        for m in intended_models_bounded(DISASTER, DISASTER_CONFIG, base, 1)
    )
    elim = eliminate_fixed_queries(DISASTER, DISASTER_CONFIG)
    onto2, cfg2 = elim.discharged()
    after = sorted(
        m.restrict_predicates(["Flood", "Drought", "Disaster"]).atoms
        for m in intended_models_bounded(onto2, cfg2, base, 1)
    )
    assert before == after


def test_eliminate_fixed_requires_certified_answers():
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])
    cfg = FocusingConfiguration.of(schema={"A"}, fixed=[instance_query("B")])
    with pytest.raises(ScopeError, match="certified"):
        eliminate_fixed_queries(onto, cfg)


# ---------------------------------------------------------------------------
# determinacy
# ---------------------------------------------------------------------------


def test_determinacy_vacuous():
    cfg = FocusingConfiguration.of(schema={"A"})
    v = check_determinacy(Ontology.of(), cfg)
    assert v.kind == "holds" and v.tier == "positive"


def test_determinacy_refuted_disjunction():
    onto = Ontology.of([ConceptInclusion((A,), (B, C))])
    cfg = FocusingConfiguration.of(
        schema={"A", "B"},
        closed=[instance_query("A"), instance_query("B")],
        determined=[instance_query("C")],
    )
    v = check_determinacy(onto, cfg)
    assert v.kind == "refuted"
    inst, j1, j2, q, tup = v.witness
    a1 = evaluate_query(j1, q)
    a2 = evaluate_query(j2, q)
    assert a1 != a2


def test_determinacy_disaster_holds():
    cfg = FocusingConfiguration.of(
        schema={"Flood"},
        closed=[instance_query("Flood")],
        fixed=[instance_query("Drought")],
        determined=[instance_query("Disaster")],
    )
    # no disagreement within the bounds, but they are not exhaustive
    v = check_determinacy(DISASTER, cfg, Bounds(instance_bound=2))
    assert v.kind == "unknown"
    assert v.note.startswith("instance_bound 2 is below the witness bound")


def test_determinacy_uncertified_holds_has_unknown_tier():
    # an existential axiom defeats the exhaustive certificate: the bounded
    # search finds no disagreement, which is not a proof
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])
    cfg = FocusingConfiguration.of(
        schema={"A", "B"},
        closed=[instance_query("A")],
        determined=[instance_query("A")],
    )
    v = check_determinacy(onto, cfg)
    assert v.kind == "unknown" and v.tier == "unknown"
    assert "existential axiom" in v.note


def test_determinacy_types_query_only_predicates_by_arity():
    # s occurs only in the determined query, with two arguments: the oracle
    # must build s-edges, and two intended models then disagree on them
    onto = Ontology.of()
    cfg = FocusingConfiguration.of(
        schema={"A"}, closed=[instance_query("A")], determined=[role_query("s")]
    )
    bounds = Bounds(fresh_bound=2, instance_bound=2)
    v = check_determinacy(onto, cfg, bounds)
    assert v.kind == "refuted"
    inst, j1, j2, q, tup = v.witness
    for j in (j1, j2):
        assert inst.atoms <= j.atoms
        assert is_model(j, onto)
        assert evaluate_query(j, cfg.closed[0]) == evaluate_query(inst, cfg.closed[0])
    assert q == cfg.determined[0]
    assert tup in evaluate_query(j1, q).tuples ^ evaluate_query(j2, q).tuples
    assert check_focus(onto, cfg, bounds).kind == "not_solution"


# ---------------------------------------------------------------------------
# focus
# ---------------------------------------------------------------------------


def test_focus_trivial_config_is_solution():
    cfg = FocusingConfiguration.of(schema={"A"})
    assert check_focus(Ontology.of(), cfg).kind == "solution"


def test_focus_disaster_fixture():
    # the exact witness bound for the compiled theory is 2^6 = 64, and
    # the schema is concept-only, so the bound is actually enumerable
    v = check_focus(DISASTER, DISASTER_CONFIG, Bounds(instance_bound=64))
    assert v.kind == "solution"
    assert v.consistency_condition.kind == "nullable"


def test_focus_entailment_gadget():
    # relativized theory: membership spreads along edges only inside the
    # gadget concept, so the empty configuration with one determined
    # query recognizes exactly the entailed case
    doc = """
ontology gadget
  sub G & A -> B
  sub {c} -> G
  sub {c} -> A
end
"""
    (onto,) = parse_document(doc)
    q = CQ((), (QueryAtom("B", (x,)),))
    cfg = FocusingConfiguration.of(determined=[q])
    v = check_focus(normalize(onto), cfg, Bounds(instance_bound=0, fresh_bound=1))
    # B(c) follows in every model, so answers agree: a focusing solution
    assert v.kind in ("solution", "unknown")
    if v.kind == "unknown":
        assert v.determinacy_condition.kind == "unknown"
        assert v.note == "condition 2: " + v.determinacy_condition.note

    bad = Ontology.of([ConceptInclusion((nominal("c"),), (A,))])
    cfg2 = FocusingConfiguration.of(determined=[CQ((), (QueryAtom("B", (x,)),))])
    v2 = check_focus(normalize(bad), cfg2, Bounds(instance_bound=0, fresh_bound=1))
    assert v2.kind == "not_solution"
    assert v2.determinacy_condition.kind == "refuted"


# ---------------------------------------------------------------------------
# emptiness
# ---------------------------------------------------------------------------


def test_emptiness_nominal_contradiction():
    onto = Ontology.of(
        [ConceptInclusion((nominal("c"),), (A,)), ConceptInclusion((A,), (BOT,))]
    )
    cfg = FocusingConfiguration.of(schema={"B"})
    assert check_emptiness(onto, cfg).kind == "empty"


def test_emptiness_trivial_negative():
    cfg = FocusingConfiguration.of()
    v = check_emptiness(Ontology.of(), cfg)
    assert v.kind == "nonempty"


def test_emptiness_equals_negated_mixed_sat():
    rng = random.Random(5)
    from genutil import random_alchif

    for _ in range(8):
        onto = random_alchif(rng, n_axioms=3)
        sigma = sorted(
            n for n in onto.concept_names() if rng.random() < 0.6
        )
        cfg = FocusingConfiguration.of(
            schema=set(sigma), closed=[instance_query(s) for s in sigma]
        )
        emptiness = check_emptiness(onto, cfg)
        ms = mixed_sat(onto, sigma)
        expected = {"sat": "nonempty", "unsat": "empty", "unknown": "unknown"}[ms.kind]
        assert emptiness.kind == expected


def test_emptiness_tile_ceiling_raises(monkeypatch):
    onto = Ontology.of([ConceptInclusion((nominal("c"),), (A,))])
    cfg = FocusingConfiguration.of(schema={"A"}, closed=[instance_query("A")])
    assert check_emptiness(onto, cfg).kind == "nonempty"
    monkeypatch.setattr(mosaic, "TILE_CEILING", 1)
    with pytest.raises(ResourceCeilingError):
        check_emptiness(onto, cfg)


def test_emptiness_unknown_names_the_solver_limits(monkeypatch):
    onto = Ontology.of(
        [
            ConceptInclusion((nominal("c"),), (A,)),
            ExistsAxiom(A, role("r"), B),
            ExistsAxiom(B, role("r"), B),
        ]
    )
    cfg = FocusingConfiguration.of(schema={"B"}, closed=[instance_query("B")])
    monkeypatch.setattr(ineq, "_NODE_BUDGET", 0)
    mixed = mixed_sat(onto, {"B"})
    assert mixed.kind == "unknown"
    for name in ("ineq._NODE_BUDGET = 0", "ineq.DEFAULT_VALUE_CAP"):
        assert name in mixed.note
    verdict = check_emptiness(onto, cfg)
    assert verdict.kind == "unknown" and verdict.note == mixed.note


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


def test_consistency_trivial():
    cfg = FocusingConfiguration.of(schema={"A"})
    v = check_consistency(Ontology.of(), cfg, Instance.of(("A", "c")))
    assert v.kind == "consistent"


def test_consistency_bottom():
    onto = Ontology.of([ConceptInclusion((A,), (BOT,))])
    cfg = FocusingConfiguration.of(schema={"A"})
    v = check_consistency(onto, cfg, Instance.of(("A", "c")))
    assert v.kind == "inconsistent"


def test_consistency_closed_witness_requirement():
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])
    cfg = FocusingConfiguration.of(
        schema={"A", "B"}, closed=[instance_query("B")]
    )
    assert check_consistency(onto, cfg, Instance.of(("A", "c"))).kind == "inconsistent"
    ok = check_consistency(onto, cfg, Instance.of(("A", "c"), ("B", "d")))
    assert ok.kind == "consistent"


@pytest.mark.parametrize(
    "axioms",
    [
        [ExistsAxiom(A, role("s"), TOP)],
        [RoleInclusion(role("p"), role("s")), ExistsAxiom(A, role("p"), TOP)],
        [ExistsAxiom(A, role("r"), B), ExistsAxiom(B, role("s"), TOP)],
    ],
    ids=["direct", "sub-role", "through-anonymous"],
)
def test_consistency_closed_role_obligation(axioms):
    # with s closed, an edge carrying s joins only a base s-pair, so no
    # anonymous element can serve an obligation over s
    onto = Ontology.of(axioms)
    cfg = FocusingConfiguration.of(schema={"A", "B", "s"}, closed=[role_query("s")])
    assert check_consistency(onto, cfg, Instance.of(("A", "c"))).kind == "inconsistent"
    served = check_consistency(onto, cfg, Instance.of(("A", "c"), ("s", "c", "d")))
    assert served.kind == "consistent"


def test_consistency_is_special_case_of_non_entailment():
    fixtures = [
        (Ontology.of(), FocusingConfiguration.of(schema={"A"}), Instance.of(("A", "c"))),
        (
            Ontology.of([ConceptInclusion((A,), (BOT,))]),
            FocusingConfiguration.of(schema={"A"}),
            Instance.of(("A", "c")),
        ),
        (
            Ontology.of([ExistsAxiom(A, role("r"), B)]),
            FocusingConfiguration.of(schema={"A", "B"}, closed=[instance_query("B")]),
            Instance.of(("A", "c")),
        ),
        (DISASTER, DISASTER_CONFIG, Instance.of(("Flood", "c"))),
    ]
    for onto, cfg, base in fixtures:
        cons = check_consistency(onto, cfg, base)
        ent = check_entailment(onto, cfg, base, ALWAYS_FALSE)
        if cons.kind == "consistent":
            assert ent.kind == "not_entailed"
        elif cons.kind == "inconsistent":
            assert ent.kind == "entailed"


# ---------------------------------------------------------------------------
# entailment dispatch
# ---------------------------------------------------------------------------


def test_entailment_dispatch_examples():
    v = check_entailment(
        Ontology.of(),
        FocusingConfiguration.of(schema={"A"}),
        Instance.of(("A", "c")),
        CQ((), (QueryAtom("A", (x,)),)),
    )
    assert v.kind == "entailed"

    onto = Ontology.of([ConceptInclusion((A,), (B, C))])
    cfg = FocusingConfiguration.of(schema={"A"}, closed=[instance_query("B")])
    v2 = check_entailment(onto, cfg, Instance.of(("A", "c")), CQ((), (QueryAtom("C", (x,)),)))
    assert v2.kind == "entailed"

    v3 = check_entailment(
        onto,
        FocusingConfiguration.of(schema={"A"}),
        Instance.of(("A", "c")),
        CQ((), (QueryAtom("C", (x,)),)),
    )
    assert v3.kind == "not_entailed"


def test_entailment_disaster_with_fixed():
    base = Instance.of(("Flood", "c"))
    q = CQ((), (QueryAtom("Disaster", (x,)),))
    v = check_entailment(DISASTER, DISASTER_CONFIG, base, q)
    assert v.kind == "entailed"

    q2 = CQ((), (QueryAtom("Drought", (x,)),))
    v2 = check_entailment(DISASTER, DISASTER_CONFIG, base, q2)
    assert v2.kind == "not_entailed"


def test_entailment_set_ceiling_gives_unknown(monkeypatch):
    onto = Ontology.of([ConceptInclusion((A,), (B, C))])
    cfg = FocusingConfiguration.of(schema={"A"}, closed=[instance_query("B")])
    base = Instance.of(("A", "c"))
    q = CQ((), (QueryAtom("C", (x,)),))
    assert check_entailment(onto, cfg, base, q).kind == "entailed"
    monkeypatch.setattr(entailment, "SET_CEILING", 1)
    v = check_entailment(onto, cfg, base, q)
    assert v.kind == "unknown"
    assert v.note == "base restriction space exceeds entailment.SET_CEILING"


# ---------------------------------------------------------------------------
# every unknown names its cause
# ---------------------------------------------------------------------------

# a `Bounds` field, a module constant that `Bounds` documents, or a limit
# of the fragment a procedure decides exactly
CAUSES = (
    tuple(f.name for f in dataclasses.fields(Bounds))
    + tuple(re.findall(r"`\w+\.(\w+)`", Bounds.__doc__))
    + ("existential axiom", "tree depth", "nominal constants outside", "the exact check excludes")
)


def _unknowns(verdict):
    """verdict and the verdicts nested in its fields that read unknown."""
    if verdict.kind == "unknown":
        yield verdict
    for f in dataclasses.fields(verdict):
        nested = getattr(verdict, f.name)
        if isinstance(nested, Verdict):
            yield from _unknowns(nested)


def test_every_unknown_names_its_cause():
    rng = random.Random(3)
    y = Var("y")
    seen = 0
    for _ in range(12):
        onto = normalize(random_normal_ontology(rng, 3, allow_func=rng.random() < 0.3))
        schema = set(rng.sample(CONCEPTS, 2)) | ({"r"} if rng.random() < 0.3 else set())
        closed = [instance_query(c) for c in sorted(schema - {"r"}) if rng.random() < 0.6]
        fixed = [instance_query(c) for c in CONCEPTS if c not in schema and rng.random() < 0.3]
        determined = [instance_query(rng.choice(CONCEPTS))]
        if rng.random() < 0.3:
            closed.append(CQ((x,), (QueryAtom("A", (x,)), QueryAtom("B", (x,)))))
            schema |= {"A", "B"}
        cfg = FocusingConfiguration.of(schema, closed, fixed, determined)
        unfixed = FocusingConfiguration.of(schema, closed)
        base = Instance.of(*[(c, "a") for c in sorted(schema - {"r"}) if rng.random() < 0.5])
        q = rng.choice(
            [CQ((), (QueryAtom(rng.choice(CONCEPTS), (x,)),)), CQ((), (QueryAtom("r", (x, y)),))]
        )
        bounds = Bounds(fresh_bound=1, instance_bound=1)
        calls = [
            lambda: check_focus(onto, cfg, bounds),
            lambda: check_emptiness(onto, unfixed),
            lambda: check_emptiness(onto, cfg, bounds),
            lambda: check_consistency(onto, unfixed, base, Bounds(fresh_bound=0)),
            lambda: check_entailment(onto, unfixed, base, q),
            lambda: nullability(onto, schema, closed, determined[0], instance_bound=1),
            lambda: mixed_sat(onto, sorted(schema)),
        ]
        for call in calls:
            try:
                verdict = call()
            except (DialectError, ResourceCeilingError, ScopeError):
                continue  # outside the procedure's fragment: a typed error, not a verdict
            for u in _unknowns(verdict):
                seen += 1
                assert any(cause in u.note for cause in CAUSES), repr(u)
    assert seen >= 10
