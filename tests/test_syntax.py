import random

import pytest

from ontofocus.syntax import (
    BOT,
    TOP,
    And,
    Atomic,
    ConceptInclusion,
    Dialect,
    Exists,
    ExistsAxiom,
    Forall,
    ForallAxiom,
    Functional,
    GeneralInclusion,
    Not,
    Ontology,
    Or,
    Role,
    RoleInclusion,
    classify_dialect,
    inv,
    named,
    nominal,
    normalize,
    role,
)
from ontofocus.oracle import Instance, enumerate_extensions, is_model, candidate_atoms

from genutil import random_normal_ontology


def test_role_double_inverse():
    r = role("r")
    assert r.inverse().inverse() == r
    assert inv("r") == r.inverse()


def test_concept_inclusion_compares_as_multiset():
    a, b, c = named("A"), named("B"), named("C")
    assert ConceptInclusion((a, b), (c,)) == ConceptInclusion((b, a), (c,))
    assert len({ConceptInclusion((a, b), (c,)), ConceptInclusion((b, a), (c,))}) == 1
    assert ConceptInclusion((a,), (b, c)) == ConceptInclusion((a,), (c, b))
    assert ConceptInclusion((a,), (b,)) != ConceptInclusion((b,), (a,))


def test_empty_lhs_becomes_top():
    ax = ConceptInclusion((), (named("A"),))
    assert ax.lhs == (TOP,)


def test_normalize_fixpoint_on_normal_ontology():
    onto = Ontology.of(
        [
            ExistsAxiom(named("A"), role("r"), named("B")),
            ConceptInclusion((named("A"),), (named("B"), named("C"))),
        ]
    )
    assert normalize(onto) is onto


def test_normalize_splits_conjunctive_filler():
    # A -> ex r (B & C) becomes A -> ex r X with X -> B and X -> C
    a, b, c = named("A"), named("B"), named("C")
    g = GeneralInclusion(Atomic(a), Exists(role("r"), And((Atomic(b), Atomic(c)))))
    out = normalize(Ontology.of(general=[g]))
    ex = [ax for ax in out.axioms if isinstance(ax, ExistsAxiom)]
    assert len(ex) == 1
    x = ex[0].filler
    assert x.kind == "named" and x.name.startswith("_N")
    subs = {ax for ax in out.axioms if isinstance(ax, ConceptInclusion)}
    assert ConceptInclusion((x,), (b,)) in subs
    assert ConceptInclusion((x,), (c,)) in subs


def test_normalize_equivalence_splits_disjunction():
    # Disaster = Flood | Drought gives one disjunctive inclusion plus the
    # two converse inclusions, with no fresh names.
    d, f, g = named("Disaster"), named("Flood"), named("Drought")
    fl_or_dr = Or((Atomic(f), Atomic(g)))
    onto = Ontology.of(
        general=[
            GeneralInclusion(Atomic(d), fl_or_dr),
            GeneralInclusion(fl_or_dr, Atomic(d)),
        ]
    )
    out = normalize(onto)
    assert out.axioms == frozenset(
        {
            ConceptInclusion((d,), (f, g)),
            ConceptInclusion((f,), (d,)),
            ConceptInclusion((g,), (d,)),
        }
    )


def test_normalize_is_deterministic():
    a, b, c = named("A"), named("B"), named("C")
    g = GeneralInclusion(Atomic(a), Exists(role("r"), And((Atomic(b), Atomic(c)))))
    o1 = normalize(Ontology.of(general=[g]))
    o2 = normalize(Ontology.of(general=[g]))
    assert o1.axioms == o2.axioms


def test_normalize_idempotent():
    a, b = named("A"), named("B")
    g = GeneralInclusion(Atomic(a), Not(Atomic(b)))
    out = normalize(Ontology.of(general=[g]))
    assert normalize(out) is out


def _models_upto_signature_agree(onto, norm, domain_size=2):
    """Exhaustive check: J models onto iff some expansion of J over the
    fresh names models norm, over tiny domains."""
    concepts = sorted(onto.concept_names())
    roles = sorted(onto.role_names())
    fresh = sorted(norm.concept_names() - onto.concept_names())
    dom = ["e%d" % i for i in range(domain_size)] + sorted(onto.constants())
    base_atoms = candidate_atoms(concepts, roles, dom)
    fresh_atoms = candidate_atoms(fresh, [], dom)
    import itertools

    for nbase in range(len(base_atoms) + 1):
        for chosen in itertools.combinations(base_atoms, nbase):
            j = Instance(frozenset(chosen))
            expected = is_model(j, onto)
            got = False
            for k in range(len(fresh_atoms) + 1):
                for extra in itertools.combinations(fresh_atoms, k):
                    if is_model(j.with_atoms(extra), norm):
                        got = True
                        break
                if got:
                    break
            if expected != got:
                return False, j
    return True, None


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normalize_preserves_models_up_to_signature(seed):
    rng = random.Random(seed)
    # small general ontologies built from random shapes
    a, b, c = named("A"), named("B"), named("C")
    shapes = [
        GeneralInclusion(Atomic(a), Exists(role("r"), And((Atomic(b), Atomic(c))))),
        GeneralInclusion(Atomic(a), Not(Atomic(b))),
        GeneralInclusion(And((Atomic(a), Atomic(b))), Or((Atomic(c), Atomic(b)))),
        GeneralInclusion(Exists(role("r"), Atomic(a)), Atomic(b)),
        GeneralInclusion(Atomic(a), Forall(role("r"), Or((Atomic(b), Atomic(c))))),
        GeneralInclusion(Forall(role("r"), Atomic(a)), Atomic(b)),
    ]
    chosen = rng.sample(shapes, 2)
    onto = Ontology.of(general=chosen)
    norm = normalize(onto)
    assert norm.is_normalized()
    ok, counterexample = _models_upto_signature_agree(onto, norm, domain_size=2)
    assert ok, "mismatch on %s" % counterexample


def test_dialect_of_empty_ontology_is_least():
    assert classify_dialect(Ontology.of()) == Dialect.DLLiteHF


def test_dialect_dllite_hf_example():
    onto = Ontology.of(
        [
            ExistsAxiom(named("B1"), role("r"), TOP),
            Functional(role("s")),
        ]
    )
    assert classify_dialect(onto) == Dialect.DLLiteHF


def test_dialect_functional_subrole_escapes_dllite():
    onto = Ontology.of(
        [
            Functional(role("s")),
            RoleInclusion(role("r"), role("s")),
        ]
    )
    d = classify_dialect(onto)
    # least admitting dialect for these two axioms (no nominals involved)
    assert d == Dialect.ALCHIF


def test_dialect_monotone_under_union():
    # Removing axioms never yields a strictly larger logic.  Monotonicity
    # is asserted in the specificity order, which refines the inclusion
    # order; tie-broken minima of incomparable dialects are not comparable
    # in the raw inclusion order itself.
    from ontofocus.syntax import dialect_rank

    rng = random.Random(7)
    for _ in range(40):
        o1 = random_normal_ontology(rng, n_axioms=3, allow_nominal=rng.random() < 0.3)
        o2 = random_normal_ontology(rng, n_axioms=3, allow_nominal=rng.random() < 0.3)
        du = classify_dialect(o1.union(o2))
        assert dialect_rank(du) >= dialect_rank(classify_dialect(o1))
        assert dialect_rank(du) >= dialect_rank(classify_dialect(o2))
