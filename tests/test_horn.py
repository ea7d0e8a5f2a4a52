import random

import pytest

from ontofocus.horn import horn_mixed_sat
from ontofocus.mosaic import mixed_sat
from ontofocus.oracle import Instance, enumerate_extensions
from ontofocus.syntax import (
    BOT,
    ConceptInclusion,
    ExistsAxiom,
    Functional,
    Ontology,
    inv,
    named,
    nominal,
    role,
)

from genutil import random_dllite_hf, random_horn_alcif

A, B = named("A"), named("B")

CHAIN = Ontology.of(
    [
        ExistsAxiom(A, role("r"), B),
        ExistsAxiom(B, role("r"), B),
        ConceptInclusion((A, B), (BOT,)),
        Functional(inv("r")),
    ]
)


def test_horn_mixed_sat_trivial():
    assert horn_mixed_sat(Ontology.of(), Instance.of(("A", "c")), set()).kind == "sat"


def test_horn_mixed_sat_chain_fixture():
    seed = Instance.of(("A", "c"))
    assert horn_mixed_sat(CHAIN, seed, {"B"}).kind == "unsat"
    assert horn_mixed_sat(CHAIN, seed, {"A"}).kind == "sat"


def test_horn_mixed_sat_seed_clash():
    onto = Ontology.of([ConceptInclusion((A,), (BOT,))])
    assert horn_mixed_sat(onto, Instance.of(("A", "c")), set()).kind == "unsat"


def test_horn_mixed_sat_seed_functionality_violation():
    onto = Ontology.of([Functional(role("r"))])
    seed = Instance.of(("r", "c", "d"), ("r", "c", "e"))
    assert horn_mixed_sat(onto, seed, set()).kind == "unsat"


def nominal_encoding(seed: Instance) -> Ontology:
    """Seed atoms as axioms: {c} -> A and {c} -> ex r.{d}."""
    axioms = []
    for pred, args in sorted(seed.atoms):
        if len(args) == 1:
            axioms.append(ConceptInclusion((nominal(args[0]),), (named(pred),)))
        else:
            axioms.append(ExistsAxiom(nominal(args[0]), role(pred), nominal(args[1])))
    return Ontology.of(axioms)


def test_chain_fixture_agrees_with_mosaic_on_nominal_encoding():
    seed = Instance.of(("A", "c"))
    encoded = CHAIN.union(nominal_encoding(seed))
    assert mixed_sat(encoded, {"B"}).kind == "unsat"
    assert mixed_sat(encoded, {"A"}).kind == "sat"


def random_seed_instance(rng, onto, max_atoms=2):
    concepts = sorted(onto.concept_names()) or ["A"]
    roles = sorted(onto.role_names())
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        if roles and rng.random() < 0.4:
            atoms.append((rng.choice(roles), rng.choice("cd"), rng.choice("cd")))
        else:
            atoms.append((rng.choice(concepts), rng.choice("cd")))
    return Instance.of(*atoms)


# horn_mixed_sat's kinds on the 30 cases below, as the saturation calculus
# with cycle reversion (Ibanez-Garcia, Lutz and Schneider, KR 2014)
# decided them before horn_mixed_sat was reduced to the nominal encoding.
GOLDEN_KINDS = {
    0: ["unsat"] + ["sat"] * 14,
    1: ["sat"] * 5 + ["unsat"] + ["sat"] * 8 + ["unsat"],
}


@pytest.mark.parametrize("seed_val", [0, 1])
def test_dual_path_agreement_mini(seed_val):
    rng = random.Random(500 + seed_val)
    kinds = []
    for _ in range(15):
        onto = random_dllite_hf(rng, n_axioms=3)
        inst = random_seed_instance(rng, onto)
        sigma = set()
        for name in sorted(onto.concept_names()):
            if rng.random() < 0.5:
                sigma.add(name)
        kinds.append(horn_mixed_sat(onto, inst, sigma).kind)
    assert kinds == GOLDEN_KINDS[seed_val]


def test_never_unsat_when_oracle_finds_sigma_finite_model():
    rng = random.Random(900)
    for _ in range(10):
        onto = random_horn_alcif(rng, n_axioms=3)
        inst = random_seed_instance(rng, onto, max_atoms=1)
        model = next(enumerate_extensions(onto, inst, 1), None)
        if model is None:
            continue
        # every predicate extension in a bounded model is finite
        assert horn_mixed_sat(onto, inst, set(onto.concept_names())).kind == "sat"
