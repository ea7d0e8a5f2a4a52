import itertools
import random

import pytest

from ontofocus.oracle import (
    EMPTY,
    Instance,
    _fresh_canonical,
    candidate_atoms,
    certain_answers_bounded,
    concept_extension,
    enumerate_extensions,
    enumeration_is_exhaustive,
    evaluate_query,
    fresh_constant,
    is_model,
)
from ontofocus.syntax import (
    And,
    Atomic,
    BOT,
    CQ,
    ConceptInclusion,
    Exists,
    ExistsAxiom,
    Forall,
    Functional,
    Ontology,
    QueryAtom,
    TOP,
    Var,
    inv,
    instance_query,
    named,
    nominal,
    role,
    role_query,
)

from genutil import random_normal_ontology

A, B, C = named("A"), named("B"), named("C")
x, y = Var("x"), Var("y")


def test_top_extension_is_active_domain():
    i = Instance.of(("A", "c"))
    assert concept_extension(i, Atomic(TOP)) == frozenset({"c"})


def test_exists_extension():
    i = Instance.of(("A", "c"), ("r", "c", "d"))
    assert concept_extension(i, Exists(role("r"), Atomic(TOP))) == frozenset({"c"})
    assert concept_extension(i, Exists(inv("r"), Atomic(TOP))) == frozenset({"d"})


def test_forall_extension_by_hand():
    i = Instance.of(("A", "c"), ("B", "c"), ("B", "d"), ("r", "c", "d"))
    got = concept_extension(i, Forall(role("r"), Atomic(B)))
    # all r-successors must be in B; d has none, c's successor d is in B
    assert "c" in got and "d" in got


def test_nominal_extension_ignores_adom():
    i = Instance.of(("A", "c"))
    assert concept_extension(i, Atomic(nominal("z"))) == frozenset({"z"})


def test_is_model_empty_instance():
    onto = Ontology.of([ConceptInclusion((A,), (B,)), ExistsAxiom(A, role("r"), B)])
    assert is_model(EMPTY, onto)


def test_is_model_top_inclusion_counts_whole_adom():
    onto = Ontology.of([ConceptInclusion((TOP,), (A,))])
    assert is_model(Instance.of(("A", "c")), onto)
    assert not is_model(Instance.of(("A", "c"), ("r", "c", "d")), onto)


def test_is_model_self_loop_with_inverse_functionality():
    onto = Ontology.of([ExistsAxiom(A, role("r"), A), Functional(inv("r"))])
    assert is_model(Instance.of(("A", "c"), ("r", "c", "c")), onto)


def test_is_model_nominal_axiom_fails_on_empty():
    onto = Ontology.of([ConceptInclusion((nominal("c"),), (A,))])
    assert not is_model(EMPTY, onto)
    assert is_model(Instance.of(("A", "c")), onto)


def test_evaluate_query_basics():
    i = Instance.of(("A", "c"))
    q = CQ((x,), (QueryAtom("A", (x,)),))
    assert evaluate_query(i, q).tuples == frozenset({("c",)})

    boolean = CQ((), (QueryAtom("A", (x,)),))
    assert not evaluate_query(EMPTY, boolean).holds()
    assert evaluate_query(i, boolean).holds()


def test_evaluate_query_join():
    i = Instance.of(("A", "c"), ("r", "c", "d"), ("B", "d"))
    q = CQ((x,), (QueryAtom("A", (x,)), QueryAtom("r", (x, y)), QueryAtom("B", (y,))))
    assert evaluate_query(i, q).tuples == frozenset({("c",)})


def test_cq_monotone_under_extension():
    rng = random.Random(11)
    i = Instance.of(("A", "c"), ("r", "c", "d"))
    j = i.with_atoms([("B", ("d",)), ("r", ("d", "c"))])
    for _ in range(20):
        n_atoms = rng.choice([1, 2])
        atoms = []
        vars_pool = [x, y]
        for _ in range(n_atoms):
            if rng.random() < 0.5:
                atoms.append(QueryAtom(rng.choice("AB"), (rng.choice(vars_pool),)))
            else:
                atoms.append(QueryAtom("r", (rng.choice(vars_pool), rng.choice(vars_pool))))
        ans_vars = tuple(sorted({v for a in atoms for v in a.variables()}, key=str))
        q = CQ(ans_vars, tuple(atoms))
        assert evaluate_query(i, q).tuples <= evaluate_query(j, q).tuples


def test_enumerate_extensions_identity_first():
    onto = Ontology.of()
    i = Instance.of(("A", "c"))
    first = next(enumerate_extensions(onto, i, 0))
    assert first.atoms == i.atoms


def test_enumerate_extensions_empty_on_contradiction():
    onto = Ontology.of([ConceptInclusion((A,), (BOT,))])
    assert list(enumerate_extensions(onto, Instance.of(("A", "c")), 1)) == []


def test_enumerate_extensions_finds_witnesses():
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])
    models = list(enumerate_extensions(onto, Instance.of(("A", "c")), 1))
    assert models
    self_loop = Instance.of(("A", "c"), ("r", "c", "c"), ("B", "c"))
    fresh_edge = Instance.of(("A", "c"), ("r", "c", "_f1"), ("B", "_f1"))
    atom_sets = {m.atoms for m in models}
    assert self_loop.atoms in atom_sets
    assert fresh_edge.atoms in atom_sets


def test_enumerate_extensions_matches_powerset_oracle():
    # exhaustiveness cross-check on a tiny signature
    rng = random.Random(5)
    for _ in range(10):
        onto = random_normal_ontology(rng, n_axioms=2, concepts=["A"], roles=["r"])
        i = Instance.of(("A", "c"))
        got = {
            m.atoms
            for m in enumerate_extensions(
                onto, i, 0, queries=[instance_query("A"), role_query("r")]
            )
        }
        pool = [a for a in candidate_atoms(["A"], ["r"], ["c"]) if a not in i.atoms]
        expected = set()
        for k in range(len(pool) + 1):
            for extra in itertools.combinations(pool, k):
                j = i.with_atoms(extra)
                if is_model(j, onto):
                    expected.add(j.atoms)
        assert got == expected


def test_enumerate_extensions_yields_models_only():
    rng = random.Random(6)
    for _ in range(10):
        onto = random_normal_ontology(rng, n_axioms=3, concepts=["A", "B"], roles=["r"])
        i = Instance.of(("A", "c"))
        for m in enumerate_extensions(onto, i, 1):
            assert i.atoms <= m.atoms
            assert is_model(m, onto)


def test_certain_answers_trivial():
    onto = Ontology.of()
    i = Instance.of(("A", "c"))
    q = CQ((x,), (QueryAtom("A", (x,)),))
    answers = certain_answers_bounded(onto, i, q, 1)
    assert answers.tuples == frozenset({("c",)})


def test_certain_answers_disaster_empty_base():
    d, f, g = named("Disaster"), named("Flood"), named("Drought")
    onto = Ontology.of(
        [
            ConceptInclusion((d,), (f, g)),
            ConceptInclusion((f,), (d,)),
            ConceptInclusion((g,), (d,)),
        ]
    )
    q = CQ((x,), (QueryAtom("Drought", (x,)),))
    answers = certain_answers_bounded(onto, EMPTY, q, 1)
    assert answers.tuples == frozenset()
    assert enumeration_is_exhaustive(onto, [])


def test_certain_answers_nominal_forces_membership():
    onto = Ontology.of([ConceptInclusion((nominal("c"),), (A,))])
    q = CQ((x,), (QueryAtom("A", (x,)),))
    answers = certain_answers_bounded(onto, EMPTY, q, 1)
    assert ("c",) in answers.tuples


def test_certain_answers_antitone_in_fresh_bound():
    onto = Ontology.of([ConceptInclusion((A,), (B, C))])
    i = Instance.of(("A", "c"))
    q = CQ((x,), (QueryAtom("B", (x,)),))
    a0 = certain_answers_bounded(onto, i, q, 0)
    a1 = certain_answers_bounded(onto, i, q, 1)
    assert a1.tuples <= a0.tuples


def test_model_check_agrees_with_concept_extension():
    rng = random.Random(9)
    for _ in range(15):
        onto = random_normal_ontology(rng, n_axioms=1, concepts=["A", "B"], roles=["r"])
        (ax,) = onto.axioms
        pool = candidate_atoms(["A", "B"], ["r"], ["c", "d"])
        for _ in range(10):
            inst = Instance(frozenset(a for a in pool if rng.random() < 0.4))
            if isinstance(ax, ConceptInclusion):
                lhs = None
                for b in ax.lhs:
                    e = concept_extension(inst, Atomic(b))
                    lhs = e if lhs is None else lhs & e
                rhs = frozenset()
                for b in ax.rhs:
                    rhs = rhs | concept_extension(inst, Atomic(b))
                assert is_model(inst, onto) == (lhs <= rhs)


# ---------------------------------------------------------------------------
# Indexed accessors and the first-use test, against their scan definitions
# ---------------------------------------------------------------------------


def _scan_adom(inst):
    return frozenset(c for _, args in inst.atoms for c in args)


def _scan_concept_atoms(inst, name):
    return frozenset(args[0] for p, args in inst.atoms if p == name and len(args) == 1)


def _scan_memberships(inst, const):
    return frozenset(p for p, args in inst.atoms if len(args) == 1 and args[0] == const)


def _scan_role_pairs(inst, r):
    pairs = {args for p, args in inst.atoms if p == r.name and len(args) == 2}
    if r.inverted:
        return frozenset((b, a) for a, b in pairs)
    return frozenset(pairs)


def test_indexed_accessors_equal_scan_definitions():
    rng = random.Random(17)
    pool = candidate_atoms(["A", "B"], ["r", "s"], ["c", "d", "e"])
    instances = [EMPTY, Instance.of(("A", "c"), ("r", "c", "c"), ("s", "d", "c"))]
    instances += [Instance(frozenset(a for a in pool if rng.random() < 0.3)) for _ in range(30)]
    for inst in instances:
        assert inst.adom() == _scan_adom(inst)
        assert inst.predicates_unary() == frozenset(p for p, a in inst.atoms if len(a) == 1)
        assert inst.predicates_binary() == frozenset(p for p, a in inst.atoms if len(a) == 2)
        for name in ("A", "B", "r", "Z"):
            assert inst.concept_atoms(name) == _scan_concept_atoms(inst, name)
        for const in ("c", "d", "e", "absent"):
            assert inst.concept_memberships(const) == _scan_memberships(inst, const)
        for r in (role("r"), inv("r"), role("s"), inv("s"), role("A"), inv("t")):
            assert inst.role_pairs(r) == _scan_role_pairs(inst, r)


def test_indexed_accessors_return_the_same_set_on_every_call():
    # a copy per call made `member` and `concept_extension` quadratic
    inst = Instance.of(("A", "c"), ("A", "d"), ("r", "c", "d"))
    for read in (
        lambda: inst.concept_atoms("A"),
        lambda: inst.concept_atoms("Z"),
        lambda: inst.role_pairs(role("r")),
        lambda: inst.role_pairs(inv("r")),
        lambda: inst.role_pairs(inv("s")),
    ):
        assert read() is read()
    assert inst.role_pairs(inv("r")) == frozenset({("d", "c")})


def test_index_leaves_equality_and_hash_on_the_atoms():
    i, j = Instance.of(("A", "c"), ("r", "c", "d")), Instance.of(("r", "c", "d"), ("A", "c"))
    i.adom(), i.role_pairs(inv("r"))  # build i's index, not j's
    assert i == j and hash(i) == hash(j) and len({i, j}) == 1


def _fresh_canonical_by_chosen(atom_list, chosen, fresh):
    """The first-use test over a membership tuple of the whole pool."""
    if not fresh:
        return True
    first_use = {}
    idx = 0
    for take, atomrec in zip(chosen, atom_list):
        if not take:
            continue
        for c in atomrec[1]:
            if c in first_use:
                continue
            if c in fresh:
                first_use[c] = idx
                idx += 1
    used = [c for c in fresh if c in first_use]
    if used != fresh[: len(used)]:
        return False
    order = [first_use[c] for c in used]
    return order == sorted(order)


def test_fresh_canonical_equals_chosen_definition():
    fresh = [fresh_constant(1), fresh_constant(2)]
    pool = candidate_atoms(["A"], ["r"], ["c"] + fresh)
    position = {c: k for k, c in enumerate(fresh)}
    accepted = 0
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(range(len(pool)), size):
            chosen = tuple(i in combo for i in range(len(pool)))
            want = _fresh_canonical_by_chosen(pool, chosen, fresh)
            assert _fresh_canonical([pool[i] for i in combo], position) == want
            accepted += want
    assert 0 < accepted < 2 ** len(pool)
