import itertools
import random

import pytest

from ontofocus.errors import DialectError
from ontofocus.ineq import (
    ALEPH0,
    ZERO,
    NoSolution,
    UnknownAtCap,
    check_solution,
    fin,
    solve_enriched,
)
from ontofocus.mosaic import (
    LiteTile,
    Mosaic,
    Tile,
    build_lite_mosaic_system,
    build_mosaic_system,
    check_mosaic,
    eliminate_closed_roles,
    enumerate_lite_tiles,
    enumerate_tiles,
    enumerate_types,
    materialize_model,
    mixed_sat,
)
from ontofocus.oracle import EMPTY, Instance, enumerate_extensions, is_model
from ontofocus.syntax import (
    BOT,
    ConceptInclusion,
    ExistsAxiom,
    ForallAxiom,
    Functional,
    Ontology,
    RoleInclusion,
    TOP,
    inv,
    named,
    nominal,
    role,
)

from genutil import random_alchif, random_dllite_bool_hof

A, B, C = named("A"), named("B"), named("C")


def test_empty_ontology_has_single_trivial_tile():
    tiles = enumerate_tiles(Ontology.of())
    assert tiles == [Tile(frozenset({TOP}), frozenset())]


def test_tiles_for_single_existential():
    onto = Ontology.of([ExistsAxiom(A, role("r"), TOP)])
    tiles = enumerate_tiles(onto)
    assert Tile(frozenset({TOP}), frozenset()) in tiles
    a_tiles = [t for t in tiles if A in t.root]
    assert a_tiles
    for t in a_tiles:
        assert any(role("r") in rs for rs, _ in t.edges)


def test_functional_role_limits_edges():
    onto = Ontology.of(
        [
            ExistsAxiom(A, role("r"), B),
            ExistsAxiom(A, role("r"), C),
            Functional(role("r")),
        ]
    )
    for t in enumerate_tiles(onto):
        assert sum(1 for rs, _ in t.edges if role("r") in rs) <= 1
        if A in t.root:
            # both witnesses must share the single r-edge
            (edge,) = [e for e in t.edges if role("r") in e[0]]
            assert B in edge[1] and C in edge[1]


def test_eliminate_closed_roles_noop_without_roles():
    onto = Ontology.of([ConceptInclusion((A,), (B,))])
    out, sigma = eliminate_closed_roles(onto, {"A"})
    assert out is onto
    assert sigma == frozenset({"A"})


def test_eliminate_closed_roles_collects_domain_and_range():
    onto = Ontology.of([ExistsAxiom(A, role("p"), TOP)])
    out, sigma = eliminate_closed_roles(onto, {"p", "A"})
    assert "A" in sigma and "p" not in sigma
    fresh = [n for n in sigma if n.startswith("_")]
    assert len(fresh) == 1
    coll = named(fresh[0])
    assert ForallAxiom(TOP, role("p"), coll) in out.axioms
    assert ForallAxiom(TOP, inv("p"), coll) in out.axioms


def test_mosaic_system_for_empty_ontology():
    system, var_of = build_mosaic_system(Ontology.of(), set())
    assert len(var_of) == 1
    assert len(system.inequations) == 1
    assert not system.finite and not system.implications
    (e,) = system.inequations
    assert e.const == 1 and not e.lhs


def test_alchif_systems_are_positive():
    rng = random.Random(4)
    for _ in range(15):
        onto = random_alchif(rng, n_axioms=3)
        system, _ = build_mosaic_system(onto, {"A"})
        assert all(e.positive for e in system.inequations)


def test_check_mosaic_trivial():
    tiles = enumerate_tiles(Ontology.of())
    good = Mosaic.of({tiles[0]: fin(1)})
    bad = Mosaic.of({tiles[0]: fin(0)})
    assert check_mosaic(Ontology.of(), set(), good)
    assert not check_mosaic(Ontology.of(), set(), bad)


def test_mixed_sat_trivial_cases():
    assert mixed_sat(Ontology.of(), set()).kind == "sat"
    contradiction = Ontology.of(
        [ConceptInclusion((nominal("c"),), (A,)), ConceptInclusion((A,), (BOT,))]
    )
    assert mixed_sat(contradiction, set()).kind == "unsat"


def test_mixed_sat_verdict_carries_checkable_mosaic():
    onto = Ontology.of(
        [ConceptInclusion((nominal("c"),), (A,)), ExistsAxiom(A, role("r"), B)]
    )
    v = mixed_sat(onto, {"A", "B"})
    assert v.kind == "sat"
    from ontofocus.mosaic import eliminate_closed_roles

    assert v.mosaic is not None
    assert check_mosaic(onto, {"A", "B"}, v.mosaic)


def test_system_encoding_matches_direct_checker():
    # random assignments satisfy the built system exactly when they are
    # mosaics per the direct condition checker
    rng = random.Random(12)
    checked = 0
    for _ in range(10):
        onto = random_alchif(rng, n_axioms=3)
        onto2, sigma2 = eliminate_closed_roles(onto, {"A"})
        tiles = enumerate_tiles(onto2)
        if not tiles or len(tiles) > 40:
            continue
        system, var_of = build_mosaic_system(onto2, sigma2, tiles)
        for _ in range(40):
            values = {}
            for t in tiles:
                r = rng.random()
                values[t] = ALEPH0 if r < 0.1 else fin(rng.randint(0, 2))
            mosaic = Mosaic.of(values)
            assignment = {var_of[t]: values[t] for t in tiles}
            assert check_mosaic(onto2, sigma2, mosaic) == check_solution(
                system, assignment
            )
            checked += 1
    assert checked > 100


def oracle_finite_model(onto, fresh_bound=2):
    for m in enumerate_extensions(onto, EMPTY, fresh_bound):
        return m
    return None


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_agreement_mini(seed):
    # scaled-down version of the mosaic-faithfulness acceptance run
    rng = random.Random(100 + seed)
    sigmas = [set(), {"A"}, {"A", "B"}, {"A", "B", "C", "r", "s"}]
    for _ in range(12):
        onto = random_alchif(rng, n_axioms=3)
        finite_model = oracle_finite_model(onto)
        for sigma in sigmas:
            verdict = mixed_sat(onto, sigma)
            if finite_model is not None:
                assert verdict.kind == "sat", str(onto)
            if verdict.kind == "sat" and verdict.mosaic is not None:
                if verdict.mosaic.all_finite():
                    built = materialize_model(onto, verdict.mosaic)
                    assert not built.partial
                    assert is_model(built.instance, onto), str(onto)


def test_mixed_sat_monotone_in_sigma():
    rng = random.Random(21)
    for _ in range(10):
        onto = random_alchif(rng, n_axioms=3)
        big = mixed_sat(onto, {"A", "B"})
        small = mixed_sat(onto, {"A"})
        if big.kind == "sat":
            assert small.kind == "sat"


# ---------------------------------------------------------------------------
# DL-Lite tiles
# ---------------------------------------------------------------------------


def test_lite_tiles_empty_ontology():
    tiles = enumerate_lite_tiles(Ontology.of())
    assert LiteTile(frozenset({TOP}), frozenset()) in tiles


def test_lite_tiles_reject_non_lite():
    onto = Ontology.of([ExistsAxiom(A, role("r"), B)])  # filler not Top
    with pytest.raises(DialectError):
        enumerate_lite_tiles(onto)


def test_lite_system_has_functional_equality():
    onto = Ontology.of(
        [
            ExistsAxiom(A, role("r"), TOP),
            Functional(role("r")),
            Functional(inv("r")),
        ]
    )
    system, var_of = build_lite_mosaic_system(onto, set())
    # both directions of the equality between r-tiles and r—tiles
    rows = [e for e in system.inequations if e.lhs and e.rhs and e.const == 0]
    assert len(rows) >= 2


def _lite_witness_holds(onto, sigma, verdict) -> bool:
    """Check a lite `sat` verdict as the benchmark does: the system rebuilt
    over the witness's tiles accepts its multiplicities."""
    if verdict.lite_mosaic is None:
        return is_model(EMPTY, onto)
    onto2, sigma2 = eliminate_closed_roles(onto, sigma)
    tiles = sorted(verdict.lite_mosaic, key=LiteTile.sort_key)
    system, var_of = build_lite_mosaic_system(onto2, sigma2, tiles)
    return check_solution(system, {var_of[t]: n for t, n in verdict.lite_mosaic.items()})


def _general_kind(onto, sigma) -> str:
    """The general tile pipeline's answer, which `mixed_sat` does not run
    on DL-Lite input."""
    if is_model(EMPTY, onto):
        return "sat"
    onto2, sigma2 = eliminate_closed_roles(onto, sigma)
    system, _ = build_mosaic_system(onto2, sigma2, enumerate_tiles(onto2))
    result = solve_enriched(system)
    if isinstance(result, UnknownAtCap):
        return "unknown"
    return "unsat" if isinstance(result, NoSolution) else "sat"


def test_dual_path_agreement_mini():
    rng = random.Random(31)
    agreements = 0
    for _ in range(25):
        onto = random_dllite_bool_hof(rng, n_axioms=3, allow_nominal=rng.random() < 0.4)
        sigma = {"A"} if rng.random() < 0.7 else {"A", "B"}
        lite = mixed_sat(onto, sigma)
        assert lite.mosaic is None, str(onto)
        if lite.kind == "sat":
            assert _lite_witness_holds(onto, sigma, lite), str(onto)
        general = _general_kind(onto, sigma)
        if "unknown" in (lite.kind, general):
            continue
        assert lite.kind == general, str(onto)
        agreements += 1
    assert agreements >= 20


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def test_materialize_empty_mosaic_is_empty_model():
    built = materialize_model(Ontology.of(), None)
    assert built.instance == EMPTY and not built.partial


def test_materialize_single_trivial_tile():
    tiles = enumerate_tiles(Ontology.of())
    mosaic = Mosaic.of({tiles[0]: fin(1)})
    built = materialize_model(Ontology.of(), mosaic)
    assert not built.partial
    assert is_model(built.instance, Ontology.of())
    assert built.instance.atoms == frozenset()


def test_materialize_respects_functionality():
    onto = Ontology.of(
        [
            ExistsAxiom(A, role("r"), B),
            Functional(role("r")),
            Functional(inv("r")),
        ]
    )
    v = mixed_sat(onto, {"A", "B"})
    assert v.kind == "sat"
    built = materialize_model(onto, v.mosaic)
    if not built.partial:
        assert is_model(built.instance, onto)
