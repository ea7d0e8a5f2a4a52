import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontofocus.ineq import (
    ALEPH0,
    DEFAULT_VALUE_CAP,
    EnrichedIneqSystem,
    ExtNat,
    Implication,
    LinearInequation,
    NoSolution,
    Solution,
    UnknownAtCap,
    ZERO,
    backward_translation,
    check_solution,
    dump_system,
    eliminate_infinity,
    fin,
    forward_translation,
    inf_var,
    solve_enriched,
)

nat = st.integers(min_value=0, max_value=50)
extnats = st.one_of(nat.map(fin), st.just(ALEPH0))


# ---------------------------------------------------------------------------
# ExtNat arithmetic
# ---------------------------------------------------------------------------


@given(extnats, extnats)
def test_extnat_addition_commutes(a, b):
    assert a + b == b + a


@given(extnats, extnats)
def test_extnat_multiplication_commutes(a, b):
    assert a * b == b * a


@given(nat, nat)
def test_extnat_finite_arithmetic_matches_int(a, b):
    assert (fin(a) + fin(b)).value == a + b
    assert (fin(a) * fin(b)).value == a * b
    assert (fin(a) <= fin(b)) == (a <= b)


@given(nat)
def test_extnat_absorption(n):
    assert ALEPH0 + fin(n) == ALEPH0
    assert fin(n) + ALEPH0 == ALEPH0
    if n > 0:
        assert ALEPH0 * fin(n) == ALEPH0
    assert ALEPH0 * fin(0) == ZERO
    assert fin(0) * ALEPH0 == ZERO
    assert ALEPH0 * ALEPH0 == ALEPH0
    assert ALEPH0 + ALEPH0 == ALEPH0
    assert fin(n) < ALEPH0


def test_extnat_rejects_negative():
    with pytest.raises(ValueError):
        ExtNat(-1)


# ---------------------------------------------------------------------------
# check_solution
# ---------------------------------------------------------------------------


def _sys(ineqs=(), finite=(), imps=(), variables=None):
    if variables is None:
        variables = set()
        for e in ineqs:
            variables |= e.variables()
        for i in imps:
            variables |= set(i.antecedent) | set(i.consequent)
        variables |= set(finite)
    return EnrichedIneqSystem.of(variables, ineqs, finite, imps)


X_PLUS_1_LE_X = LinearInequation(((1, "x"),), 1, ((1, "x"),))


def test_check_solution_aleph_absorbs_increment():
    h = _sys([X_PLUS_1_LE_X])
    assert check_solution(h, {"x": ALEPH0})
    assert not check_solution(h, {"x": fin(3)})


def test_check_solution_finiteness_constraint():
    h = _sys([X_PLUS_1_LE_X], finite=["x"])
    assert not check_solution(h, {"x": ALEPH0})
    for v in range(5):
        assert not check_solution(h, {"x": fin(v)})


def test_check_solution_implication():
    h = _sys(imps=[Implication(("x",), ("y",))])
    assert not check_solution(h, {"x": fin(1), "y": fin(0)})
    assert check_solution(h, {"x": fin(1), "y": fin(2)})
    assert check_solution(h, {"x": fin(0), "y": fin(0)})
    assert check_solution(h, {"x": ALEPH0, "y": fin(1)})


# ---------------------------------------------------------------------------
# eliminate_infinity
# ---------------------------------------------------------------------------


def test_eliminate_infinity_rewrites_rhs_summands():
    e = LinearInequation(((2, "x"),), 0, ((2, "y"), (1, "z")))
    h = _sys([e])
    out = eliminate_infinity(h)
    (rewritten,) = [q for q in out.inequations if q.lhs == ((2, "x"),)]
    assert set(rewritten.rhs) == {(2, "y"), (1, inf_var("y")), (1, "z"), (1, inf_var("z"))}
    # companion implication: lhs companions positive forces rhs companions
    (imp,) = out.sorted_implications()
    assert set(imp.antecedent) == {inf_var("x")}
    assert set(imp.consequent) == {inf_var("y"), inf_var("z")}


def test_eliminate_infinity_pins_finite_companions():
    h = _sys([X_PLUS_1_LE_X], finite=["x"])
    out = eliminate_infinity(h)
    pin = LinearInequation(((1, inf_var("x")),), 0, ())
    assert pin in out.inequations


def test_eliminate_infinity_empty_system():
    h = _sys()
    out = eliminate_infinity(h)
    assert not out.inequations and not out.implications and not out.variables


def test_dump_system_format():
    h = _sys([X_PLUS_1_LE_X], imps=[Implication(("x",), ("x",))])
    text = dump_system(h)
    assert "x + 1 <= x" in text
    assert "x > 0 => x > 0" in text


# ---------------------------------------------------------------------------
# solve_enriched on pinned examples
# ---------------------------------------------------------------------------


def test_solve_absorbing_loop_needs_aleph():
    h = _sys([X_PLUS_1_LE_X])
    res = solve_enriched(h)
    assert isinstance(res, Solution)
    assert res.assignment["x"] == ALEPH0


def test_solve_absorbing_loop_with_finiteness_is_refuted():
    h = _sys([X_PLUS_1_LE_X], finite=["x"])
    assert isinstance(solve_enriched(h), NoSolution)


def test_solution_found_implies_check_solution():
    h = _sys(
        [LinearInequation((), 1, ((1, "x"),)), LinearInequation(((2, "x"),), 0, ((1, "y"),))],
        imps=[Implication(("x",), ("y",))],
    )
    res = solve_enriched(h)
    assert isinstance(res, Solution)
    assert check_solution(h, res.assignment)


def test_positive_system_with_all_finite_decided_without_cap():
    # every inequation positive and F = V: feasibility falls out of the
    # rational relaxation plus scaling, with no dependence on the cap
    e1 = LinearInequation(((1, "x"),), 2, ((1, "y"),))
    e2 = LinearInequation(((3, "y"),), 0, ((1, "x"),))
    h = _sys([e1, e2], finite=["x", "y"])
    res = solve_enriched(h, value_cap=1)
    # x + 2 <= y and 3y <= x force x,y unbounded-negative: infeasible over N
    assert isinstance(res, NoSolution)

    e3 = LinearInequation(((1, "x"),), 2, ((1, "y"),))
    h2 = _sys([e3], finite=["x", "y"])
    res2 = solve_enriched(h2, value_cap=1)
    assert isinstance(res2, Solution)
    assert check_solution(h2, res2.assignment)


def test_two_large_exactly_one_groups_are_solved():
    # a_i > 0 forces u_i > 0, and u_i + b_i <= 1 then forbids b_i, so the
    # b group must be realized at an index other than the a group's
    n = 70
    a = ["a%02d" % i for i in range(n)]
    b = ["b%02d" % i for i in range(n)]
    u = ["u%02d" % i for i in range(n)]
    ineqs = []
    for group in (a, b):
        terms = tuple((1, v) for v in group)
        ineqs.append(LinearInequation((), 1, terms))
        ineqs.append(LinearInequation(terms, -1, ()))
    for i in range(n):
        ineqs.append(LinearInequation(((1, u[i]), (1, b[i])), -1, ()))
    h = _sys(ineqs, imps=[Implication((a[i],), (u[i],)) for i in range(n)])
    res = solve_enriched(h)
    assert isinstance(res, Solution)
    assert check_solution(h, res.assignment)


# ---------------------------------------------------------------------------
# brute-force agreement and translation round-trip
# ---------------------------------------------------------------------------


def brute_force_verdict(h: EnrichedIneqSystem, cap: int):
    """Exhaustive search over {0..cap, aleph0}^V."""
    variables = sorted(h.variables)
    choices = [fin(k) for k in range(cap + 1)] + [ALEPH0]
    for values in itertools.product(choices, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if check_solution(h, assignment):
            return assignment
    return None


def random_system(rng: random.Random, max_vars=4, max_ineqs=4, max_imps=2, nonnegative=False):
    """A small random system; with nonnegative=True every constant is >= 0,
    so its solutions are closed under addition and scaling."""
    n_vars = rng.randint(1, max_vars)
    variables = ["x%d" % i for i in range(n_vars)]

    def terms(max_terms):
        k = rng.randint(0, max_terms)
        return tuple(
            (rng.randint(1, 3), rng.choice(variables)) for _ in range(k)
        )

    ineqs = []
    for _ in range(rng.randint(0, max_ineqs)):
        lhs = terms(2)
        rhs = terms(2)
        const = rng.randint(0, 2) if nonnegative else rng.randint(-2, 2)
        if not lhs and not rhs:
            continue
        ineqs.append(LinearInequation(lhs, const, rhs))
    imps = []
    for _ in range(rng.randint(0, max_imps)):
        ante = tuple(rng.sample(variables, rng.randint(1, min(2, n_vars))))
        cons = tuple(rng.sample(variables, rng.randint(1, min(2, n_vars))))
        imps.append(Implication(ante, cons))
    finite = frozenset(v for v in variables if rng.random() < 0.3)
    return EnrichedIneqSystem.of(variables, ineqs, finite, imps)


# with all constants >= 0, rational feasibility decides: never UnknownAtCap
AGREEMENT_CASES = [(seed, False) for seed in range(5)] + [(seed, True) for seed in range(5, 10)]


@pytest.mark.parametrize(
    "seed, nonnegative",
    AGREEMENT_CASES,
    ids=["%d" % s if not nn else "nonnegative-%d" % s for s, nn in AGREEMENT_CASES],
)
def test_solver_agrees_with_brute_force(seed, nonnegative):
    rng = random.Random(1000 + seed)
    cap = 6
    for _ in range(40):
        h = random_system(rng, nonnegative=nonnegative)
        res = solve_enriched(h, value_cap=cap)
        brute = brute_force_verdict(h, cap)
        if nonnegative:
            assert not isinstance(res, UnknownAtCap), dump_system(h)
        if isinstance(res, Solution):
            assert check_solution(h, res.assignment)
        if brute is not None:
            assert isinstance(res, Solution), dump_system(h)
        if isinstance(res, NoSolution):
            assert brute is None, dump_system(h)


@pytest.mark.parametrize("seed", range(3))
def test_infinity_elimination_roundtrip(seed):
    rng = random.Random(2000 + seed)
    cap = 4
    for _ in range(40):
        h = random_system(rng)
        rewritten = eliminate_infinity(h)
        brute = brute_force_verdict(h, cap)
        if brute is None:
            continue
        forward = forward_translation(h, brute)
        assert check_solution(rewritten, forward), dump_system(h)
        back = backward_translation(h, forward)
        assert check_solution(h, back), dump_system(h)


def test_monotone_cap():
    rng = random.Random(77)
    for _ in range(25):
        h = random_system(rng)
        r_small = solve_enriched(h, value_cap=3)
        r_big = solve_enriched(h, value_cap=9)
        if isinstance(r_small, Solution):
            assert isinstance(r_big, Solution)
        if isinstance(r_small, NoSolution):
            assert isinstance(r_big, NoSolution)
