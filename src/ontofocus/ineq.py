"""Enriched integer inequation systems over N* = N ∪ {aleph0}.

A system is (V, E, F, I): linear inequations E of the form
a1*x1 + ... + an*xn + c <= b1*y1 + ... + bm*ym, a finiteness set F whose
variables must not take the value aleph0, and implications I of the form
"y1 + ... + ym > 0  implies  x1 + ... + xn > 0".

Solving strategy (`solve_enriched`):

1. `eliminate_infinity` rewrites to a plain-integer system with one fresh
   companion variable per original variable tracking "is infinite".
2. A depth-first search pins variables to 0 or 1 and adds bound rows.
   Each node gets its greatest support: one exact LP (`_simplex_support`,
   a bounded simplex with Bland's rule in rational arithmetic) finds the
   variables that can be positive in a rational solution,
   `_maximal_admissible` drops the antecedents whose consequents cannot,
   and the two repeat until stable.  A node without a rational solution
   is refuted, whatever the cap.
3. A cardinality group (a row x1 + ... + xk - 1 <= 0) with more than
   one live member and none pinned is branched: each live member pinned
   to 1 in turn, in increasing order of its LP value, then all members 0.
   (A member the LP had to raise is carrying other rows; pinned to
   exactly 1 it more often fails.)
4. With no group open, a node whose rows that mention a live variable
   all have constants >= 0 after pinning is decided exactly: its
   solutions are closed under addition and scaling, so the LP point
   times the lcm of its denominators is an integer solution.  A node with
   a negative substituted constant (a pinned 1 on the right of an
   inverse-functional row, say) needs an integer point: branch-and-bound
   on the same LP, with every bound above the value cap cut.

NoSolution is reported only when every node is refuted and nothing was
cut, so it never depends on the cap.  UnknownAtCap is reported only when
the node budget runs out, or when a node with a negative substituted
constant has no integer point within the value cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, floor, gcd, lcm
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

# ---------------------------------------------------------------------------
# Extended naturals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=False)
class ExtNat:
    """A non-negative integer or aleph0 (represented by value=None)."""

    value: Optional[int]

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise ValueError("ExtNat must be non-negative")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if self.is_infinite or other.is_infinite:
            return ALEPH0
        return ExtNat(self.value + other.value)

    def __mul__(self, other: "ExtNat") -> "ExtNat":
        if (self.value == 0) or (other.value == 0):
            return ZERO
        if self.is_infinite or other.is_infinite:
            return ALEPH0
        return ExtNat(self.value * other.value)

    def __le__(self, other: "ExtNat") -> bool:
        if other.is_infinite:
            return True
        if self.is_infinite:
            return False
        return self.value <= other.value

    def __lt__(self, other: "ExtNat") -> bool:
        return self <= other and self != other

    def __gt__(self, other: "ExtNat") -> bool:
        return not (self <= other)

    def __str__(self) -> str:
        return "aleph0" if self.is_infinite else str(self.value)


ALEPH0 = ExtNat(None)
ZERO = ExtNat(0)


def fin(n: int) -> ExtNat:
    return ExtNat(n)


def ext_sum(values: Iterable[ExtNat]) -> ExtNat:
    total: ExtNat = ZERO
    for v in values:
        total = total + v
    return total


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearInequation:
    """a1*x1 + ... + an*xn + const <= b1*y1 + ... + bm*ym."""

    lhs: tuple  # ((coeff, var), ...) with coeff > 0
    const: int
    rhs: tuple

    def __post_init__(self):
        for coeff, _ in self.lhs + self.rhs:
            if coeff <= 0:
                raise ValueError("coefficients must be strictly positive")

    @property
    def positive(self) -> bool:
        return self.const >= 0

    def variables(self) -> FrozenSet[str]:
        return frozenset(v for _, v in self.lhs) | frozenset(v for _, v in self.rhs)

    def holds(self, assignment: Dict[str, ExtNat]) -> bool:
        left: ExtNat = ZERO
        for coeff, v in self.lhs:
            left = left + ExtNat(coeff) * assignment[v]
        right: ExtNat = ZERO
        for coeff, v in self.rhs:
            right = right + ExtNat(coeff) * assignment[v]
        if left.is_infinite:
            return right.is_infinite
        if right.is_infinite:
            return True
        return left.value + self.const <= right.value

    def __str__(self) -> str:
        def side(terms):
            if not terms:
                return "0"
            return " + ".join(
                ("%d*%s" % (c, v)) if c != 1 else str(v) for c, v in terms
            )

        left = side(self.lhs)
        if self.const > 0:
            left += " + %d" % self.const
        elif self.const < 0:
            left += " - %d" % (-self.const)
        return "%s <= %s" % (left, side(self.rhs))


@dataclass(frozen=True)
class Implication:
    """antecedent-sum > 0 implies consequent-sum > 0."""

    antecedent: tuple
    consequent: tuple

    def __post_init__(self):
        if not self.antecedent or not self.consequent:
            raise ValueError("implication sides must be nonempty")

    def holds(self, assignment: Dict[str, ExtNat]) -> bool:
        fired = any(assignment[v] > ZERO for v in self.antecedent)
        if not fired:
            return True
        return any(assignment[v] > ZERO for v in self.consequent)

    def __str__(self) -> str:
        return "%s > 0 => %s > 0" % (
            " + ".join(self.antecedent),
            " + ".join(self.consequent),
        )


@dataclass(frozen=True)
class EnrichedIneqSystem:
    variables: frozenset
    inequations: frozenset
    finite: frozenset
    implications: frozenset

    @staticmethod
    def of(variables, inequations=(), finite=(), implications=()) -> "EnrichedIneqSystem":
        sys_ = EnrichedIneqSystem(
            frozenset(variables),
            frozenset(inequations),
            frozenset(finite),
            frozenset(implications),
        )
        used = set()
        for e in sys_.inequations:
            used |= e.variables()
        for i in sys_.implications:
            used |= set(i.antecedent) | set(i.consequent)
        used |= sys_.finite
        stray = used - sys_.variables
        if stray:
            raise ValueError("variables not declared in V: %s" % sorted(stray))
        return sys_

    def sorted_inequations(self) -> list:
        return sorted(self.inequations, key=str)

    def sorted_implications(self) -> list:
        return sorted(self.implications, key=str)


def dump_system(system: EnrichedIneqSystem) -> str:
    lines = []
    for e in system.sorted_inequations():
        lines.append(str(e))
    for i in system.sorted_implications():
        lines.append(str(i))
    if system.finite:
        lines.append("finite: %s" % ", ".join(sorted(system.finite)))
    return "\n".join(lines)


def check_solution(system: EnrichedIneqSystem, assignment: Dict[str, ExtNat]) -> bool:
    for v in system.variables:
        if v not in assignment:
            return False
    for v in system.finite:
        if assignment[v].is_infinite:
            return False
    for e in system.inequations:
        if not e.holds(assignment):
            return False
    for i in system.implications:
        if not i.holds(assignment):
            return False
    return True


# ---------------------------------------------------------------------------
# Infinity elimination
# ---------------------------------------------------------------------------

INF_SUFFIX = "^inf"


def inf_var(v: str) -> str:
    return v + INF_SUFFIX


def eliminate_infinity(system: EnrichedIneqSystem) -> EnrichedIneqSystem:
    """Rewrite to a system whose solutions are sought over plain N.

    Every right-hand summand b*y gains a companion summand y^inf; finite
    variables get y^inf pinned to zero; every implication summand gains
    its companion; and every inequation contributes the implication
    "some lhs companion positive implies some rhs companion positive"
    (an inequation with an infinite left side needs an infinite right
    side).  The output's finite set contains all variables: it is an
    integers-only system.
    """
    for v in system.variables:
        if v.endswith(INF_SUFFIX):
            raise ValueError("variable %r collides with companion suffix" % v)
    variables = set(system.variables)
    variables.update(inf_var(v) for v in system.variables)
    ineqs = []
    imps = []
    for e in system.sorted_inequations():
        rhs = list(e.rhs)
        for _, y in e.rhs:
            rhs.append((1, inf_var(y)))
        ineqs.append(LinearInequation(e.lhs, e.const, tuple(rhs)))
        lhs_inf = tuple(sorted({inf_var(x) for _, x in e.lhs}))
        rhs_inf = tuple(sorted({inf_var(y) for _, y in e.rhs}))
        if lhs_inf:
            if rhs_inf:
                imps.append(Implication(lhs_inf, rhs_inf))
            else:
                # infinite lhs impossible: pin all companions to zero
                ineqs.append(
                    LinearInequation(tuple((1, v) for v in lhs_inf), 0, ())
                )
    for x in sorted(system.finite):
        ineqs.append(LinearInequation(((1, inf_var(x)),), 0, ()))
    for i in system.sorted_implications():
        ante = tuple(i.antecedent) + tuple(inf_var(v) for v in i.antecedent)
        cons = tuple(i.consequent) + tuple(inf_var(v) for v in i.consequent)
        imps.append(Implication(ante, cons))
    return EnrichedIneqSystem.of(variables, ineqs, variables, imps)


def forward_translation(system: EnrichedIneqSystem, solution: Dict[str, ExtNat]) -> Dict[str, ExtNat]:
    """Translate an N*-solution of `system` to an N-solution of its
    infinity-eliminated form: infinite variables drop to zero and their
    companions take a bound B dominating every left-hand side."""
    c_max = max((abs(e.const) for e in system.inequations), default=0)
    base = 1 + c_max
    for x in system.finite:
        base += c_max * (solution[x].value or 0)
    # the bound must also dominate every lhs evaluated at the translation
    for e in system.inequations:
        total = e.const
        for coeff, v in e.lhs:
            if not solution[v].is_infinite:
                total += coeff * solution[v].value
        base = max(base, 1 + total)
    out: Dict[str, ExtNat] = {}
    for v in system.variables:
        if solution[v].is_infinite:
            out[v] = ZERO
            out[inf_var(v)] = ExtNat(base)
        else:
            out[v] = solution[v]
            out[inf_var(v)] = ZERO
    return out


def backward_translation(system: EnrichedIneqSystem, solution: Dict[str, ExtNat]) -> Dict[str, ExtNat]:
    """Translate an N-solution of the rewritten system back: a variable is
    infinite exactly when its companion is positive."""
    out: Dict[str, ExtNat] = {}
    for v in system.variables:
        if solution[inf_var(v)] > ZERO:
            out[v] = ALEPH0
        else:
            out[v] = solution[v]
    return out


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    assignment: dict


@dataclass(frozen=True)
class NoSolution:
    """The system has no solution over N*."""


@dataclass(frozen=True)
class UnknownAtCap:
    reason: str  # the limit that stopped the search, and the limits in force


# ---------------------------------------------------------------------------
# Exact rational LP: the greatest support of a cone
# ---------------------------------------------------------------------------


def _simplex_support(rows: Sequence[Dict[int, int]], n: int) -> List[Fraction]:
    """Maximise t_0 + ... + t_{n-1} over x_j = t_j + s_j with 0 <= t_j <= 1
    and s_j >= 0, subject to sum_j a_j * x_j <= 0 for every (integer) row;
    return x.

    The rows define a cone, closed under addition and scaling, so at the
    optimum every column that is positive somewhere in the cone has
    t_j = 1, and every other column is zero.  Bounded primal simplex in
    exact arithmetic with Bland's rule: the entering and the leaving
    variable are the eligible ones of least index, so degenerate pivots
    cannot cycle.  Variables 0..n-1 are the t_j, n..2n-1 the s_j and
    2n+i the slack of row i; the origin is the feasible start.  Each
    tableau row is kept as integers over one common denominator, which is
    much cheaper than a Fraction per entry.
    """
    m = len(rows)
    basis = [2 * n + i for i in range(m)]
    # row i reads: x_basis[i] = value[basis[i]] - sum_k tableau[i][k] / denom[i] * dx_k,
    # dx_k the move of nonbasic x_k away from its current value
    tableau = []
    for row in rows:
        entries: Dict[int, int] = {}
        for j, a in row.items():
            entries[j] = entries[n + j] = a
        tableau.append(entries)
    denom = [1] * m
    value = [Fraction(0)] * (2 * n + m)
    cost = {j: 1 for j in range(n)}  # reduced costs of the nonbasic variables
    cost_denom = 1
    at_upper: set = set()
    while True:
        enter = min(
            (k for k, d in cost.items() if (d > 0 if k not in at_upper else d < 0)),
            default=None,
        )
        if enter is None:
            return [value[j] + value[n + j] for j in range(n)]
        step = -1 if enter in at_upper else 1
        # the ratio test; a t_j entering is also stopped by its own bound
        theta, leave, least = (Fraction(1), None, enter) if enter < n else (None, None, None)
        column = []
        for i, entries in enumerate(tableau):
            a = entries.get(enter)
            if not a:
                continue
            rate = Fraction(a * step, denom[i])  # x_basis[i] falls at this rate
            column.append((i, rate))
            b = basis[i]
            if rate > 0:
                limit = value[b] / rate
            elif b < n:
                limit = (value[b] - 1) / rate
            else:
                continue
            if theta is None or limit < theta or (limit == theta and b < least):
                theta, leave, least = limit, i, b
        for i, rate in column:
            value[basis[i]] -= rate * theta
        value[enter] += step * theta
        if leave is None:  # a t_j moves to its other bound
            at_upper ^= {enter}
            continue
        old = basis[leave]
        at_upper.discard(enter)
        if old < n and value[old] == 1:
            at_upper.add(old)
        # pivot: solve row `leave` for the entering variable
        new = tableau[leave]
        p = new.pop(enter)
        new[old] = denom[leave]
        if p < 0:
            p = -p
            new = {k: -a for k, a in new.items()}
        g = gcd(p, *new.values())
        new_denom = p // g
        new = {k: a // g for k, a in new.items()}
        tableau[leave], denom[leave], basis[leave] = new, new_denom, enter
        for i, entries in enumerate(tableau):
            a = entries.pop(enter, None) if i != leave else None
            if a:
                denom[i] = _eliminate(entries, denom[i], a, new, new_denom)
        cost_denom = _eliminate(cost, cost_denom, cost.pop(enter), new, new_denom)


def _eliminate(entries: Dict[int, int], d: int, a: int, new: Dict[int, int], nd: int) -> int:
    """Replace entries/d by entries/d - (a/d) * new/nd, kept in place as
    integers over their least common denominator; return that denominator."""
    if nd != 1:
        for k in entries:
            entries[k] *= nd
    for k, b in new.items():
        c = entries.get(k, 0) - a * b
        if c:
            entries[k] = c
        else:
            del entries[k]
    g = gcd(d * nd, *entries.values())
    if g != 1:
        for k in entries:
            entries[k] //= g
    return d * nd // g


_SCALE = None  # the homogenising column: a point x of the cone stands for x / x[_SCALE]


def _cone_point(rows: List[dict], columns: Sequence) -> dict:
    """A point x >= 0 with sum_c a_c * x_c <= 0 for every row that is
    positive on every column positive at some such point.

    Exact presolve first: a column whose coefficients are all negative
    can grow until its rows hold, so it is positive and its rows drop;
    repeated, this leaves a core.  Core columns with equal coefficients
    are merged (any point can share a merged value out among them), and
    `_simplex_support` solves the merged core.  The dropped columns are
    then set in reverse order, each to the least multiple of the scale
    column's value (or 1) that meets its rows."""
    by_col: Dict[object, List[int]] = {c: [] for c in columns}
    for i, row in enumerate(rows):
        for c in row:
            by_col[c].append(i)
    live = set(range(len(rows)))
    core = list(columns)
    dropped = []
    while True:
        free = [c for c in core if all(rows[i][c] < 0 for i in by_col[c] if i in live)]
        if not free:
            break
        for c in free:
            mine = [i for i in by_col[c] if i in live]
            live.difference_update(mine)
            dropped.append((c, mine))
        free_set = set(free)
        core = [c for c in core if c not in free_set]

    merged: Dict[tuple, list] = {}
    for c in core:
        merged.setdefault(tuple((i, rows[i][c]) for i in by_col[c] if i in live), []).append(c)
    classes = list(merged.values())
    index = {c: k for k, cls in enumerate(classes) for c in cls}
    lp_rows = {}
    for i in sorted(live):
        entries = {index[c]: a for c, a in rows[i].items()}
        lp_rows.setdefault(tuple(sorted(entries.items())), entries)
    x = _simplex_support(list(lp_rows.values()), len(classes))
    point = {c: x[k] / len(cls) for k, cls in enumerate(classes) for c in cls}

    for c, mine in reversed(dropped):
        need = max(
            (
                sum(a * point[d] for d, a in rows[i].items() if d != c) / -rows[i][c]
                for i in mine
            ),
            default=Fraction(0),
        )
        unit = point.get(_SCALE) or Fraction(1)
        point[c] = unit * max(1, ceil(need / unit))
    return point


# ---------------------------------------------------------------------------
# Greatest support of a node
# ---------------------------------------------------------------------------


def _propagate_zeros(
    ineqs: Sequence[LinearInequation], zeros: set, ones: frozenset = frozenset()
) -> Optional[set]:
    """Iterate the consequences of rows whose right-hand side is pinned:
    a row with no live right-hand variables and a non-negative effective
    constant pins its live left variables to zero; with a positive
    effective constant it is a contradiction.  Returns the enlarged zero
    set, or None on contradiction."""
    changed = True
    while changed:
        changed = False
        for e in ineqs:
            if any(v in ones for _, v in e.rhs):
                continue  # the right side has slack
            if any(v not in zeros for _, v in e.rhs):
                continue
            effective = e.const + sum(c for c, v in e.lhs if v in ones)
            live_lhs = [t for t in e.lhs if t[1] not in zeros and t[1] not in ones]
            if effective > 0:
                return None
            if effective == 0:
                for _, v in live_lhs:
                    zeros.add(v)
                    changed = True
    return zeros


def _watchers(imps: Sequence[Implication]) -> Dict[str, list]:
    """Map each variable to the pairs (consequent, antecedents) it is a
    consequent of: one pair per distinct consequent, whose antecedents
    are those of all implications with that consequent."""
    by_consequent: Dict[tuple, list] = {}
    for imp in imps:
        by_consequent.setdefault(imp.consequent, []).extend(imp.antecedent)
    watchers: Dict[str, list] = {}
    for pair in by_consequent.items():
        for v in pair[0]:
            watchers.setdefault(v, []).append(pair)
    return watchers


def _maximal_admissible(alive: set, zeros: Iterable[str], watchers: Dict[str, list]) -> set:
    """Greatest subset S of `alive` without `zeros` such that every
    implication fired inside S has a consequent inside S, given that
    `alive` is such a set (all variables are: consequents are nonempty).
    `watchers` comes from `_watchers`.  Every solution's support is
    admissible, hence contained in S: variables outside are zero in
    every solution."""
    alive = set(alive)
    dead = [v for v in set(zeros) if v in alive]
    alive.difference_update(dead)
    # alive only shrinks, so the scan of a consequent for a live variable
    # resumes where it last stopped; past the end, its antecedents are gone
    scanned: Dict[int, int] = {}
    while dead:
        for consequent, antecedents in watchers.get(dead.pop(), ()):
            k = scanned.get(id(consequent), 0)
            while k < len(consequent) and consequent[k] not in alive:
                k += 1
            if k == len(consequent):
                k += 1
                for v in antecedents:
                    if v in alive:
                        alive.discard(v)
                        dead.append(v)
            scanned[id(consequent)] = k
    return alive


def _rational_point(ineqs: Sequence[LinearInequation], live: set, ones: frozenset):
    """A rational solution with the `ones` at 1 and every variable outside
    `live` at 0 that is positive on as many live variables as any such
    solution, as (its positive entries, scalable); or None when there is
    none.  `scalable` tells that every row mentioning a live variable has
    a non-negative constant once the ones are substituted, so that the
    solutions are closed under addition and scaling."""
    rows = []
    scalable = True
    for e in ineqs:
        row: Dict[object, int] = {}
        const = e.const
        for sign, side in ((1, e.lhs), (-1, e.rhs)):
            for c, v in side:
                if v in live:
                    row[v] = row.get(v, 0) + sign * c
                elif v in ones:
                    const += sign * c
        row = {v: a for v, a in row.items() if a}
        if not row:
            if const > 0:
                return None
            continue
        if const:
            row[_SCALE] = const
            scalable = scalable and const > 0
        rows.append(row)
    point = _cone_point(rows, sorted(live) + [_SCALE])
    scale = point[_SCALE]
    if not scale:
        return None
    return {v: point[v] / scale for v in live if point[v]}, scalable


def _greatest_support(ineqs, variables, watchers, ones: frozenset, alive: frozenset, removed):
    """The greatest support fixpoint of a node: `alive` is an admissible
    set holding every solution's support, `removed` must be zero too.
    Ask the LP which live variables can be positive, drop those that
    `_maximal_admissible` rules out, repeat until stable.  Every
    solution's support lies inside each stage, so None (no rational
    solution, or a pinned one dropped) refutes the node; otherwise the
    result of `_rational_point` for the fixpoint, whose support meets
    every implication."""
    alive = _maximal_admissible(alive, removed, watchers)
    if not ones <= alive:
        return None
    zeros = _propagate_zeros(ineqs, set(variables).difference(alive), ones)
    if zeros is None:
        return None
    alive = _maximal_admissible(alive, zeros, watchers)
    while ones <= alive:
        live = alive - ones
        found = _rational_point(ineqs, live, ones)
        if found is None or len(found[0]) == len(live):
            return found
        alive = _maximal_admissible(alive, live.difference(found[0]), watchers)
    return None


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


DEFAULT_VALUE_CAP = 16
_NODE_BUDGET = 2000  # search nodes per call: group pinnings and integer branches


def _cardinality_groups(ineqs: Sequence[LinearInequation]) -> List[tuple]:
    """Rows of the shape x1 + ... + xk - 1 <= 0 with unit coefficients:
    at most one of the variables is positive, and it must equal 1."""
    groups = []
    seen = set()
    for e in ineqs:
        if e.rhs or e.const != -1:
            continue
        if any(c != 1 for c, _ in e.lhs):
            continue
        group = tuple(sorted({v for _, v in e.lhs}))
        if len(group) != len(e.lhs):
            continue
        if group and group not in seen:
            seen.add(group)
            groups.append(group)
    return groups


def _pin_each(ones: frozenset, alive: frozenset, bounds: tuple, group, members):
    """The children of a node branched on a cardinality group: each live
    member pinned to one in turn, then the whole group at zero."""
    for v in members:
        yield ones | {v}, alive, [u for u in group if u != v], bounds
    yield ones, alive, group, bounds


def solve_enriched(
    system: EnrichedIneqSystem, value_cap: int = DEFAULT_VALUE_CAP
):
    """Decide feasibility of an enriched system over N*.

    Depth-first search over nodes (pinned ones, an admissible set holding
    the supports of the node's solutions, variables to zero, bound rows),
    each judged by its greatest support (`_greatest_support`):

    - a refuted node is dropped, whatever the cap;
    - the first cardinality group with more than one live member and
      none pinned is branched by `_pin_each`, members in increasing LP
      value;
    - a node whose rows with a live variable all have constants >= 0 is
      solved: its LP point times the lcm of its denominators (pinned ones
      stay 1) is an integer solution;
    - otherwise its LP point is a solution if integral; if not, the node
      branches on its first fractional variable x = f into x <= floor(f)
      (a zero pin at 0) and x >= ceil(f), cutting bounds above
      `value_cap`.

    NoSolution comes only when every node was refuted and nothing was
    cut.  UnknownAtCap comes only after `_NODE_BUDGET` nodes, or when a
    cut left a node with a negative substituted constant without an
    integer point within `value_cap`.  Every Solution is checked against
    the system.
    """
    rewritten = eliminate_infinity(system)
    variables = sorted(rewritten.variables)
    ineqs = rewritten.sorted_inequations()
    groups = _cardinality_groups(ineqs)
    watchers = _watchers(rewritten.implications)
    limits = "; limits: ineq._NODE_BUDGET = %d, value cap %d (ineq.DEFAULT_VALUE_CAP)" % (_NODE_BUDGET, value_cap)

    def finish(values: Dict[str, int]):
        nat_solution = {v: ExtNat(values.get(v, 0)) for v in variables}
        lifted = backward_translation(system, nat_solution)
        if not check_solution(system, lifted):
            raise AssertionError("lifted solution failed verification")
        return Solution(lifted)

    cut = False
    stack = [iter([(frozenset(), frozenset(variables), (), ())])]
    for _ in range(_NODE_BUDGET):
        node = None
        while stack and node is None:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
        if node is None:
            return UnknownAtCap("values above the value cap were cut" + limits) if cut else NoSolution()
        ones, alive, removed, bounds = node
        found = _greatest_support(ineqs + list(bounds), variables, watchers, ones, alive, removed)
        if found is None:
            continue
        point, scalable = found
        # every solution of this node is zero outside the support
        alive = ones.union(point)
        group = next(
            (g for g in groups if not ones.intersection(g) and sum(v in point for v in g) > 1),
            None,
        )
        if group is not None:
            members = sorted((v for v in group if v in point), key=lambda v: (point[v], v))
            stack.append(_pin_each(ones, alive, bounds, group, members))
            continue
        if scalable:
            scale = reduce(lcm, (x.denominator for x in point.values()), 1)
            point = {v: x * scale for v, x in point.items()}
        fractional = [v for v, x in point.items() if x.denominator != 1]
        if not fractional:
            values = {v: int(x) for v, x in point.items()}
            values.update(dict.fromkeys(ones, 1))
            return finish(values)
        v = min(fractional)
        low = floor(point[v])
        if low > value_cap:
            cut = True
            low = value_cap
        children = [
            (ones, alive, (v,), bounds)
            if low == 0
            else (ones, alive, (), bounds + (LinearInequation(((1, v),), -low, ()),))
        ]
        if low + 1 <= value_cap:
            children.append((ones, alive, (), bounds + (LinearInequation((), low + 1, ((1, v),)),)))
        else:
            cut = True
        stack.append(iter(children))
    return UnknownAtCap("node budget spent" + limits)
