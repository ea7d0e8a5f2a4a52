"""Mixed satisfiability via tiles and mosaics.

A tile describes one element of a model: its unary type plus labelled
edges to the types of its relevant neighbours (existential witnesses and
successors along functional roles).  A mosaic assigns each tile a
multiplicity in N ∪ {aleph0}; arithmetic coherence conditions on the
multiplicities certify that a model with the prescribed finite
extensions exists.  Deciding mixed satisfiability then reduces to the
feasibility of an enriched inequation system with one variable per tile.

Tiles are enumerated canonically: every edge is either a witness edge
for a group of triggered existential axioms (the edge's role set is the
hierarchy closure of the group's roles: groups capture witnesses that
must or may coincide) or a backlink edge mirroring a witness class
through a functional role.  Models induce exactly such tiles, so the
restriction does not change mosaic existence.

The empty instance is checked separately: it is a model of many
ontologies (anything without nominal-driven obligations), while the
mosaic conditions require at least one realized tile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import DialectError, ResourceCeilingError, Verdict
from .ineq import (
    EnrichedIneqSystem,
    ExtNat,
    Implication,
    LinearInequation,
    NoSolution,
    UnknownAtCap,
    ZERO,
    ext_sum,
    fin,
    solve_enriched,
)
from .oracle import EMPTY, Instance, is_model
from .syntax import (
    BOT,
    TOP,
    ConceptInclusion,
    Dialect,
    ExistsAxiom,
    ForallAxiom,
    FreshNames,
    Functional,
    Ontology,
    Role,
    SimpleConcept,
    classify_dialect,
    closure_of,
    named,
    role_closure,
)

TILE_CEILING = 2 ** 20  # unary types, tiles and lite tiles per ontology
DEFAULT_PREFIX = 8

UnaryType = FrozenSet[SimpleConcept]
RoleSet = FrozenSet[Role]


def _sc_sort(t: Iterable[SimpleConcept]) -> tuple:
    return tuple(sorted(t, key=lambda b: (b.kind, b.name)))


def _rs_sort(rs: Iterable[Role]) -> tuple:
    return tuple(sorted(rs))


@dataclass(frozen=True)
class Tile:
    root: UnaryType
    edges: FrozenSet[Tuple[RoleSet, UnaryType]]

    def sort_key(self):
        return (
            _sc_sort(self.root),
            tuple(sorted((_rs_sort(rs), _sc_sort(t)) for rs, t in self.edges)),
        )

    def __str__(self) -> str:
        root = ",".join(str(b) for b in _sc_sort(self.root))
        edges = "; ".join(
            "{%s}->{%s}"
            % (",".join(str(r) for r in _rs_sort(rs)), ",".join(str(b) for b in _sc_sort(t)))
            for rs, t in sorted(self.edges, key=lambda e: (_rs_sort(e[0]), _sc_sort(e[1])))
        )
        return "[%s | %s]" % (root, edges)


@dataclass(frozen=True)
class LiteTile:
    root: UnaryType
    outgoing: RoleSet

    def sort_key(self):
        return (_sc_sort(self.root), _rs_sort(self.outgoing))

    def __str__(self) -> str:
        return "[%s | %s]" % (
            ",".join(str(b) for b in _sc_sort(self.root)),
            ",".join(str(r) for r in _rs_sort(self.outgoing)),
        )


@dataclass(frozen=True)
class Mosaic:
    multiplicity: tuple  # ((tile, ExtNat), ...) canonical order

    @staticmethod
    def of(mapping: Dict) -> "Mosaic":
        return Mosaic(tuple(sorted(mapping.items(), key=lambda kv: kv[0].sort_key())))

    def as_dict(self) -> Dict:
        return dict(self.multiplicity)

    def value(self, tile) -> ExtNat:
        return self.as_dict().get(tile, ZERO)

    def all_finite(self) -> bool:
        return all(not n.is_infinite for _, n in self.multiplicity)


# ---------------------------------------------------------------------------
# Vocabulary helpers
# ---------------------------------------------------------------------------


def enumerate_types(onto: Ontology) -> List[UnaryType]:
    """All unary types: subsets of the ontology's simple concepts with Top,
    without Bot, with at most one nominal, respecting concept inclusions."""
    simples = sorted(
        (b for b in onto.simple_concepts() if b not in (TOP, BOT)),
        key=lambda b: (b.kind, b.name),
    )
    if 2 ** len(simples) > TILE_CEILING:
        raise ResourceCeilingError("type space exceeds mosaic.TILE_CEILING")
    inclusions = [a for a in onto.sorted_axioms() if isinstance(a, ConceptInclusion)]
    out = []
    for k in range(len(simples) + 1):
        for chosen in itertools.combinations(simples, k):
            if sum(1 for b in chosen if b.kind == "nominal") > 1:
                continue
            t: UnaryType = frozenset(chosen) | {TOP}
            ok = True
            for a in inclusions:
                if all(b in t for b in a.lhs) and not any(b in t for b in a.rhs):
                    ok = False
                    break
            if ok:
                out.append(t)
    return out


# ---------------------------------------------------------------------------
# Role-name elimination
# ---------------------------------------------------------------------------


def eliminate_closed_roles(onto: Ontology, sigma: Iterable[str]) -> Tuple[Ontology, FrozenSet[str]]:
    """Replace role names in the finiteness signature by a fresh collector
    concept holding the domain and range of each such role.  Preserves
    mixed satisfiability."""
    sigma = set(sigma)
    concept_names = onto.concept_names()
    role_names = onto.role_names()
    closed_roles = sorted(n for n in sigma if n in role_names and n not in concept_names)
    if not closed_roles:
        return onto, frozenset(sigma)
    collector = named(FreshNames(concept_names).mint())
    extra = []
    for n in closed_roles:
        extra.append(ForallAxiom(TOP, Role(n, False), collector))
        extra.append(ForallAxiom(TOP, Role(n, True), collector))
    out_sigma = (sigma - set(closed_roles)) | {collector.name}
    return onto.with_axioms(extra), frozenset(out_sigma)


# ---------------------------------------------------------------------------
# Tile enumeration
# ---------------------------------------------------------------------------


def _edge_compatible(onto: Ontology, src: UnaryType, rs: RoleSet, dst: UnaryType) -> bool:
    """Value restrictions across one labelled edge, in both directions."""
    for a in onto.axioms:
        if isinstance(a, ForallAxiom):
            if a.role in rs and a.lhs in src and a.filler not in dst:
                return False
            if a.role.inverse() in rs and a.lhs in dst and a.filler not in src:
                return False
    return True


def _func_ok(onto: Ontology, edges: Iterable[Tuple[RoleSet, UnaryType]]) -> bool:
    edges = list(edges)
    for a in onto.axioms:
        if isinstance(a, Functional):
            if sum(1 for rs, _ in edges if a.role in rs) > 1:
                return False
    return True


def _set_partitions(items: list):
    """All partitions of items into nonempty groups, deterministically."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_tiles(onto: Ontology) -> List[Tile]:
    """All canonical tiles: witness-group edges plus functional backlinks.

    Raises ResourceCeilingError past TILE_CEILING.
    """
    if not onto.is_normalized():
        raise DialectError("tile enumeration requires a normalized ontology")
    clo = role_closure(onto)
    types = enumerate_types(onto)
    exists_axioms = [a for a in onto.sorted_axioms() if isinstance(a, ExistsAxiom)]
    func_count = sum(1 for a in onto.axioms if isinstance(a, Functional))

    # pass 1: witness configurations per type
    witness_configs: Dict[UnaryType, List[FrozenSet]] = {}
    witness_classes: Set[Tuple[UnaryType, RoleSet, UnaryType]] = set()
    for t in types:
        obligations = [a for a in exists_axioms if a.lhs in t]
        configs = []
        for partition in _set_partitions(obligations):
            group_choices = []
            ok = True
            for group in partition:
                rs = closure_of((a.role for a in group), clo)
                targets = [
                    t2
                    for t2 in types
                    if all(a.filler in t2 for a in group)
                    and _edge_compatible(onto, t, rs, t2)
                ]
                if not targets:
                    ok = False
                    break
                group_choices.append([(rs, t2) for t2 in targets])
            if not ok:
                continue
            for combo in itertools.product(*group_choices):
                edges = frozenset(combo)
                if _func_ok(onto, edges):
                    configs.append(edges)
        seen = set()
        unique = []
        for c in configs:
            if c not in seen:
                seen.add(c)
                unique.append(c)
        witness_configs[t] = unique
        for edges in unique:
            for rs, t2 in edges:
                witness_classes.add((t, rs, t2))

    # pass 2: attach backlink edges mirroring functional witness classes
    has_func = {r for a in onto.axioms if isinstance(a, Functional) for r in [a.role]}
    backlink_pool: Dict[UnaryType, List[Tuple[RoleSet, UnaryType]]] = {}
    for t in types:
        pool = []
        for (src, rs, dst) in witness_classes:
            if dst != t:
                continue
            mirror = frozenset(r.inverse() for r in rs)
            if mirror & has_func and _edge_compatible(onto, t, mirror, src):
                pool.append((mirror, src))
        backlink_pool[t] = sorted(set(pool), key=lambda e: (_rs_sort(e[0]), _sc_sort(e[1])))

    tiles: List[Tile] = []
    seen_tiles: Set[Tile] = set()
    for t in types:
        pool = backlink_pool[t]
        max_back = min(len(pool), func_count)
        for edges in witness_configs[t]:
            for k in range(0, max_back + 1):
                for back in itertools.combinations(pool, k):
                    all_edges = edges | frozenset(back)
                    if len(all_edges) < len(edges) + k:
                        continue  # backlink duplicated a witness edge
                    if not _func_ok(onto, all_edges):
                        continue
                    tile = Tile(t, all_edges)
                    if tile not in seen_tiles:
                        seen_tiles.add(tile)
                        tiles.append(tile)
                        if len(tiles) > TILE_CEILING:
                            raise ResourceCeilingError("tile count exceeds mosaic.TILE_CEILING")
    tiles.sort(key=Tile.sort_key)
    return tiles


# ---------------------------------------------------------------------------
# Mosaic conditions: system construction and the direct checker
# ---------------------------------------------------------------------------


def _tile_vars(tiles: Sequence) -> Dict:
    return {tile: "t%d" % i for i, tile in enumerate(tiles)}


def _cond5_triples(onto: Ontology, tiles: Sequence[Tile]):
    """Matching triples (T, R, T'): some role in R is inverse-functional.

    Each labelled edge class occurring in a tile contributes the triple
    in its own orientation; the mirrored orientation arises from the
    backlink edges that occur in tiles themselves.
    """
    func_roles = {a.role for a in onto.axioms if isinstance(a, Functional)}
    triples = set()
    for tile in tiles:
        for rs, dst in tile.edges:
            if any(r.inverse() in func_roles for r in rs):
                triples.add((tile.root, rs, dst))
    return sorted(triples, key=lambda t: (_sc_sort(t[0]), _rs_sort(t[1]), _sc_sort(t[2])))


def build_mosaic_system(
    onto: Ontology,
    sigma: Iterable[str],
    tiles: Optional[Sequence[Tile]] = None,
) -> Tuple[EnrichedIneqSystem, Dict]:
    """Encode mosaic existence as an enriched inequation system.

    sigma must contain concept names only (eliminate closed roles first).
    Returns the system together with the tile-per-variable map.
    """
    sigma = set(sigma)
    role_names = onto.role_names()
    if sigma & role_names - onto.concept_names():
        raise ValueError("sigma contains role names; eliminate them first")
    if tiles is None:
        tiles = enumerate_tiles(onto)
    var_of = _tile_vars(tiles)
    by_root: Dict[UnaryType, List[Tile]] = {}
    for tile in tiles:
        by_root.setdefault(tile.root, []).append(tile)

    ineqs: List[LinearInequation] = []
    imps: List[Implication] = []

    # (1) each nominal is realized exactly once
    nominals = sorted(b for b in onto.simple_concepts() if b.kind == "nominal")
    for nom in nominals:
        terms = tuple((1, var_of[t]) for t in tiles if nom in t.root)
        ineqs.append(LinearInequation((), 1, terms))
        if terms:
            ineqs.append(LinearInequation(terms, -1, ()))

    # (2) at least one tile is realized
    ineqs.append(LinearInequation((), 1, tuple((1, var_of[t]) for t in tiles)))

    # (3) tiles whose root meets sigma stay finite
    finite = frozenset(
        var_of[t]
        for t in tiles
        if any(b.kind == "named" and b.name in sigma for b in t.root)
    )

    # (4) every edge needs a realized tile at its target type
    for tile in tiles:
        for rs, dst in sorted(tile.edges, key=lambda e: (_rs_sort(e[0]), _sc_sort(e[1]))):
            targets = by_root.get(dst, [])
            if targets:
                imps.append(
                    Implication(
                        (var_of[tile],), tuple(var_of[t2] for t2 in targets)
                    )
                )
            else:
                ineqs.append(LinearInequation(((1, var_of[tile]),), 0, ()))

    # (5) one-way matching through inverse-functional roles
    for src_t, rs, dst_t in _cond5_triples(onto, tiles):
        lhs = tuple(
            (1, var_of[t]) for t in by_root.get(src_t, []) if (rs, dst_t) in t.edges
        )
        mirror = frozenset(r.inverse() for r in rs)
        rhs = tuple(
            (1, var_of[t]) for t in by_root.get(dst_t, []) if (mirror, src_t) in t.edges
        )
        if lhs:
            ineqs.append(LinearInequation(lhs, 0, rhs))

    system = EnrichedIneqSystem.of(
        frozenset(var_of.values()), ineqs, finite, imps
    )
    return system, var_of


def check_mosaic(onto: Ontology, sigma: Iterable[str], mosaic: Mosaic) -> bool:
    """The five mosaic conditions, checked directly over N* arithmetic."""
    sigma = set(sigma)
    entries = list(mosaic.multiplicity)
    tiles = [t for t, _ in entries]
    value = dict(entries)

    # (1)
    for nom in (b for b in onto.simple_concepts() if b.kind == "nominal"):
        total = ext_sum(value[t] for t in tiles if nom in t.root)
        if total != fin(1):
            return False
    # (2)
    if not ext_sum(value.values()) > ZERO:
        return False
    # (3)
    for t in tiles:
        if value[t].is_infinite and any(
            b.kind == "named" and b.name in sigma for b in t.root
        ):
            return False
    # (4)
    roots_realized = {t.root for t in tiles if value[t] > ZERO}
    for t in tiles:
        if value[t] > ZERO:
            for rs, dst in t.edges:
                if dst not in roots_realized:
                    return False
    # (5)
    for src_t, rs, dst_t in _cond5_triples(onto, tiles):
        mirror = frozenset(r.inverse() for r in rs)
        lhs = ext_sum(
            value[t] for t in tiles if t.root == src_t and (rs, dst_t) in t.edges
        )
        rhs = ext_sum(
            value[t] for t in tiles if t.root == dst_t and (mirror, src_t) in t.edges
        )
        if not lhs <= rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Mixed satisfiability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixedSatVerdict(Verdict):
    POSITIVE = "sat"  # or "unsat" or "unknown"
    mosaic: Optional[Mosaic] = None
    lite_mosaic: Optional[dict] = None


def mixed_sat(onto: Ontology, sigma: Iterable[str]) -> MixedSatVerdict:
    """Is there a model of onto in which every sigma predicate is finite?

    DL-Lite ontologies go to the lite tile pipeline, everything else to
    the general one.
    """
    if not onto.is_normalized():
        raise DialectError("mixed_sat requires a normalized ontology")
    sigma = frozenset(sigma)
    if is_model(EMPTY, onto):
        return MixedSatVerdict("sat", None, note="empty instance is a model")
    lite = classify_dialect(onto) in (Dialect.DLLiteBoolHOF, Dialect.DLLiteHF)
    onto2, sigma2 = eliminate_closed_roles(onto, sigma)
    if lite:
        tiles = enumerate_lite_tiles(onto2)
        system, var_of = build_lite_mosaic_system(onto2, sigma2, tiles)
    else:
        tiles = enumerate_tiles(onto2)
        system, var_of = build_mosaic_system(onto2, sigma2, tiles)
    result = solve_enriched(system)
    if isinstance(result, NoSolution):
        return MixedSatVerdict("unsat")
    if isinstance(result, UnknownAtCap):
        return MixedSatVerdict("unknown", note="integer search: " + result.reason)
    mapping = {tile: result.assignment[var] for tile, var in var_of.items()}
    if lite:
        return MixedSatVerdict("sat", None, lite_mosaic=mapping)
    mosaic = Mosaic.of(mapping)
    if not check_mosaic(onto2, sigma2, mosaic):
        raise AssertionError("solver produced an invalid mosaic")
    return MixedSatVerdict("sat", mosaic)


# ---------------------------------------------------------------------------
# DL-Lite tiles
# ---------------------------------------------------------------------------


def _is_r_sink(onto: Ontology, t: UnaryType, r: Role, clo) -> bool:
    for a in onto.axioms:
        if isinstance(a, ForallAxiom) and a.lhs == TOP:
            if a.role in clo.get(r, frozenset({r})) and a.filler not in t:
                return False
    return True


def enumerate_lite_tiles(onto: Ontology) -> List[LiteTile]:
    if classify_dialect(onto) not in (Dialect.DLLiteBoolHOF, Dialect.DLLiteHF):
        raise DialectError("lite tiles require a DL-Lite ontology")
    clo = role_closure(onto)
    types = enumerate_types(onto)
    roles = sorted(onto.roles_with_inverses())
    exists_axioms = [a for a in onto.sorted_axioms() if isinstance(a, ExistsAxiom)]
    tiles: Set[LiteTile] = set()
    for t in types:
        required = closure_of(
            (a.role for a in exists_axioms if a.lhs in t), clo
        )
        optional = [r for r in roles if r not in required]
        for k in range(len(optional) + 1):
            for extra in itertools.combinations(optional, k):
                rset = closure_of(set(required) | set(extra), clo)
                # the root must be an r-sink for every inverse in R
                if all(_is_r_sink(onto, t, r.inverse(), clo) for r in rset):
                    tiles.add(LiteTile(t, rset))
                if len(tiles) > TILE_CEILING:
                    raise ResourceCeilingError("lite tile count exceeds mosaic.TILE_CEILING")
    return sorted(tiles, key=LiteTile.sort_key)


def build_lite_mosaic_system(
    onto: Ontology, sigma: Iterable[str], tiles: Optional[Sequence[LiteTile]] = None
) -> Tuple[EnrichedIneqSystem, Dict]:
    sigma = set(sigma)
    if tiles is None:
        tiles = enumerate_lite_tiles(onto)
    clo = role_closure(onto)
    var_of = _tile_vars(tiles)
    ineqs: List[LinearInequation] = []
    imps: List[Implication] = []

    # (1) some tile realized
    ineqs.append(LinearInequation((), 1, tuple((1, var_of[t]) for t in tiles)))

    # (2)+(3) nominals: realized exactly once
    for nom in sorted(b for b in onto.simple_concepts() if b.kind == "nominal"):
        terms = tuple((1, var_of[t]) for t in tiles if nom in t.root)
        ineqs.append(LinearInequation((), 1, terms))
        if terms:
            ineqs.append(LinearInequation(terms, -1, ()))

    # (4) sigma-rooted tiles finite
    finite = frozenset(
        var_of[t]
        for t in tiles
        if any(b.kind == "named" and b.name in sigma for b in t.root)
    )

    # (5) outgoing role needs a realized sink tile
    sink_tiles: Dict[Role, List[LiteTile]] = {}
    roles = sorted({r for t in tiles for r in t.outgoing})
    for r in roles:
        sink_tiles[r] = [t for t in tiles if _is_r_sink(onto, t.root, r, clo)]
    for t in tiles:
        for r in sorted(t.outgoing):
            sinks = sink_tiles[r]
            if sinks:
                imps.append(Implication((var_of[t],), tuple(var_of[s] for s in sinks)))
            else:
                ineqs.append(LinearInequation(((1, var_of[t]),), 0, ()))

    func_roles = {a.role for a in onto.axioms if isinstance(a, Functional)}
    all_roles = sorted(onto.roles_with_inverses())
    for r in all_roles:
        has_r = tuple((1, var_of[t]) for t in tiles if r in t.outgoing)
        has_inv = tuple((1, var_of[t]) for t in tiles if r.inverse() in t.outgoing)
        if r in func_roles and r.inverse() in func_roles:
            # (6) both directions functional: counts agree
            if has_r or has_inv:
                if has_r and has_inv:
                    ineqs.append(LinearInequation(has_r, 0, has_inv))
                    ineqs.append(LinearInequation(has_inv, 0, has_r))
                elif has_r:
                    ineqs.append(LinearInequation(has_r, 0, ()))
                else:
                    ineqs.append(LinearInequation(has_inv, 0, ()))
        elif r.inverse() in func_roles:
            # (7) inverse functional only: sources bounded by sinks
            sinks = tuple((1, var_of[t]) for t in sink_tiles.get(r, []))
            if has_r:
                ineqs.append(LinearInequation(has_r, 0, sinks))

    system = EnrichedIneqSystem.of(frozenset(var_of.values()), ineqs, finite, imps)
    return system, var_of


# ---------------------------------------------------------------------------
# Model materialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaterializedModel:
    instance: Instance
    partial: bool


def materialize_model(
    onto: Ontology, mosaic: Optional[Mosaic], prefix: int = DEFAULT_PREFIX
) -> MaterializedModel:
    """Build an instance from a mosaic.

    Finite mosaics materialize completely (the result is a model);
    infinite multiplicities are truncated to `prefix` copies and the
    result is flagged partial.  A None mosaic stands for the empty model.
    """
    if mosaic is None:
        return MaterializedModel(EMPTY, False)
    entries = [(t, n) for t, n in mosaic.multiplicity if n > ZERO]
    partial = any(n.is_infinite for _, n in entries)

    func_roles = {a.role for a in onto.axioms if isinstance(a, Functional)}

    # instantiate elements; nominal-rooted tiles take their constant's name
    counter = itertools.count(1)
    elements: Dict[Tile, List[str]] = {}
    for tile, n in entries:
        count = prefix if n.is_infinite else n.value
        noms = [b for b in tile.root if b.kind == "nominal"]
        names = []
        for i in range(count):
            if noms and i == 0:
                names.append(noms[0].name)
            else:
                names.append("_m%d" % next(counter))
        elements[tile] = names

    atoms: Set[tuple] = set()
    for tile, _ in entries:
        for el in elements[tile]:
            for b in tile.root:
                if b.kind == "named":
                    atoms.add((b.name, (el,)))

    # edge classes, processed once per unordered orientation pair
    classes = {}
    for tile, _ in entries:
        for rs, dst in tile.edges:
            classes[(tile.root, rs, dst)] = None
    by_root: Dict[UnaryType, List[Tile]] = {}
    for tile, _ in entries:
        by_root.setdefault(tile.root, []).append(tile)

    def side_elements(root, rs, dst):
        out = []
        for t in by_root.get(root, []):
            if (rs, dst) in t.edges:
                out.extend(elements[t])
        return out

    def add_edge(e1, e2, rs):
        for r in rs:
            if r.inverted:
                atoms.add((r.name, (e2, e1)))
            else:
                atoms.add((r.name, (e1, e2)))

    def root_elements(root):
        out = []
        for t in by_root.get(root, []):
            out.extend(elements[t])
        return sorted(out)

    done = set()
    unsatisfied = False
    for key in sorted(classes, key=lambda k: (_sc_sort(k[0]), _rs_sort(k[1]), _sc_sort(k[2]))):
        src_t, rs, dst_t = key
        mirror_rs = frozenset(r.inverse() for r in rs)
        mirror_key = (dst_t, mirror_rs, src_t)
        if key in done or mirror_key in done:
            continue
        done.add(key)
        done.add(mirror_key)
        fwd = sorted(side_elements(src_t, rs, dst_t))
        bwd = sorted(side_elements(dst_t, mirror_rs, src_t))
        # func(r-) makes targets absorb at most one class edge, func(r)
        # makes sources emit at most one; the matching inequations
        # guarantee the counts line up
        targets_private = any(r.inverse() in func_roles for r in rs)
        sources_private = any(r in func_roles for r in rs)
        if key == mirror_key:
            # symmetric class: pair every element with itself
            for el in fwd:
                add_edge(el, el, rs)
            continue
        if targets_private and sources_private:
            if len(fwd) != len(bwd) and not partial:
                raise AssertionError("bijective matching sides differ")
            for e1, e2 in zip(fwd, bwd):
                add_edge(e1, e2, rs)
            if len(fwd) != len(bwd):
                unsatisfied = True
        elif targets_private:
            # each target absorbs at most one edge: inject fwd into bwd,
            # leftover targets draw their edge from a designated source
            if len(fwd) > len(bwd):
                if not partial:
                    raise AssertionError("injective matching lacks targets")
                unsatisfied = True
            for e1, e2 in zip(fwd, bwd):
                add_edge(e1, e2, rs)
            spares = root_elements(src_t)
            for e2 in bwd[len(fwd):]:
                if spares:
                    add_edge(spares[0], e2, rs)
        elif sources_private:
            # mirror of the previous case: inject bwd into fwd
            if len(bwd) > len(fwd):
                if not partial:
                    raise AssertionError("injective matching lacks targets")
                unsatisfied = True
            for e2, e1 in zip(bwd, fwd):
                add_edge(e1, e2, rs)
            spares = root_elements(dst_t)
            for e1 in fwd[len(bwd):]:
                if spares:
                    add_edge(e1, spares[0], rs)
        else:
            # unconstrained: everyone points at a designated element
            targets = root_elements(dst_t)
            sources = root_elements(src_t)
            if fwd and not targets:
                raise AssertionError("successor condition violated in mosaic")
            for el in fwd:
                add_edge(el, targets[0], rs)
            for el in bwd:
                if sources:
                    add_edge(sources[0], el, rs)
    return MaterializedModel(Instance(frozenset(atoms)), partial or unsatisfied)
