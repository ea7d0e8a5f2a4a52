"""Line-oriented document format: ontologies, instances, queries, configs.

A document is a sequence of blocks::

    ontology NAME
      sub B1 & B2 -> B3 | B4     # simple concepts: Top, Bot, name, {c}, !B
      eq  B  = B1 | B2           # sugar for inclusions both ways
      ex  B1 -> r : B2           # B1 included in exists r . B2 (": B2" optional)
      all B1 -> r : B2
      rsub r -> s                # roles: r or r-
      func r
    end

    instance NAME
      A(c)
      r(c, d)
    end

    query NAME(x, y) := A(x), r(x, y) | B(x), r(x, y)

    config NAME
      schema: A, r
      closed: NAME-or-inline-atom, ...
      fixed: ...
      determined: ...
    end

`#` starts a comment.  In query atoms a bare identifier is a variable;
constants are written in braces, as in A({c}).  Names starting with `_`
are reserved for generated vocabulary and rejected in input.
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

from .oracle import Instance
from .syntax import (
    BOT,
    TOP,
    And,
    Atomic,
    CQ,
    ConceptInclusion,
    Concept,
    ExistsAxiom,
    ForallAxiom,
    FocusingConfiguration,
    Functional,
    GeneralInclusion,
    Not,
    Ontology,
    Or,
    QueryAtom,
    Role,
    RoleInclusion,
    SimpleConcept,
    UCQ,
    Var,
    named,
    nominal,
    RESERVED_PREFIX,
)

Block = Union[Ontology, Instance, CQ, UCQ, FocusingConfiguration]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


def _strip_comment(text: str) -> str:
    return text.split("#", 1)[0]


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*$")
_FACT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\(([^()]*)\)$")
_QHEAD_RE = re.compile(r"query\s+([A-Za-z][A-Za-z0-9_']*)\s*\(([^()]*)\)\s*:=\s*(.*)$")


def _check_name(tok: str, line: int, what: str = "identifier") -> str:
    tok = tok.strip()
    if tok.startswith(RESERVED_PREFIX):
        raise ParseError("reserved name %r (leading underscore)" % tok, line)
    if not _NAME_RE.match(tok):
        raise ParseError("invalid %s %r" % (what, tok), line)
    return tok


def _parse_role(tok: str, line: int) -> Role:
    tok = tok.strip()
    inverted = tok.endswith("-")
    base = tok[:-1] if inverted else tok
    return Role(_check_name(base, line, "role name"), inverted)


def _parse_simple(tok: str, line: int) -> SimpleConcept:
    tok = tok.strip()
    if tok == "Top":
        return TOP
    if tok == "Bot":
        return BOT
    if tok.startswith("{") and tok.endswith("}"):
        return nominal(_check_name(tok[1:-1], line, "constant"))
    return named(_check_name(tok, line, "concept name"))


def _parse_side(text: str, sep: str, line: int) -> List[Tuple[SimpleConcept, bool]]:
    """Parse `B1 <sep> B2 <sep> ...` where each B may carry a `!` prefix."""
    out = []
    for raw in text.split(sep):
        raw = raw.strip()
        if not raw:
            raise ParseError("empty concept in %r" % text, line)
        negated = raw.startswith("!")
        if negated:
            raw = raw[1:].strip()
        out.append((_parse_simple(raw, line), negated))
    return out


def _side_to_concept(parts: List[Tuple[SimpleConcept, bool]], joiner) -> Concept:
    items = [Not(Atomic(b)) if neg else Atomic(b) for b, neg in parts]
    return items[0] if len(items) == 1 else joiner(tuple(items))


def _parse_axiom_line(line_text: str, lineno: int, axioms: set, general: set):
    text = line_text.strip()
    if text.startswith("sub "):
        body = text[4:]
        if "->" not in body:
            raise ParseError("expected '->' in sub line", lineno)
        left_s, right_s = body.split("->", 1)
        lhs = _parse_side(left_s, "&", lineno)
        rhs = _parse_side(right_s, "|", lineno)
        if any(neg for _, neg in lhs):
            general.add(
                GeneralInclusion(_side_to_concept(lhs, And), _side_to_concept(rhs, Or))
            )
        elif any(neg for _, neg in rhs):
            general.add(
                GeneralInclusion(_side_to_concept(lhs, And), _side_to_concept(rhs, Or))
            )
        else:
            axioms.add(
                ConceptInclusion(tuple(b for b, _ in lhs), tuple(b for b, _ in rhs))
            )
    elif text.startswith("eq "):
        body = text[3:]
        if "=" not in body:
            raise ParseError("expected '=' in eq line", lineno)
        left_s, right_s = body.split("=", 1)
        lhs = _parse_side(left_s, "&", lineno)
        rhs = _parse_side(right_s, "|", lineno)
        left_c = _side_to_concept(lhs, And)
        right_c = _side_to_concept(rhs, Or)
        general.add(GeneralInclusion(left_c, right_c))
        general.add(GeneralInclusion(right_c, left_c))
    elif text.startswith("ex ") or text.startswith("all "):
        kind, body = text.split(" ", 1)
        if "->" not in body:
            raise ParseError("expected '->' in %s line" % kind, lineno)
        left_s, rest = body.split("->", 1)
        if ":" in rest:
            role_s, filler_s = rest.split(":", 1)
            filler = _parse_simple(filler_s, lineno)
        else:
            role_s, filler = rest, TOP
        lhs = _parse_simple(left_s, lineno)
        r = _parse_role(role_s, lineno)
        cls = ExistsAxiom if kind == "ex" else ForallAxiom
        axioms.add(cls(lhs, r, filler))
    elif text.startswith("rsub "):
        body = text[5:]
        if "->" not in body:
            raise ParseError("expected '->' in rsub line", lineno)
        sub_s, sup_s = body.split("->", 1)
        axioms.add(RoleInclusion(_parse_role(sub_s, lineno), _parse_role(sup_s, lineno)))
    elif text.startswith("func "):
        axioms.add(Functional(_parse_role(text[5:], lineno)))
    else:
        raise ParseError("unrecognized axiom line %r" % text, lineno)


def _parse_fact(text: str, lineno: int) -> tuple:
    m = _FACT_RE.match(text.strip())
    if not m:
        raise ParseError("expected a fact like A(c) or r(c,d)", lineno)
    pred = _check_name(m.group(1), lineno, "predicate")
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    if len(args) not in (1, 2):
        raise ParseError("facts must have one or two arguments", lineno)
    return (pred, tuple(_check_name(a, lineno, "constant") for a in args))


def _parse_query_atoms(text: str, lineno: int) -> Tuple[QueryAtom, ...]:
    atoms = []
    depth_split = [a.strip() for a in text.split(",")]
    # rejoin pieces whose parentheses were split by commas inside atoms
    merged, buf = [], ""
    for piece in depth_split:
        buf = piece if not buf else buf + ", " + piece
        if buf.count("(") == buf.count(")"):
            merged.append(buf)
            buf = ""
    if buf:
        raise ParseError("unbalanced parentheses in query body", lineno)
    for raw in merged:
        m = re.match(r"([A-Za-z_][A-Za-z0-9_']*)\(([^()]*)\)$", raw)
        if not m:
            raise ParseError("expected an atom like A(x) or r(x,y), got %r" % raw, lineno)
        pred = _check_name(m.group(1), lineno, "predicate")
        args = []
        for t in m.group(2).split(","):
            t = t.strip()
            if not t:
                raise ParseError("empty term in atom %r" % raw, lineno)
            if t.startswith("{") and t.endswith("}"):
                args.append(_check_name(t[1:-1], lineno, "constant"))
            else:
                args.append(Var(_check_name(t, lineno, "variable")))
        if len(args) not in (1, 2):
            raise ParseError("atoms must have one or two arguments", lineno)
        atoms.append(QueryAtom(pred, tuple(args)))
    return tuple(atoms)


def _parse_query(text: str, lineno: int) -> Union[CQ, UCQ]:
    m = _QHEAD_RE.match(text.strip())
    if not m:
        raise ParseError("expected 'query NAME(vars) := atoms'", lineno)
    qname = _check_name(m.group(1), lineno, "query name")
    var_names = [v.strip() for v in m.group(2).split(",")] if m.group(2).strip() else []
    answer = tuple(Var(_check_name(v, lineno, "variable")) for v in var_names)
    bodies = m.group(3).split("|")
    disjuncts = []
    for body in bodies:
        atoms = _parse_query_atoms(body, lineno)
        dvars = set()
        for a in atoms:
            dvars.update(a.variables())
        for v in answer:
            if v not in dvars:
                raise ParseError("answer variable %s not used in atoms" % v.name, lineno)
        disjuncts.append(CQ(answer, atoms, qname))
    if len(disjuncts) == 1:
        return disjuncts[0]
    return UCQ(tuple(disjuncts), qname)


def _parse_config_entry(text: str, lineno: int, queries: dict):
    text = text.strip()
    if "(" in text:
        atoms = _parse_query_atoms(text, lineno)
        if len(atoms) != 1:
            raise ParseError("inline config entries must be single atoms", lineno)
        a = atoms[0]
        answer = tuple(t for t in a.args if isinstance(t, Var))
        return CQ(answer, (a,))
    if text in queries:
        return queries[text]
    raise ParseError("reference to undeclared query %r" % text, lineno)


def parse_document(text: str) -> List[Block]:
    """Parse a full document; returns blocks in document order."""
    lines = text.split("\n")
    blocks: List[Block] = []
    names = set()
    queries: dict = {}
    i = 0

    def register(name: str, lineno: int):
        if name in names:
            raise ParseError("duplicate block name %r" % name, lineno)
        names.add(name)

    while i < len(lines):
        raw = _strip_comment(lines[i]).strip()
        lineno = i + 1
        if not raw:
            i += 1
            continue
        if raw.startswith("ontology "):
            name = _check_name(raw[len("ontology ") :], lineno, "block name")
            register(name, lineno)
            axioms: set = set()
            general: set = set()
            i += 1
            while True:
                if i >= len(lines):
                    raise ParseError("ontology %r not closed with 'end'" % name, lineno)
                body = _strip_comment(lines[i]).strip()
                if body == "end":
                    break
                if body:
                    _parse_axiom_line(body, i + 1, axioms, general)
                i += 1
            blocks.append(Ontology(frozenset(axioms), frozenset(general), name))
        elif raw.startswith("instance "):
            name = _check_name(raw[len("instance ") :], lineno, "block name")
            register(name, lineno)
            facts = set()
            i += 1
            while True:
                if i >= len(lines):
                    raise ParseError("instance %r not closed with 'end'" % name, lineno)
                body = _strip_comment(lines[i]).strip()
                if body == "end":
                    break
                if body:
                    facts.add(_parse_fact(body, i + 1))
                i += 1
            blocks.append(Instance(frozenset(facts), name))
        elif raw.startswith("query "):
            q = _parse_query(raw, lineno)
            register(q.name, lineno)
            queries[q.name] = q
            blocks.append(q)
        elif raw.startswith("config "):
            name = _check_name(raw[len("config ") :], lineno, "block name")
            register(name, lineno)
            schema: set = set()
            closed: list = []
            fixed: list = []
            determined: list = []
            i += 1
            while True:
                if i >= len(lines):
                    raise ParseError("config %r not closed with 'end'" % name, lineno)
                body = _strip_comment(lines[i]).strip()
                if body == "end":
                    break
                if body:
                    if ":" not in body:
                        raise ParseError("expected 'key: entries' in config", i + 1)
                    key, rest = body.split(":", 1)
                    key = key.strip()
                    entries = [e.strip() for e in _split_entries(rest)] if rest.strip() else []
                    if key == "schema":
                        for e in entries:
                            schema.add(_check_name(e, i + 1, "predicate"))
                    elif key in ("closed", "fixed", "determined"):
                        target = {"closed": closed, "fixed": fixed, "determined": determined}[key]
                        for e in entries:
                            target.append(_parse_config_entry(e, i + 1, queries))
                    else:
                        raise ParseError("unknown config key %r" % key, i + 1)
                i += 1
            blocks.append(
                FocusingConfiguration(
                    frozenset(schema), tuple(closed), tuple(fixed), tuple(determined), name
                )
            )
        else:
            raise ParseError("unrecognized block opener %r" % raw, lineno)
        i += 1
    return blocks


def _split_entries(text: str) -> List[str]:
    """Split on commas not inside parentheses (inline atoms carry commas)."""
    out, buf, depth = [], "", 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append(buf)
            buf = ""
        else:
            buf += ch
    if buf.strip():
        out.append(buf)
    return [e for e in (x.strip() for x in out) if e]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_ontology(onto: Ontology) -> str:
    lines = ["ontology %s" % (onto.name or "O")]
    for a in onto.sorted_axioms():
        lines.append("  " + str(a))
    for g in onto.sorted_general():
        lines.append("  " + _serialize_general(g))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _serialize_general(g: GeneralInclusion) -> str:
    # only the shapes the parser can produce need to round-trip
    def side(c, sep):
        parts = c.parts if isinstance(c, (And, Or)) else (c,)
        toks = []
        for p in parts:
            if isinstance(p, Not):
                toks.append("!" + str(p.sub))
            else:
                toks.append(str(p))
        return (" %s " % sep).join(toks)

    return "sub %s -> %s" % (side(g.lhs, "&"), side(g.rhs, "|"))


def serialize_instance(inst) -> str:
    lines = ["instance %s" % (inst.name or "I")]
    for pred, args in sorted(inst.atoms):
        lines.append("  %s(%s)" % (pred, ", ".join(args)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_query(q) -> str:
    disjuncts = q.disjuncts if isinstance(q, UCQ) else (q,)
    head = "query %s(%s) := " % (
        q.name or "q",
        ", ".join(v.name for v in disjuncts[0].answer_vars),
    )
    return head + " | ".join(", ".join(str(a) for a in d.atoms) for d in disjuncts) + "\n"


def serialize(block) -> str:
    if isinstance(block, Ontology):
        return serialize_ontology(block)
    if isinstance(block, Instance):
        return serialize_instance(block)
    if isinstance(block, (CQ, UCQ)):
        return serialize_query(block)
    if isinstance(block, FocusingConfiguration):
        lines = ["config %s" % (block.name or "F")]
        if block.schema:
            lines.append("  schema: %s" % ", ".join(sorted(block.schema)))
        for key, queries in (
            ("closed", block.closed),
            ("fixed", block.fixed),
            ("determined", block.determined),
        ):
            if queries:
                entries = []
                for q in queries:
                    if q.name:
                        entries.append(q.name)
                    else:
                        entries.append(str(q.atoms[0]))
                lines.append("  %s: %s" % (key, ", ".join(entries)))
        lines.append("end")
        return "\n".join(lines) + "\n"
    raise TypeError("cannot serialize %r" % (block,))
