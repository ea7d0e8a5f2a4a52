"""Shared error types and the three-tier verdict."""

from dataclasses import dataclass, field


class ResourceCeilingError(Exception):
    """An enumeration exceeded its configured ceiling."""


class DialectError(ValueError):
    """The ontology is outside the dialect a procedure supports."""


class ScopeError(ValueError):
    """The inputs are outside the scope of an exact procedure."""


@dataclass(frozen=True)
class Verdict:
    """The answer of a decision procedure, in one of three tiers.

    `kind` is the subclass's `POSITIVE` kind (certified), "unknown"
    (undecided: `note` names the module constant, `Bounds` field or
    fragment limit that stopped the procedure) or one negative kind.
    """

    kind: str
    note: str = field(default="", kw_only=True)

    POSITIVE = ""  # each subclass names its positive kind

    @property
    def tier(self) -> str:
        if self.kind == self.POSITIVE:
            return "positive"
        return "unknown" if self.kind == "unknown" else "negative"
