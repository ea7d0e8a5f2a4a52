"""Mixed satisfiability over a seed instance, by nominal encoding.

The seed's atoms become nominal axioms and `mosaic.mixed_sat` decides
the result, so a `sat` verdict carries a mosaic that `check_mosaic`
accepts.
"""

from __future__ import annotations

from typing import Iterable

from .mosaic import MixedSatVerdict, mixed_sat
from .oracle import Instance
from .syntax import ConceptInclusion, ExistsAxiom, Ontology, named, nominal, normalize, role


def horn_mixed_sat(onto: Ontology, seed: Instance, sigma: Iterable[str]) -> MixedSatVerdict:
    """Is there a model J of onto extending seed with every sigma concept
    finite?

    Each seed atom A(c) becomes {c} ⊑ A and each r(c,d) becomes
    {c} ⊑ ∃r.{d}.  Under the oracle's semantics {c} denotes c whether or
    not c occurs in an instance, so these axioms hold in J exactly when J
    contains seed: the models of the encoding are exactly the models of
    onto that contain seed, and mixed satisfiability carries over.
    """
    facts = []
    for pred, args in sorted(seed.atoms):
        if len(args) == 1:
            facts.append(ConceptInclusion((nominal(args[0]),), (named(pred),)))
        else:
            c, d = args
            facts.append(ExistsAxiom(nominal(c), role(pred), nominal(d)))
    return mixed_sat(normalize(onto.with_axioms(facts)), sigma)
