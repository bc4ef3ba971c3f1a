"""Operational and co-operational bivariant theories over finite sites.

Everything is computed exactly over the integers: groups of bivariant
classes, the seven compatibility axioms, Grothendieck transformations,
and the transfer constructions, all at desk scale.
"""

from .exactalg import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    IntMatrix,
    hom_group,
    kernel,
    image,
    kernel_image,
    smith_decomposition,
    snf,
)
from .report import ValidationReport, Violation
from .site import GradedFunctor, NaturalTransf, PullbackSquare, Site, validate_site
from .bivcore import GrothTransf, TabulatedBivTheory, image_subtheory, validate_axioms, validate_groth
from .operational import OpClass, op_from_bivariant, op_group
from .cooperational import (
    CoopClass,
    coop_from_bivariant,
    coop_group,
    cup_class,
    power_family,
    transfer_subgroup,
)

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "GroupHom",
    "IntMatrix",
    "hom_group",
    "kernel",
    "image",
    "kernel_image",
    "smith_decomposition",
    "snf",
    "ValidationReport",
    "Violation",
    "GradedFunctor",
    "NaturalTransf",
    "PullbackSquare",
    "Site",
    "validate_site",
    "GrothTransf",
    "TabulatedBivTheory",
    "image_subtheory",
    "validate_axioms",
    "validate_groth",
    "OpClass",
    "op_from_bivariant",
    "op_group",
    "CoopClass",
    "coop_from_bivariant",
    "coop_group",
    "cup_class",
    "power_family",
    "transfer_subgroup",
]
