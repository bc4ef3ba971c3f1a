"""Operational bivariant theory built from a covariant functor.

A class of degree i over f: X->Y is a family of homomorphisms
c_g: h_m(Y') -> h_{m-i}(X'_g), one per morphism g: Y'->Y and grade m,
where X'_g is the chosen pullback apex, compatible with pushforward along
every confined k: Y''->Y'.  Classes, groups, operations and the comparison
map are famsolve's: op_group, op_unit, op_hom, op_image_transfer,
verify_op_axioms, verify_op_transform_identities and
verify_point_isomorphism bind its variance-keyed functions at "cov".
"""

from __future__ import annotations

from functools import partial

from . import famsolve
from .famsolve import family_product, family_pullback, family_pushforward, family_transport

OpClass = famsolve.FamilyClass
op_from_bivariant = famsolve.op_from_bivariant

op_group = partial(famsolve.variance_group, "cov")
op_unit = partial(famsolve.variance_unit, "cov")
op_hom = partial(famsolve.comparison_map, "cov")
op_image_transfer = partial(famsolve.image_transfer, "cov")
verify_op_axioms = partial(famsolve.verify_family_axioms, "cov")
verify_op_transform_identities = partial(famsolve.verify_comparison_identities, "cov")
verify_point_isomorphism = partial(famsolve.verify_comparison_isomorphism, "cov")


def op_product(c: OpClass, d: OpClass) -> OpClass:
    """(c.d)_h := c_{h'} o d_h over the composite base."""
    return family_product(c, d)


def op_pushforward(c: OpClass, f: str, rest: str) -> OpClass:
    """(f_* c)_h := f'_* o c_h for confined f with c over rest o f."""
    return family_pushforward(c, f, rest)


def op_pullback(c: OpClass, g: str) -> OpClass:
    """(g^* c)_k := c_{g o k}, transported to the pasted apex."""
    return family_pullback(c, g)


def op_transport(cls: OpClass, new_base: str, iso: str) -> OpClass:
    """Move a class along an isomorphism of base morphisms (see family_transport)."""
    return family_transport(cls, new_base, iso)
