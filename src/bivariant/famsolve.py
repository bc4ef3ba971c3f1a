"""Families of homomorphisms over a base morphism: the engine shared by the
operational and the co-operational theory.

A class of degree i over f: X -> Y has one component c_(g, m) per morphism
g: Y' -> Y and grade m; X'_g is the apex of the chosen pullback of f along g.
Classes, groups and operations are one code for both theories; the
functor's variance is the only input that decides where they differ, in
GradedFunctor.acts_along (the morphisms that pushforwards and compatibility
squares run along: every one for contra, confined ones for cov) and in two
helpers:

  - _oriented: the side of a component the apex lies on.  For a covariant
    functor h the component is c_g: h_m(Y') -> h_{m-i}(X'_g), so the apex
    is its target; for a contravariant F it is c_g: F^m(X'_g) -> F^{m+i}(Y'),
    so the apex is its source.  A map of the functor on the apex side
    composes after the component (cov) or before it (contra).
  - _shift: the sign of the grade shift, -degree (cov) or +degree (contra).

Groups of classes are kernels of an integer constraint map: the unknown is
the family (c_key) with c_key in Hom(src, tgt), and each constraint is a
signed sum of terms post o c_key o pre that must vanish.  FamilySolution
assembles the constraint map between the direct sums of the Hom groups, with
an element <-> family codec, and solves its kernel when the kernel is first
read; its assembler, constraint_map, also yields the transfer's link map on
coop(F) and coop(G).
The assembler writes each term's block in place: its columns come from
exactalg.induced_columns, the closed form that induced_hom is built on, and
are added with their sign straight into the rows, so the only hom it builds,
and checks, is the constraint map itself.

A class stores its components in a dict, and an absent key reads as the
zero hom.  Each stored component is checked once, when its class is built:
its key must be (g into the base's target, grade inside the window), and
its hom must run between the component's ends, or ShapeMismatchError is
raised; nothing writes the components afterwards.  Both the keys and the
ends are read from the functor's table of ends (GradedFunctor._ends),
filled once per base and feasible degree.  Two classes over one functor
with equal values (see FamilyClass.value) are equal with no component
compared.  The results of the operations (product, pushforward, pullback,
transport) store only their nonzero components; decoded generators store
every component of the solution, zero ones included, and each zero one is
its Hom codec's one zero hom (exactalg.HomGroup.zero_hom), so decoding
builds and checks at most one zero hom per codec and encoding a zero
component takes no product.

Each operation, and the compatibility check of a class, runs through a plan
kept in the functor's table of plans (GradedFunctor._plans), built on first
use and keyed by the operation, its operands' bases and degrees and its
morphism arguments.  A plan lists, per output key and grade, the factors of
the composite from the source side on: functor maps, resolved once, and
slots naming an operand's component.  Building it checks that adjacent
factors meet in one group, drops identity maps and stores no path for a
composite that a zero map kills; running it only fetches the operands'
components and multiplies.

Each public function of the two theories is written here once, with the
variance as its first argument (variance_group, variance_unit,
verify_family_axioms, comparison_map, image_transfer,
verify_comparison_identities, verify_comparison_isomorphism); operational
and cooperational bind them at "cov" and "contra" to their op_* and coop_*
names.  Only the two comparison formulas, op_from_bivariant and
coop_from_bivariant, are written apart: they differ in substance.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product

from .bivcore import (
    DegreeWindowError,
    GrothTransf,
    InvalidTransformationError,
    TabulatedBivTheory,
    _everywhere,
    part_base,
    verify_axioms,
    verify_transformation,
)
from .exactalg import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    HomGroup,
    IntMatrix,
    MembershipError,
    ShapeMismatchError,
    Subgroup,
    WellDefinednessError,
    direct_sum,
    hom_group,
    hom_preimage,
    image,
    induced_columns,
    kernel,
    kernel_image,
)
from .record import Frozen
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, NonConfinedError, Site


class SummandSpec(Frozen):
    _fields = ("key", "src", "tgt")


class TermSpec(Frozen):
    _fields = ("sign", "summand_key", "pre", "post")
    _defaults = (None, None)


class ConstraintSpec(Frozen):
    _fields = ("key", "src", "tgt", "terms")


class FamilySolution:
    """The assembled constraint map on the unknowns sum U, with decode/encode;
    its kernel, the group of classes, is solved when it is first read, so a
    caller that works in U alone (image_transfer) solves none."""

    def __init__(self, summands, constraints):
        self.summands = [s for s in summands if not hom_group(s.src, s.tgt).group.is_trivial]
        # each codec runs between its summand's own groups, not the equal
        # copies that hom_group's cache may hold, so that decoded components
        # share the functor's group objects
        self.hom_groups = [_between(hom_group(s.src, s.tgt), s.src, s.tgt) for s in self.summands]
        self._pos = {s.key: idx for idx, s in enumerate(self.summands)}
        self.unknowns = direct_sum([hg.group for hg in self.hom_groups])
        self.constraints, self.targets, self.constraint_sum, self.constraint_hom = self.constraint_map(constraints)

    @cached_property
    def kernel(self) -> Subgroup:
        return kernel(self.constraint_hom)

    def constraint_map(self, constraints):
        """(kept, codecs, sum, hom): the constraints in a nontrivial Hom group,
        their terms on trivial summands dropped, the codecs and direct sum of
        those Hom groups, and u |-> (sum of sign * post o u_key o pre) on it.

        Each term is one signed block of the matrix, at the offsets of its
        constraint (rows) and its unknown (columns); its columns, from
        induced_columns, are added straight into the rows.  The Hom groups
        are looked up once per (src, tgt) pair, and each pre or post map is
        conjugated once, in tables that die with the call."""
        kept, targets, homs = [], [], {}
        for c in constraints:
            pair = id(c.src), id(c.tgt)
            hg = homs.get(pair)
            if hg is None:
                hg = homs[pair] = hom_group(c.src, c.tgt)
            if not hg.group.is_trivial:
                kept.append(ConstraintSpec(c.key, c.src, c.tgt, tuple(t for t in c.terms if t.summand_key in self._pos)))
                targets.append(hg)
        total = direct_sum([hg.group for hg in targets])
        ncols = self.unknowns.group.ngens
        rows = [[0] * ncols for _ in range(total.group.ngens)]
        canonical = {}
        for c, target, top in zip(kept, targets, total.offsets):
            for t in c.terms:
                si = self._pos[t.summand_key]
                left = self.unknowns.offsets[si]
                sign = 1 if t.sign > 0 else -1
                cols = induced_columns(self.hom_groups[si], target, t.pre, t.post, canonical)
                for j, col in enumerate(cols, left):
                    for i, a in enumerate(col, top):
                        if a:
                            rows[i][j] += sign * a
        mat = IntMatrix(len(rows), ncols, tuple(tuple(r) for r in rows))
        return kept, targets, total, GroupHom(self.unknowns.group, total.group, mat)

    @property
    def group(self) -> FgAbGroup:
        return self.kernel.group

    def decode_unknowns(self, u: GroupElement) -> dict:
        """Family components from an element of the unknown direct sum, one
        per summand: a summand whose slice of u is all zero gets its codec's
        zero hom as it is, and any other slice is reduced in its Hom group
        and decoded."""
        if u.group != self.unknowns.group:
            raise ShapeMismatchError("element not in the unknown sum")
        out = {}
        for s, hg, off in zip(self.summands, self.hom_groups, self.unknowns.offsets):
            part = u.coords[off : off + hg.group.ngens]
            out[s.key] = hg.decode(hg.group.element(part)) if any(part) else hg.zero_hom
        return out

    def decode(self, x: GroupElement) -> dict:
        if x.group != self.group:
            raise MembershipError("element is not in the solution group")
        return self.decode_unknowns(self.kernel.inclusion(x))

    def encode_unknowns(self, components) -> GroupElement:
        """Element of the unknown sum with the given components (zero where missing)."""
        return _sum_element(self.unknowns.group, self.summands, self.hom_groups, components)

    def encode(self, components) -> GroupElement:
        """Element of the kernel matching the family, or MembershipError."""
        u = self.encode_unknowns(components)
        x = hom_preimage(self.kernel.inclusion, u)
        if x is None:
            raise MembershipError("family does not satisfy the compatibility constraints")
        return x

    def constraint_rhs(self, rhs) -> GroupElement:
        """Element of the constraint sum built from homs indexed by constraint key."""
        return _sum_element(self.constraint_sum.group, self.constraints, self.targets, rhs)

    def solve_affine(self, rhs):
        """One u in the unknown sum with constraint_hom(u) == rhs, or None."""
        return hom_preimage(self.constraint_hom, self.constraint_rhs(rhs))


def _between(hg: HomGroup, src: FgAbGroup, tgt: FgAbGroup) -> HomGroup:
    """The codec hg of Hom(src, tgt), on these very group objects."""
    if hg.src is src and hg.tgt is tgt:
        return hg
    return HomGroup(src, tgt, hg.group, hg.summands)


def _sum_element(group: FgAbGroup, specs, hom_groups, homs) -> GroupElement:
    """The element of a direct sum of Hom groups whose part at spec.key encodes
    homs[spec.key], zero where homs has no entry or a zero-matrix hom; no
    part is reduced on its own, the sum is reduced once, as a whole."""
    coords = []
    for spec, hg in zip(specs, hom_groups):
        h = homs.get(spec.key)
        coords.extend((0,) * hg.group.ngens if h is None else hg.encode_coords(h))
    return group.element(coords)


# ---------------------------------------------------------------------------
# variance


THEORY = {"cov": "operational", "contra": "co-operational"}
PART = {"cov": "covariant", "contra": "contravariant"}
COMPARISON = {"cov": "op", "contra": "coop"}  # the comparison map's name


def require_variance(functor: GradedFunctor, variance: str) -> GradedFunctor:
    """The functor itself, or ValueError when its variance is not the one asked for."""
    if functor.variance != variance:
        raise ValueError(f"{THEORY[variance]} classes need a {PART[variance]} functor")
    return functor


def _cov(functor: GradedFunctor) -> bool:
    return functor.variance == "cov"


def _oriented(functor: GradedFunctor, leg, apex):
    """(source side, target side) of a component from its leg and apex ends."""
    return (leg, apex) if _cov(functor) else (apex, leg)


def _shift(functor: GradedFunctor, degree: int) -> int:
    """Grade change from a component's source to its target."""
    return -degree if _cov(functor) else degree


def _grades(functor: GradedFunctor, m: int, degree: int):
    """(leg grade, apex grade) of the component whose source is at grade m."""
    return _oriented(functor, m, m + _shift(functor, degree))


def _ends(functor: GradedFunctor, leg_obj: str, apex_obj: str, m: int, degree: int):
    """(source, target) groups of the component at grade m between the two objects."""
    leg, apex = _grades(functor, m, degree)
    return _oriented(functor, functor.group(leg_obj, leg), functor.group(apex_obj, apex))


def _component_table(functor: GradedFunctor, base: str, degree: int) -> dict:
    """{(g, m): (source, target)} over every key of a class over base of the
    degree: g into the base's target, m in the window.  Kept in the
    functor's table of ends (GradedFunctor._ends) on first use, only for a
    feasible degree; for any other degree it is computed and not kept."""
    table = functor._ends.get((base, degree))
    if table is None:
        site = functor.site
        table = {}
        for g in site.morphisms_into(site.tgt(base)):
            apex = site.chosen_pullback(base, g).apex
            for m in functor.grades():
                table[(g, m)] = _ends(functor, site.src(g), apex, m, degree)
        if degree in feasible_degrees(functor):
            functor._ends[(base, degree)] = table
    return table


def _is_zero(hom: GroupHom) -> bool:
    """Whether hom is the zero hom: each column reduces to zero in its target."""
    reduce = hom.tgt.reduce
    return not any(any(reduce(col)) for col in zip(*hom.mat.entries))


# ---------------------------------------------------------------------------
# plans of composites


def _plan_path(functor: GradedFunctor, m: int, steps, operands):
    """The plan of one composite, steps listed from the leg side of a
    component to its apex side.

    A step is a morphism, acting through the functor, or an (operand index,
    key morphism) pair naming one component of operands[index].  The maps
    apply from the source side on; m is the grade there, and each component
    shifts it by its operand's degree.

    Returns (factors, ends).  factors lists, source side first, the functor
    maps, resolved here, and one slot (operand index, component key, whether
    the component's source is its target) per component; it is None when a
    zero map kills the composite.  Every adjacent pair must meet in one
    group, as in GroupHom composition, a component taken between the ends
    that its class checks when it is built; that is checked here, once.  An
    identity map is dropped, unless nothing else is left to multiply.  ends
    are the composite's source and target.
    """
    source_first, _ = _oriented(functor, steps, steps[::-1])
    factors = []
    dead = False
    identity = src = tgt = None
    for step in source_first:
        if isinstance(step, str):
            hom = functor.map(step, m)
            ends = hom.src, hom.tgt
            if not any(map(any, hom.mat.entries)):
                dead = True
            elif ends[0] == ends[1] and hom.mat.is_identity():
                identity = hom
            else:
                factors.append(hom)
        else:
            index, g = step
            cls = operands[index]
            ends = cls._component_ends(g, m)
            factors.append((index, (g, m), ends[0] == ends[1]))
            m += _shift(functor, cls.degree)
        if tgt is None:
            src = ends[0]
        elif ends[0] != tgt:
            raise ShapeMismatchError("middle groups disagree in composition")
        tgt = ends[1]
    if dead:
        return None, (src, tgt)
    if not factors and identity is not None:
        factors = [identity]  # every factor is the identity of one group
    return tuple(factors), (src, tgt)


def _run(factors, operands) -> GroupHom | None:
    """The composite that a plan path's factors name over the operands, or
    None when its matrix is zero.

    An absent or all-zero component makes the composite zero, and then
    nothing is multiplied; a component with an identity matrix on one group
    is skipped.
    """
    homs = []
    skipped = None
    for factor in factors:
        if type(factor) is not tuple:
            homs.append(factor)
            continue
        index, key, endo = factor
        hom = operands[index].components.get(key)
        if hom is None or not any(map(any, hom.mat.entries)):
            return None
        if endo and hom.mat.is_identity():
            skipped = hom
        else:
            homs.append(hom)
    if not homs:
        return skipped  # every component is the identity of one group
    if len(homs) == 1:
        return homs[0]
    mat = homs[0].mat
    for hom in homs[1:]:
        mat = hom.mat @ mat
    if not any(map(any, mat.entries)):
        return None
    return GroupHom(homs[0].src, homs[-1].tgt, mat)


def _plan(functor: GradedFunctor, key, build):
    """The plan under key in the functor's table, build() on first use; a
    build that raises stores nothing, so it raises again on the next call."""
    plan = functor._plans.get(key)
    if plan is None:
        plan = functor._plans[key] = build()
    return plan


def _planned(key, steps, *operands) -> "FamilyClass":
    """The class that an operation computes from its operands.

    steps() gives the result's base and degree and, per output key, the
    steps of its composite, with operands named by index; it runs only when
    the functor's table has no plan under key yet.  Only nonzero components
    are stored.
    """
    functor = operands[0].functor

    def build():
        base, degree, steps_by_key = steps()
        paths = []
        for out, path in steps_by_key.items():
            for m in functor.grades():
                factors, _ = _plan_path(functor, m, path, operands)
                if factors is not None:
                    paths.append(((out, m), factors))
        return base, degree, tuple(paths)

    base, degree, paths = _plan(functor, key, build)
    comps = {}
    for out, factors in paths:
        hom = _run(factors, operands)
        if hom is not None:
            comps[out] = hom
    return FamilyClass(functor, base, degree, comps)


def _squares(functor: GradedFunctor, base: str):
    """(g, k, w, g o k) per compatibility square over the base morphism.

    k runs over the non-identity morphisms into src(g), confined ones only
    for a covariant functor; w compares the apex over g o k with the apex
    over g through the pasted square.
    """
    site = functor.site
    for g in site.morphisms_into(site.tgt(base)):
        for k in site.morphisms_into(site.src(g)):
            if site.is_identity(k) or not functor.acts_along(k):
                continue
            paste = site.cospan_paste(base, g, k)
            yield g, k, site.compose(paste.second.top, paste.to_pasted), site.compose(g, k)


def feasible_degrees(functor: GradedFunctor):
    lo, hi = functor.window
    span = hi - lo
    return range(-span, span + 1)


def check_degree(functor: GradedFunctor, degree: int):
    if degree not in feasible_degrees(functor):
        raise DegreeWindowError(f"degree {degree} exceeds the grade window span")


# ---------------------------------------------------------------------------
# classes and their groups

# per variance: kind and message of a failed compatibility square, and the
# witness name of its leg
_COMPATIBILITY = {
    "cov": ("pushforward-compatibility", "w_* o c_(g o k) != c_g o k_*", "k"),
    "contra": ("pullback-compatibility", "c_(g o h) o w^* != h^* o c_g", "h"),
}


class FamilyClass:
    """A single class: functor, base morphism, degree, components.

    Building one checks each stored component once: its key is (g into the
    base's target, grade inside the window), and its hom runs between the
    component's ends; ShapeMismatchError otherwise."""

    def __init__(self, functor: GradedFunctor, base: str, degree: int, components: dict | None = None):
        self.functor = functor
        self.base = base
        self.degree = degree
        self.components = {} if components is None else components
        ends = _component_table(functor, base, degree)
        for key, hom in self.components.items():
            found = ends.get(key)
            if found is None:
                raise ShapeMismatchError(f"a class over {self.base} has no component at {key}")
            src, tgt = found
            if (hom.src is not src and hom.src != src) or (hom.tgt is not tgt and hom.tgt != tgt):
                raise ShapeMismatchError(f"the component at {key} does not run between its ends")

    @property
    def site(self) -> Site:
        return self.functor.site

    @cached_property
    def value(self) -> tuple:
        """(base, degree, the set of (key, matrix entries) of the components
        whose matrix is nonzero): over one functor, all that an operation
        reads from the class, since an absent component reads as zero and the
        key, base and degree fix each component's ends.  Kept once computed:
        nothing writes a class after it is built."""
        comps = self.components.items()
        nonzero = frozenset((key, hom.mat.entries) for key, hom in comps if any(map(any, hom.mat.entries)))
        return self.base, self.degree, nonzero

    def _component_ends(self, g: str, m: int):
        """(source, target) groups of the component at (g, m), read from the
        functor's table of ends; computed for a grade outside the window."""
        ends = _component_table(self.functor, self.base, self.degree).get((g, m))
        if ends is None:
            site = self.site
            ends = _ends(self.functor, site.src(g), site.chosen_pullback(self.base, g).apex, m, self.degree)
        return ends

    def component(self, g: str, m: int) -> GroupHom:
        """The stored component, or the zero hom where none is stored."""
        stored = self.components.get((g, m))
        if stored is not None:
            return stored
        return GroupHom.zero(*self._component_ends(g, m))

    def _keys(self):
        site = self.site
        return product(site.morphisms_into(site.tgt(self.base)), self.functor.grades())

    def _same_context(self, other: "FamilyClass") -> bool:
        """Whether other lies over the same base and degree, with its
        components in the same Hom groups: over the same functor, or over an
        equal copy of it, with the same site, variance and window and the
        same ends at every component."""
        if self.base != other.base or self.degree != other.degree:
            return False
        mine, theirs = self.functor, other.functor
        if mine is theirs:
            return True
        return (
            self.site is other.site
            and mine.variance == theirs.variance
            and mine.window == theirs.window
            and all(self._component_ends(*key) == other._component_ends(*key) for key in self._keys())
        )

    def _compatible(self, other: "FamilyClass"):
        if not self._same_context(other):
            raise ValueError("classes live over different data")

    def __eq__(self, other):
        """Equal components at every key; a component stored on one side only
        must vanish.

        Over one functor, equal values settle it at once: the value holds the
        base, the degree and the entries of every nonzero component, and an
        absent component reads as zero.  Otherwise the components are
        compared one by one, modulo the target relations."""
        if not isinstance(other, FamilyClass):
            return NotImplemented
        if self.functor is other.functor and self.value == other.value:
            return True
        if not self._same_context(other):
            return False
        mine, theirs = self.components, other.components
        for key in mine.keys() | theirs.keys():
            a, b = mine.get(key), theirs.get(key)
            if a is None or b is None:
                if not _is_zero(b if a is None else a):
                    return False
            elif a != b:
                return False
        return True

    def __add__(self, other: "FamilyClass") -> "FamilyClass":
        """The sum over the keys stored on either side."""
        self._compatible(other)
        comps = dict(self.components)
        for key, b in other.components.items():
            a = comps.get(key)
            comps[key] = b if a is None else a + b
        return FamilyClass(self.functor, self.base, self.degree, comps)

    def __neg__(self) -> "FamilyClass":
        comps = {key: -hom for key, hom in self.components.items()}
        return FamilyClass(self.functor, self.base, self.degree, comps)

    def __sub__(self, other: "FamilyClass") -> "FamilyClass":
        return self + (-other)

    def _compatibility_plan(self):
        """Per compatibility square and grade, (g, k, m, lhs factors, rhs
        factors): the plan paths of its two sides, checked to run between
        the square's ends, None for a side that a zero map kills; a square
        with both sides killed is left out."""
        functor, site = self.functor, self.site
        paths = []
        for g, k, w, gk in _squares(functor, self.base):
            apex = site.chosen_pullback(self.base, g).apex
            for m in functor.grades():
                ends = _ends(functor, site.src(k), apex, m, self.degree)
                lhs, lhs_ends = _plan_path(functor, m, [(0, gk), w], (self,))
                rhs, rhs_ends = _plan_path(functor, m, [k, (0, g)], (self,))
                if lhs_ends != ends or rhs_ends != ends:
                    raise ShapeMismatchError("homs with different src/tgt")
                if lhs is not None or rhs is not None:
                    paths.append((g, k, m, lhs, rhs))
        return tuple(paths)

    def compatibility_report(self) -> ValidationReport:
        rb = ReportBuilder()
        kind, message, leg = _COMPATIBILITY[self.functor.variance]
        plan = _plan(self.functor, ("compatibility", self.base, self.degree), self._compatibility_plan)
        operands = (self,)
        for g, k, m, lhs_factors, rhs_factors in plan:
            lhs = None if lhs_factors is None else _run(lhs_factors, operands)
            rhs = None if rhs_factors is None else _run(rhs_factors, operands)
            if lhs is None and rhs is None:
                continue
            # a zero side is the zero hom between the ends of the square
            if lhs is None or rhs is None:
                same = _is_zero(rhs if lhs is None else lhs)
            else:
                same = lhs.equals(rhs)
            if not same:
                rb.add(kind, message, g=g, grade=m, **{leg: k})
        return rb.done()


class FamilyGroup(Frozen):
    """The group of classes for (functor, base, degree)."""

    _fields = ("functor", "base", "degree", "solution")

    @property
    def group(self):
        return self.solution.group

    def decode(self, x: GroupElement) -> FamilyClass:
        return FamilyClass(self.functor, self.base, self.degree, self.solution.decode(x))

    def encode(self, cls: FamilyClass) -> GroupElement:
        if not isinstance(cls, FamilyClass):
            raise TypeError("only additive classes encode; map families are not classes")
        FamilyClass(self.functor, self.base, self.degree)._compatible(cls)
        return self.solution.encode(cls.components)

    def decoded_gens(self) -> list[FamilyClass]:
        return [self.decode(e) for e in self.group.gens()]


def family_group(functor: GradedFunctor, base: str, degree: int) -> FamilyGroup:
    """Solve for every compatible family over the base morphism."""
    site = functor.site
    summands = [SummandSpec(key, *ends) for key, ends in _component_table(functor, base, degree).items()]
    constraints = []
    for g, k, w, gk in _squares(functor, base):
        apex = site.chosen_pullback(base, g).apex
        for m in functor.grades():
            # c_(g o k) with w on its apex side, minus c_g with k on its leg side
            src, tgt = _ends(functor, site.src(k), apex, m, degree)
            leg, at_apex = _grades(functor, m, degree)
            terms = (
                TermSpec(1, (gk, m), *_oriented(functor, None, functor.map(w, at_apex))),
                TermSpec(-1, (g, m), *_oriented(functor, functor.map(k, leg), None)),
            )
            constraints.append(ConstraintSpec((g, k, m), src, tgt, terms))
    return FamilyGroup(functor, base, degree, FamilySolution(summands, constraints))


# ---------------------------------------------------------------------------
# the unit and the three operations


def family_unit(functor: GradedFunctor, obj: str) -> FamilyClass:
    """The degree-zero identity family over id_X."""
    site = functor.site
    comps = {}
    for g in site.morphisms_into(obj):
        for m in functor.grades():
            comps[(g, m)] = GroupHom.identity(functor.group(site.src(g), m))
    return FamilyClass(functor, site.identity(obj), 0, comps)


def family_product(c: FamilyClass, d: FamilyClass) -> FamilyClass:
    """(c.d)_h: d_h, then c over the pulled-back base, then the paste comparison."""
    if c.functor is not d.functor:
        raise ValueError("classes over different functors")

    def steps():
        functor, site = c.functor, c.site
        degree = c.degree + d.degree
        check_degree(functor, degree)
        by_key = {}
        for h in site.morphisms_into(site.tgt(d.base)):
            paste = site.tower_paste(c.base, d.base, h)
            by_key[h] = [(1, h), (0, paste.first.top), paste.to_direct]
        return site.compose(d.base, c.base), degree, by_key

    return _planned(("product", c.base, c.degree, d.base, d.degree), steps, c, d)


def family_pushforward(c: FamilyClass, f: str, rest: str) -> FamilyClass:
    """(f_* c)_h: c_h, then the paste comparison and the base change f' of f.

    Needs a confined f for a covariant functor only.
    """

    def steps():
        functor, site = c.functor, c.site
        if not functor.acts_along(f):
            raise NonConfinedError(f"pushforward along non-confined morphism {f}")
        if site.compose(rest, f) != c.base:
            raise ValueError("base morphism does not factor as rest o f")
        by_key = {}
        for h in site.morphisms_into(site.tgt(rest)):
            paste = site.tower_paste(f, rest, h)
            by_key[h] = [(0, h), paste.to_pasted, paste.second.left]
        return rest, c.degree, by_key

    return _planned(("pushforward", c.base, c.degree, f, rest), steps, c)


def family_pullback(c: FamilyClass, g: str) -> FamilyClass:
    """(g^* c)_k := c_(g o k), transported to the pasted apex."""

    def steps():
        site = c.site
        if site.tgt(g) != site.tgt(c.base):
            raise ValueError(f"{g} is not a morphism into the base target")
        by_key = {
            k: [(0, site.compose(g, k)), site.cospan_paste(c.base, g, k).to_pasted]
            for k in site.morphisms_into(site.src(g))
        }
        return site.chosen_pullback(c.base, g).left, c.degree, by_key

    return _planned(("pullback", c.base, c.degree, g), steps, c)


def family_transport(cls: FamilyClass, new_base: str, iso: str) -> FamilyClass:
    """Move a class along an isomorphism of base morphisms.

    iso: src(new_base) -> src(cls.base) with cls.base o iso == new_base;
    every component is composed with the canonical apex comparison on its
    apex side, which must be confined for a covariant functor to act.
    """

    def steps():
        site = cls.site
        if site.compose(cls.base, iso) != new_base:
            raise ValueError("iso does not relate the two base morphisms")
        iso_inv = site.inverse_of(iso)
        by_key = {}
        for k in site.morphisms_into(site.tgt(new_base)):
            sq_new = site.chosen_pullback(new_base, k)
            sq_old = site.chosen_pullback(cls.base, k)
            apex_map = site._mediator(
                sq_old.apex,
                [
                    (sq_new.top, site.compose(iso_inv, sq_old.top), sq_new.apex),
                    (sq_new.left, sq_old.left, sq_new.apex),
                ],
            )
            by_key[k] = [(0, k), apex_map]
        return new_base, cls.degree, by_key

    return _planned(("transport", cls.base, cls.degree, new_base, iso), steps, cls)


class FamilyTheory:
    """A computed op or coop theory in the protocol of bivcore.verify_axioms."""

    def __init__(self, functor: GradedFunctor):
        self.functor = functor
        self.site = functor.site
        self._degrees = list(feasible_degrees(functor))

    def degrees(self):
        return self._degrees

    def gens(self, base: str, i: int) -> list[FamilyClass]:
        return family_group(self.functor, base, i).decoded_gens()

    def allows(self, *degrees) -> bool:
        return all(i in self._degrees for i in degrees)

    def can_push(self, f: str) -> bool:
        return self.functor.acts_along(f)

    def product(self, f, g, i, j, a, b):
        return family_product(a, b)

    def pushforward(self, f, g, i, a):
        return family_pushforward(a, f, g)

    def pullback(self, f, g, i, a):
        return family_pullback(a, g)

    def unit(self, obj: str) -> FamilyClass:
        return family_unit(self.functor, obj)

    def nonstrict(self, rb, phrase, bases, new_base, iso, **where):
        """Classes compare across a non-strict paste by transport along it."""
        return lambda cls: family_transport(cls, new_base, iso)

    def witness(self, **elements) -> dict:
        return {}

    def value(self, cls: FamilyClass) -> tuple:
        return cls.value


# ---------------------------------------------------------------------------
# groups, units and axiom checks of the theory of a variance


def variance_group(variance: str, functor: GradedFunctor, base: str, degree: int) -> FamilyGroup:
    """The group of classes over the base morphism, for a functor of the variance."""
    return family_group(require_variance(functor, variance), base, degree)


def variance_unit(variance: str, functor: GradedFunctor, obj: str) -> FamilyClass:
    """The unit class over id_X, for a functor of the variance."""
    return family_unit(require_variance(functor, variance), obj)


def verify_family_axioms(variance: str, functor: GradedFunctor) -> ValidationReport:
    """Re-prove the seven axioms plus units on the computed groups of the functor."""
    return verify_axioms(FamilyTheory(require_variance(functor, variance)))


# ---------------------------------------------------------------------------
# comparison maps from a tabulated theory, and transfers between their images


def op_from_bivariant(b: TabulatedBivTheory, base: str, degree: int, alpha: GroupElement) -> FamilyClass:
    """The family g |-> (g^* alpha) . (-) acting on the covariant part of b."""
    site = b.site
    if alpha.group != b.group(base, degree):
        raise ValueError("element does not live in the stated bivariant group")
    h = b.covariant_part
    comps = {}
    for g in site.morphisms_into(site.tgt(base)):
        sq = site.chosen_pullback(base, g)
        galpha = b.pullback(base, g, degree, alpha)
        a_src = site.to_point(site.src(g))
        for m in h.grades():
            src = h.group(site.src(g), m)
            tgt = h.group(sq.apex, m - degree)
            cols = [
                b.product(sq.left, a_src, degree, -m, galpha, e).coords for e in src.gens()
            ]
            comps[(g, m)] = GroupHom(src, tgt, IntMatrix.from_columns(cols, tgt.ngens))
    return FamilyClass(h, base, degree, comps)


def coop_from_bivariant(b: TabulatedBivTheory, base: str, degree: int, alpha: GroupElement) -> FamilyClass:
    """The family g |-> f'_*((-) . g^* alpha) for confined base morphisms."""
    site = b.site
    if not site.is_confined(base):
        raise NonConfinedError("comparison classes need a confined base morphism")
    if alpha.group != b.group(base, degree):
        raise ValueError("element does not live in the stated bivariant group")
    F = b.contravariant_part
    comps = {}
    for g in site.morphisms_into(site.tgt(base)):
        sq = site.chosen_pullback(base, g)
        if not site.is_confined(sq.left):
            raise NonConfinedError("base change of the base morphism is not confined")
        galpha = b.pullback(base, g, degree, alpha)
        id_apex = site.identity(sq.apex)
        id_src = site.identity(site.src(g))
        for m in F.grades():
            src = F.group(sq.apex, m)
            tgt = F.group(site.src(g), m + degree)
            cols = []
            for e in src.gens():
                prod = b.product(id_apex, sq.left, m, degree, e, galpha)
                cols.append(b.pushforward(sq.left, id_src, m + degree, prod).coords)
            comps[(g, m)] = GroupHom(src, tgt, IntMatrix.from_columns(cols, tgt.ngens))
    return FamilyClass(F, base, degree, comps)


def _comparison(variance: str, b: TabulatedBivTheory):
    """(b's part of the variance, the comparison formula on it); the formula
    is read by its module-level name on each call."""
    formula = op_from_bivariant if variance == "cov" else coop_from_bivariant
    return getattr(b, f"{PART[variance]}_part"), formula


class NotAClassError(MembershipError):
    """The comparison family of a generator fails the compatibility constraints."""

    def __init__(self, generator: GroupElement):
        self.generator = generator
        super().__init__(f"comparison family of generator {generator.coords} is not a class")


def _comparison_hom(b: TabulatedBivTheory, base: str, degree: int, result: FamilyGroup, classify) -> GroupHom:
    """The map B(f)^i -> result.group, alpha |-> classify(b, base, degree, alpha).

    Raises NotAClassError naming the first generator whose family is not a
    class, which happens only when b breaks an axiom.
    """
    src = b.group(base, degree)
    cols = []
    for a in src.gens():
        cls = classify(b, base, degree, a)
        try:
            cols.append(result.encode(cls).coords)
        except MembershipError as exc:
            raise NotAClassError(a) from exc
    return GroupHom(src, result.group, IntMatrix.from_columns(cols, result.group.ngens))


def comparison_map(variance: str, b: TabulatedBivTheory, base: str, degree: int) -> GroupHom:
    """The canonical map B(f)^i -> the group of classes of b's part of the
    variance, alpha |-> op(alpha) (cov) or coop(alpha) (contra)."""
    part, formula = _comparison(variance, b)
    return _comparison_hom(b, base, degree, family_group(part, base, degree), formula)


def verify_comparison_identities(variance: str, b: TabulatedBivTheory) -> ValidationReport:
    """phi(a.b) = phi(a).phi(b), phi(f_*a) = f_*phi(a) and phi(g^*a) = g^*phi(a)
    on generators for phi = op (cov) or coop (contra), over the bases where phi
    is defined: every one for op, the confined ones for coop."""
    name = COMPARISON[variance]
    part, formula = _comparison(variance, b)
    defined = _everywhere if variance == "cov" else b.site.is_confined
    return verify_transformation(b, FamilyTheory(part), partial(formula, b), name, name, defined)


class NotSurjectiveError(InvalidTransformationError):
    def __init__(self, variance, witness):
        self.witness = witness
        super().__init__(f"{PART[variance]} part not surjective at {witness}")


class ImageTransfer(Frozen):
    """Map cls(alpha) |-> cls(gamma(alpha)) between images of comparison maps.

    source and target are subgroups of the unknowns sum U of their theory's
    part (FamilySolution.unknowns), not of its group of classes: the same
    relation lattices, possibly in another basis."""

    _fields = ("base", "degree", "source", "target", "mapping")  # mapping: source.group -> target.group


def _comparison_image(variance: str, b: TabulatedBivTheory, base: str, degree: int) -> Subgroup:
    """The image of B(f)^i -> U, alpha |-> the comparison family of alpha as a
    vector of the unknowns sum U of b's part; no kernel is solved.

    A family is a class exactly when the constraint map sends its vector to
    zero; NotAClassError names the first generator whose family is not."""
    part, formula = _comparison(variance, b)
    solution = family_group(part, base, degree).solution
    src, unknowns = b.group(base, degree), solution.unknowns.group
    cols = []
    for a in src.gens():
        u = solution.encode_unknowns(formula(b, base, degree, a).components)
        if not solution.constraint_hom(u).is_zero:
            raise NotAClassError(a)
        cols.append(u.coords)
    return image(GroupHom(src, unknowns, IntMatrix.from_columns(cols, unknowns.ngens)))


def image_transfer(variance: str, t: GrothTransf, base: str, degree: int, mode: str) -> ImageTransfer:
    """Transfer between the images of the variance's comparison_map.

    mode must be 'full', the one mode: the transfer maps into the target
    theory and needs gamma onto the part of the given variance, which
    t.surjectivity_witness checks once per variance and keeps, as t.report
    is kept, so a run of transfers along one t pays for it once.  Both images
    are subgroups of the unknowns sum U of their theory's part, presented on
    the generators of their theory's group B(f)^i: the group of classes sits
    inside U, so the relations of an image are {alpha : the comparison family
    of alpha is zero in U}, and no group of classes is solved.  The mapping's
    own check is the well-definedness certificate: building it checks that
    gamma sends each relation of the source image to one of the target's.
    """
    if mode != "full":
        raise ValueError("mode must be 'full'")
    if not t.report.ok:
        raise InvalidTransformationError("; ".join(t.report.lines()))
    witness = t.surjectivity_witness(variance)
    if witness is not None:
        raise NotSurjectiveError(variance, witness)
    to_target = t.component(base, degree)
    source_sub = _comparison_image(variance, t.src, base, degree)
    target_sub = _comparison_image(variance, t.tgt, base, degree)
    cols = [to_target(a).coords for a in t.src.group(base, degree).gens()]
    try:
        mapping = GroupHom(
            source_sub.group, target_sub.group, IntMatrix.from_columns(cols, target_sub.group.ngens)
        )
    except WellDefinednessError as exc:
        name = COMPARISON[variance]
        raise InvalidTransformationError(
            f"transfer is not well-defined: {name}(alpha)={name}(beta) but images differ"
        ) from exc
    return ImageTransfer(base, degree, source_sub, target_sub, mapping)


def recover(b: TabulatedBivTheory, cls: FamilyClass) -> GroupElement:
    """c_(id_Y)(1_Y) for a class c over f: X -> Y, as an element of B(f):
    evaluation over X -> pt, recovery over id_X."""
    site = b.site
    y = site.tgt(cls.base)
    val = cls.component(site.identity(y), 0)(b.unit(y))
    return b.group(cls.base, cls.degree).element(val.coords)


# per variance: kind of a failed isomorphism, and its messages when alpha's
# family is not a class, when the comparison has a kernel, when its image is
# not B(f), and when recovery misses alpha
_ISOMORPHISM = {
    "cov": (
        "point-isomorphism",
        "op(a) is not an operational class",
        "op has nontrivial kernel over X -> pt",
        "image of op is not isomorphic to B(X -> pt)",
        "ev(op(a)) != a",
    ),
    "contra": (
        "identity-isomorphism",
        "coop(a) is not a co-operational class",
        "coop has nontrivial kernel over id_X",
        "image of coop is not isomorphic to B(id_X)",
        "recovered element differs",
    ),
}


def verify_comparison_isomorphism(variance: str, b: TabulatedBivTheory) -> ValidationReport:
    """Over each part base f (see part_base), the comparison map of the
    variance embeds B(f)^i isomorphically onto its image, and recover takes
    each class back to alpha; each group is solved once."""
    site = b.site
    kind, not_a_class, has_kernel, wrong_image, not_recovered = _ISOMORPHISM[variance]
    rb = ReportBuilder()
    for x in site.objects:
        base = part_base(site, x, variance)
        # after part_base: on a site without a final object, to_point reports it
        functor, classify = _comparison(variance, b)
        for i in b.degrees():
            result = family_group(functor, base, i)
            try:
                hom = _comparison_hom(b, base, i, result, classify)
            except NotAClassError as exc:
                rb.add(kind, not_a_class, obj=x, i=i, a=exc.generator.coords)
                continue
            ker, sub = kernel_image(hom)
            if not ker.group.is_trivial:
                rb.add(kind, has_kernel, obj=x, i=i, kernel=ker.group.pretty())
            expected = b.group(base, i)
            if sub.group.canonical() != expected.canonical():
                rb.add(kind, wrong_image, obj=x, i=i, image=sub.group.pretty(), expected=expected.pretty())
            for a in expected.gens():
                if recover(b, result.decode(hom(a))) != a:
                    rb.add(kind, not_recovered, obj=x, i=i, a=a.coords)
    return rb.done()
