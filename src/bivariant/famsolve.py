"""Families of homomorphisms over a base morphism: the engine shared by the
operational and the co-operational theory.

A class of degree i over f: X -> Y has one component c_(g, m) per morphism
g: Y' -> Y and grade m; X'_g is the apex of the chosen pullback of f along g.
Classes, groups and operations are one code for both theories; the
functor's variance is the only input that decides where they differ, in
three helpers:

  - _oriented: the side of a component the apex lies on.  For a covariant
    functor h the component is c_g: h_m(Y') -> h_{m-i}(X'_g), so the apex
    is its target; for a contravariant F it is c_g: F^m(X'_g) -> F^{m+i}(Y'),
    so the apex is its source.  A map of the functor on the apex side
    composes after the component (cov) or before it (contra).
  - _shift: the sign of the grade shift, -degree (cov) or +degree (contra).
  - _needs_confined: whether pushforwards and compatibility squares need
    confined morphisms: always for cov, never for contra.

Groups of classes are kernels of an integer constraint map: the unknown is
the family (c_key) with c_key in Hom(src, tgt), and each constraint is a
signed sum of terms post o c_key o pre that must vanish.  FamilySolution
assembles the constraint map between the direct sums of the Hom groups and
returns its kernel with an element <-> family codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bivcore import (
    DegreeWindowError,
    GrothTransf,
    InvalidTransformationError,
    TabulatedBivTheory,
    image_subtheory,
    validate_groth,
)
from .exactalg import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    IntMatrix,
    MembershipError,
    Subgroup,
    direct_sum,
    hom_group,
    hom_preimage,
    image,
    induced_hom,
    is_surjective,
    kernel,
)
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, NonConfinedError, Site


@dataclass(frozen=True)
class SummandSpec:
    key: object
    src: FgAbGroup
    tgt: FgAbGroup


@dataclass(frozen=True)
class TermSpec:
    sign: int
    summand_key: object
    pre: GroupHom | None = None
    post: GroupHom | None = None


@dataclass(frozen=True)
class ConstraintSpec:
    key: object
    src: FgAbGroup
    tgt: FgAbGroup
    terms: tuple


class FamilySolution:
    """Kernel of the assembled constraint map, with decode/encode."""

    def __init__(self, summands, constraints):
        self.summands = [s for s in summands if not hom_group(s.src, s.tgt).group.is_trivial]
        self.hom_groups = [hom_group(s.src, s.tgt) for s in self.summands]
        self._pos = {s.key: idx for idx, s in enumerate(self.summands)}
        self.unknowns = direct_sum([hg.group for hg in self.hom_groups])

        kept = []
        for c in constraints:
            if hom_group(c.src, c.tgt).group.is_trivial:
                continue
            terms = tuple(t for t in c.terms if t.summand_key in self._pos)
            kept.append(ConstraintSpec(c.key, c.src, c.tgt, terms))
        self.constraints = kept
        self.targets = [hom_group(c.src, c.tgt) for c in self.constraints]
        self.constraint_sum = direct_sum([hg.group for hg in self.targets])

        total = GroupHom.zero(self.unknowns.group, self.constraint_sum.group)
        for ci, c in enumerate(self.constraints):
            for t in c.terms:
                si = self._pos[t.summand_key]
                ind = induced_hom(self.hom_groups[si], self.targets[ci], t.pre, t.post)
                block = self.constraint_sum.injections[ci] @ ind @ self.unknowns.projections[si]
                total = total + (block if t.sign > 0 else -block)
        self.constraint_hom = total
        self.kernel: Subgroup = kernel(total)

    @property
    def group(self) -> FgAbGroup:
        return self.kernel.group

    def summand_spec(self, key) -> SummandSpec | None:
        idx = self._pos.get(key)
        return None if idx is None else self.summands[idx]

    def decode_unknowns(self, u: GroupElement) -> dict:
        """Family components from an element of the unknown direct sum."""
        out = {}
        for idx, s in enumerate(self.summands):
            coords = self.unknowns.projections[idx](u)
            out[s.key] = self.hom_groups[idx].decode(coords)
        return out

    def decode(self, x: GroupElement) -> dict:
        if x.group != self.group:
            raise MembershipError("element is not in the solution group")
        return self.decode_unknowns(self.kernel.inclusion(x))

    def encode_unknowns(self, components) -> GroupElement:
        u = self.unknowns.group.zero_element()
        for idx, s in enumerate(self.summands):
            comp = components.get(s.key)
            if comp is None:
                continue
            u = u + self.unknowns.injections[idx](self.hom_groups[idx].encode(comp))
        return u

    def encode(self, components) -> GroupElement:
        """Element of the kernel matching the family, or MembershipError."""
        u = self.encode_unknowns(components)
        x = hom_preimage(self.kernel.inclusion, u)
        if x is None:
            raise MembershipError("family does not satisfy the compatibility constraints")
        return x

    def constraint_rhs(self, rhs) -> GroupElement:
        """Element of the constraint sum built from homs indexed by constraint key."""
        w = self.constraint_sum.group.zero_element()
        for ci, c in enumerate(self.constraints):
            h = rhs.get(c.key)
            if h is None:
                continue
            w = w + self.constraint_sum.injections[ci](self.targets[ci].encode(h))
        return w

    def solve_affine(self, rhs):
        """One u in the unknown sum with constraint_hom(u) == rhs, or None."""
        return hom_preimage(self.constraint_hom, self.constraint_rhs(rhs))


def solve_family(summands, constraints) -> FamilySolution:
    return FamilySolution(summands, constraints)


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


def _needs_confined(functor: GradedFunctor) -> bool:
    """Whether pushforwards and compatibility squares need confined morphisms."""
    return _cov(functor)


def _grades(functor: GradedFunctor, m: int, degree: int):
    """(leg grade, apex grade) of the component whose source is at grade m."""
    return _oriented(functor, m, m + _shift(functor, degree))


def _ends(functor: GradedFunctor, leg_obj: str, apex_obj: str, m: int, degree: int):
    """(source, target) groups of the component at grade m between the two objects."""
    leg, apex = _grades(functor, m, degree)
    return _oriented(functor, functor.group(leg_obj, leg), functor.group(apex_obj, apex))


def _path(functor: GradedFunctor, m: int, steps) -> GroupHom:
    """Compose steps listed from the leg side of a component to its apex side.

    A step is a morphism, acting through the functor, or a (class, key
    morphism) pair naming one component.  The maps are applied from the
    source side on; m is the grade there, and each component shifts it by
    its class's degree.
    """
    source_first, _ = _oriented(functor, steps, steps[::-1])
    acc = None
    for step in source_first:
        if isinstance(step, str):
            hom = functor.map(step, m)
        else:
            cls, g = step
            hom = cls.component(g, m)
            m += _shift(functor, cls.degree)
        acc = hom if acc is None else hom @ acc
    return acc


def _squares(functor: GradedFunctor, base: str):
    """(g, k, w, g o k) per compatibility square over the base morphism.

    k runs over the non-identity morphisms into src(g), confined ones only
    for a covariant functor; w compares the apex over g o k with the apex
    over g through the pasted square.
    """
    site = functor.site
    for g in site.morphisms_into(site.tgt(base)):
        for k in site.morphisms_into(site.src(g)):
            if site.is_identity(k) or (_needs_confined(functor) and not site.is_confined(k)):
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


@dataclass(eq=False)
class FamilyClass:
    """A single class: functor, base morphism, degree, components."""

    functor: GradedFunctor
    base: str
    degree: int
    components: dict = field(default_factory=dict)

    @property
    def site(self) -> Site:
        return self.functor.site

    def component(self, g: str, m: int) -> GroupHom:
        stored = self.components.get((g, m))
        if stored is not None:
            return stored
        site = self.site
        apex = site.chosen_pullback(self.base, g).apex
        return GroupHom.zero(*_ends(self.functor, site.src(g), apex, m, self.degree))

    def _keys(self):
        site = self.site
        for g in site.morphisms_into(site.tgt(self.base)):
            for m in self.functor.grades():
                yield (g, m)

    def _same_context(self, other: "FamilyClass") -> bool:
        return (
            self.site is other.site
            and self.functor.variance == other.functor.variance
            and self.functor.window == other.functor.window
            and self.base == other.base
            and self.degree == other.degree
        )

    def _compatible(self, other: "FamilyClass"):
        if not self._same_context(other):
            raise ValueError("classes live over different data")

    def __eq__(self, other):
        if not isinstance(other, FamilyClass):
            return NotImplemented
        if not self._same_context(other):
            return False
        return all(self.component(g, m).equals(other.component(g, m)) for g, m in self._keys())

    def __add__(self, other: "FamilyClass") -> "FamilyClass":
        self._compatible(other)
        comps = {k: self.component(*k) + other.component(*k) for k in self._keys()}
        return FamilyClass(self.functor, self.base, self.degree, comps)

    def __neg__(self) -> "FamilyClass":
        return FamilyClass(self.functor, self.base, self.degree, {k: -self.component(*k) for k in self._keys()})

    def __sub__(self, other: "FamilyClass") -> "FamilyClass":
        return self + (-other)

    def compatibility_report(self) -> ValidationReport:
        rb = ReportBuilder()
        kind, message, leg = _COMPATIBILITY[self.functor.variance]
        for g, k, w, gk in _squares(self.functor, self.base):
            for m in self.functor.grades():
                lhs = _path(self.functor, m, [(self, gk), w])
                rhs = _path(self.functor, m, [k, (self, g)])
                if not lhs.equals(rhs):
                    rb.add(kind, message, g=g, grade=m, **{leg: k})
        return rb.done()


@dataclass(frozen=True)
class FamilyGroup:
    """The group of classes for (functor, base, degree)."""

    functor: GradedFunctor
    base: str
    degree: int
    solution: FamilySolution

    @property
    def group(self):
        return self.solution.group

    def decode(self, x: GroupElement) -> FamilyClass:
        return FamilyClass(self.functor, self.base, self.degree, self.solution.decode(x))

    def encode(self, cls: FamilyClass) -> GroupElement:
        if not isinstance(cls, FamilyClass):
            raise TypeError("only additive classes encode; map families are not classes")
        comps = {key: cls.component(*key) for key in (s.key for s in self.solution.summands)}
        return self.solution.encode(comps)

    def decoded_gens(self) -> list[FamilyClass]:
        return [self.decode(e) for e in self.group.gens()]


def family_group(functor: GradedFunctor, base: str, degree: int) -> FamilyGroup:
    """Solve for every compatible family over the base morphism."""
    site = functor.site
    summands = []
    for g in site.morphisms_into(site.tgt(base)):
        apex = site.chosen_pullback(base, g).apex
        for m in functor.grades():
            summands.append(SummandSpec((g, m), *_ends(functor, site.src(g), apex, m, degree)))
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
    return FamilyGroup(functor, base, degree, solve_family(summands, constraints))


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
    if c.site is not d.site or c.functor.window != d.functor.window:
        raise ValueError("classes over different functors")
    functor, site = c.functor, c.site
    degree = c.degree + d.degree
    check_degree(functor, degree)
    comps = {}
    for h in site.morphisms_into(site.tgt(d.base)):
        paste = site.tower_paste(c.base, d.base, h)
        steps = [(d, h), (c, paste.first.top), paste.to_direct]
        for m in functor.grades():
            comps[(h, m)] = _path(functor, m, steps)
    return FamilyClass(functor, site.compose(d.base, c.base), degree, comps)


def family_pushforward(c: FamilyClass, f: str, rest: str) -> FamilyClass:
    """(f_* c)_h: c_h, then the paste comparison and the base change f' of f.

    Needs a confined f for a covariant functor only.
    """
    functor, site = c.functor, c.site
    if _needs_confined(functor) and not site.is_confined(f):
        raise NonConfinedError(f"pushforward along non-confined morphism {f}")
    if site.compose(rest, f) != c.base:
        raise ValueError("base morphism does not factor as rest o f")
    comps = {}
    for h in site.morphisms_into(site.tgt(rest)):
        paste = site.tower_paste(f, rest, h)
        steps = [(c, h), paste.to_pasted, paste.second.left]
        for m in functor.grades():
            comps[(h, m)] = _path(functor, m, steps)
    return FamilyClass(functor, rest, c.degree, comps)


def family_pullback(c: FamilyClass, g: str) -> FamilyClass:
    """(g^* c)_k := c_(g o k), transported to the pasted apex."""
    functor, site = c.functor, c.site
    if site.tgt(g) != site.tgt(c.base):
        raise ValueError(f"{g} is not a morphism into the base target")
    comps = {}
    for k in site.morphisms_into(site.src(g)):
        steps = [(c, site.compose(g, k)), site.cospan_paste(c.base, g, k).to_pasted]
        for m in functor.grades():
            comps[(k, m)] = _path(functor, m, steps)
    return FamilyClass(functor, site.chosen_pullback(c.base, g).left, c.degree, comps)


def family_transport(cls: FamilyClass, new_base: str, iso: str) -> FamilyClass:
    """Move a class along an isomorphism of base morphisms.

    iso: src(new_base) -> src(cls.base) with cls.base o iso == new_base;
    every component is composed with the canonical apex comparison on its
    apex side, which must be confined for a covariant functor to act.
    """
    functor, site = cls.functor, cls.site
    if site.compose(cls.base, iso) != new_base:
        raise ValueError("iso does not relate the two base morphisms")
    iso_inv = site.inverse_of(iso)
    comps = {}
    for k in site.morphisms_into(site.tgt(new_base)):
        sq_new = site.chosen_pullback(new_base, k)
        sq_old = site.chosen_pullback(cls.base, k)
        v_inv = site._mediator(
            sq_old.apex,
            [
                (sq_new.top, site.compose(iso_inv, sq_old.top), sq_new.apex),
                (sq_new.left, sq_old.left, sq_new.apex),
            ],
        )
        for m in functor.grades():
            comps[(k, m)] = _path(functor, m, [(cls, k), v_inv])
    return FamilyClass(functor, new_base, cls.degree, comps)


class FamilyTheory:
    """A computed op or coop theory in the protocol of bivcore.verify_axioms."""

    def __init__(self, functor: GradedFunctor, degrees):
        self.functor = functor
        self.site = functor.site
        self._degrees = list(feasible_degrees(functor) if degrees is None else degrees)
        self._gens = {}

    def degrees(self):
        return self._degrees

    def gens(self, base: str, i: int) -> list[FamilyClass]:
        key = (base, i)
        if key not in self._gens:
            self._gens[key] = family_group(self.functor, base, i).decoded_gens()
        return self._gens[key]

    def allows(self, *degrees) -> bool:
        return all(i in self._degrees for i in degrees)

    def can_push(self, f: str) -> bool:
        return not _needs_confined(self.functor) or self.site.is_confined(f)

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


# ---------------------------------------------------------------------------
# comparison maps from a tabulated theory, and transfers between their images


def comparison_hom(b: TabulatedBivTheory, base: str, degree: int, result: FamilyGroup, classify) -> GroupHom:
    """The map B(f)^i -> result.group, alpha |-> classify(b, base, degree, alpha)."""
    src = b.group(base, degree)
    cols = [result.encode(classify(b, base, degree, a)).coords for a in src.gens()]
    return GroupHom(src, result.group, IntMatrix.from_columns(cols, result.group.ngens))


def surjectivity_witness(t: GrothTransf, variance: str):
    """An (object, degree) where gamma is not onto the covariant part
    (over X -> pt) or the contravariant part (over id_X), or None."""
    site = t.site
    for x in site.objects:
        f = site.to_point(x) if variance == "cov" else site.identity(x)
        for i in t.src.degrees():
            if not is_surjective(t.component(f, i)):
                return (x, i)
    return None


class NotSurjectiveError(InvalidTransformationError):
    def __init__(self, variance, witness):
        self.witness = witness
        super().__init__(f"{PART[variance]} part not surjective at {witness}")


@dataclass(frozen=True)
class ImageTransfer:
    """Map cls(alpha) |-> cls(gamma(alpha)) between images of comparison maps."""

    source_theory: TabulatedBivTheory
    target_theory: TabulatedBivTheory
    base: str
    degree: int
    source: Subgroup
    target: Subgroup
    mapping: GroupHom  # source.group -> target.group


def image_transfer(t: GrothTransf, base: str, degree: int, mode: str, variance: str, comparison) -> ImageTransfer:
    """Transfer between the images of comparison(theory, base, degree).

    mode 'full' maps into the target theory and needs gamma onto the part of
    the given variance; mode 'image' maps into the image subtheory.
    Well-definedness is certified computationally: every kernel generator of
    the comparison on the source side must map to a kernel element on the
    target side.
    """
    rep = validate_groth(t)
    if not rep.ok:
        raise InvalidTransformationError("; ".join(rep.lines()))
    if mode == "full":
        witness = surjectivity_witness(t, variance)
        if witness is not None:
            raise NotSurjectiveError(variance, witness)
        target_theory = t.tgt
        to_target = t.component(base, degree)
    elif mode == "image":
        target_theory = image_subtheory(t)
        # in the image presentation, gamma(alpha) keeps alpha's coordinates
        to_target = GroupHom(
            t.src.group(base, degree),
            target_theory.group(base, degree),
            IntMatrix.identity(t.src.group(base, degree).ngens),
        )
    else:
        raise ValueError("mode must be 'image' or 'full'")

    src_hom = comparison(t.src, base, degree)
    tgt_hom = comparison(target_theory, base, degree)
    composed = tgt_hom @ to_target
    src_kernel = kernel(src_hom)
    name = COMPARISON[variance]
    for k in src_kernel.group.gens():
        if not composed(src_kernel.inclusion(k)).is_zero:
            raise InvalidTransformationError(
                f"transfer is not well-defined: {name}(alpha)={name}(beta) but images differ"
            )

    source_sub = image(src_hom)
    target_sub = image(tgt_hom)
    cols = [to_target(a).coords for a in t.src.group(base, degree).gens()]
    mapping = GroupHom(
        source_sub.group, target_sub.group, IntMatrix.from_columns(cols, target_sub.group.ngens)
    )
    return ImageTransfer(t.src, target_theory, base, degree, source_sub, target_sub, mapping)


def verify_comparison_identities(b: TabulatedBivTheory, variance: str, classify, defined) -> ValidationReport:
    """classify(a.b) = classify(a).classify(b), classify(f_*a) = f_*classify(a)
    and classify(g^*a) = g^*classify(a) on generators.

    classify(b, base, degree, alpha) is the comparison formula; checks run
    only over bases where defined(base) holds.
    """
    site = b.site
    name = COMPARISON[variance]
    rb = ReportBuilder()
    degrees = list(b.degrees())
    for f, g in site.composable_pairs():
        if not (defined(f) and defined(g)):
            continue
        gf = site.compose(g, f)
        for i in degrees:
            for j in degrees:
                for a in b.group(f, i).gens():
                    ca = classify(b, f, i, a)
                    for bb in b.group(g, j).gens():
                        lhs = classify(b, gf, i + j, b.product(f, g, i, j, a, bb))
                        rhs = family_product(ca, classify(b, g, j, bb))
                        if lhs != rhs:
                            rb.add(f"{name}-product", f"{name}(a.b) != {name}(a).{name}(b)", f=f, g=g, i=i, j=j, a=a.coords, b=bb.coords)
    for f, g in site.composable_pairs():
        if not (site.is_confined(f) and defined(g)):
            continue
        gf = site.compose(g, f)
        for i in degrees:
            for a in b.group(gf, i).gens():
                lhs = classify(b, g, i, b.pushforward(f, g, i, a))
                rhs = family_pushforward(classify(b, gf, i, a), f, g)
                if lhs != rhs:
                    rb.add(f"{name}-pushforward", f"{name}(f_*a) != f_*{name}(a)", f=f, g=g, i=i, a=a.coords)
    for (f, g), sq in sorted(site._pullbacks.items()):
        if not defined(f):
            continue
        for i in degrees:
            for a in b.group(f, i).gens():
                lhs = classify(b, sq.left, i, b.pullback(f, g, i, a))
                rhs = family_pullback(classify(b, f, i, a), g)
                if lhs != rhs:
                    rb.add(f"{name}-pullback", f"{name}(g^*a) != g^*{name}(a)", f=f, g=g, i=i, a=a.coords)
    return rb.done()
