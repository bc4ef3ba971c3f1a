"""Finite categories with confined maps and a total chosen-pullback table,
plus grade-windowed functors and natural transformations on them.

A Site is schema-checked at construction (names resolve, tables are total
and well-typed); the mathematical invariants -- associativity, closure of
the confined class, universal properties of the chosen squares -- are
checked by validate_site, which reports witnesses instead of raising.

The constructors here and in bivcore are the one place where an instance's
names are checked: a reader of instance files checks only what JSON alone
can tell, and locates each unknown name by the table and key that the
error carries.
"""

from __future__ import annotations

from .exactalg import FgAbGroup, GroupHom, ZERO_GROUP
from .record import Frozen
from .report import ReportBuilder, ValidationReport


class SiteStructureError(ValueError):
    """Malformed site data: unresolved names, partial or ill-typed tables.

    A constructor's error about an unknown name, or about a theory entry
    that the theory would never read, carries the table that holds the entry
    and its key there (None for a table of one value), so that a reader can
    locate the entry; every other error carries None for both.
    """

    def __init__(self, message: str, table: str | None = None, key=None):
        super().__init__(message)
        self.table = table
        self.key = key


class CospanMismatchError(ValueError):
    """A pullback was requested for two morphisms with different targets."""


class MissingFinalObjectError(ValueError):
    """An operation needs the final object but the site declares none."""


class NonConfinedError(ValueError):
    """A pushforward was requested along a morphism outside the confined class."""


class PastingError(RuntimeError):
    """No unique comparison mediator exists; the site violates a universal property."""


class MissingMapError(KeyError):
    """A functor has no map stored where one is required."""


class Mor(Frozen):
    _fields = ("name", "src", "tgt")


class PullbackSquare(Frozen):
    """Chosen square over the cospan (f: X->Y, g: Y'->Y).

    apex is X', top is g': X'->X and left is f': X'->Y'.
    """

    _fields = ("f", "g", "apex", "top", "left")


class PasteComparison(Frozen):
    """Canonical isomorphism between a pasted pullback and the direct one.

    to_direct : pasted apex -> direct apex, to_pasted its two-sided inverse.
    On poset sites both are identities.
    """

    _fields = ("direct", "first", "second", "to_direct", "to_pasted")

    def is_identity(self, site: "Site") -> bool:
        return site.is_identity(self.to_direct) and site.is_identity(self.to_pasted)


def _unknown(kind: str, name) -> SiteStructureError:
    return SiteStructureError(f"unknown {kind} {name!r}")


class Site:
    def __init__(
        self,
        objects,
        morphisms,
        identities,
        composition,
        confined,
        pullbacks,
        final_object=None,
    ):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise SiteStructureError("duplicate object names")
        mors = []
        for m in morphisms:
            if isinstance(m, Mor):
                mors.append(m)
            else:
                name, src, tgt = m
                mors.append(Mor(name, src, tgt))
        self.morphisms = tuple(mors)
        names = [m.name for m in self.morphisms]
        if len(set(names)) != len(names):
            raise SiteStructureError("duplicate morphism names")
        self._mor = {m.name: m for m in self.morphisms}
        objset = set(self.objects)
        for m in self.morphisms:
            for end, obj in (("src", m.src), ("tgt", m.tgt)):
                if obj not in objset:
                    raise SiteStructureError(f"morphism {m.name} has the unknown {end} object {obj!r}", "morphisms", (m.name, end))

        # keyed by exactly the objects, so has_object reads it
        self._identity = dict(identities)
        for x, i in self._identity.items():
            if x not in objset:
                raise SiteStructureError(f"identity given for the unknown object {x!r}", "identities", x)
            if i not in self._mor:
                raise SiteStructureError(f"identity of {x} is the unknown morphism {i!r}", "identities", x)
        for x in self.objects:
            i = self._identity.get(x)
            if i is None:
                raise SiteStructureError(f"missing identity for object {x}")
            im = self._mor[i]
            if im.src != x or im.tgt != x:
                raise SiteStructureError(f"identity of {x} is not an endomorphism of {x}")

        self._comp = {}
        for (g, f), h in dict(composition).items():
            for n in (f, g, h):
                if n not in self._mor:
                    raise SiteStructureError(f"composition of ({g}, {f}) names the unknown morphism {n!r}", "composition", (g, f))
            if self._mor[f].tgt != self._mor[g].src:
                raise SiteStructureError(f"({g}, {f}) is not a composable pair")
            hm = self._mor[h]
            if hm.src != self._mor[f].src or hm.tgt != self._mor[g].tgt:
                raise SiteStructureError(f"composite of ({g}, {f}) has wrong endpoints")
            self._comp[(g, f)] = h
        for f in self.morphisms:
            for g in self.morphisms:
                if f.tgt == g.src and (g.name, f.name) not in self._comp:
                    raise SiteStructureError(
                        f"composition table is missing ({g.name}, {f.name})"
                    )

        confined = list(confined)
        for c in confined:
            if c not in self._mor:
                raise SiteStructureError(f"confined class names the unknown morphism {c!r}", "confined", c)
        self.confined = frozenset(confined)

        self._pullbacks = {}
        for (f, g), square in dict(pullbacks).items():
            if isinstance(square, PullbackSquare):
                apex, top, left = square.apex, square.top, square.left
            else:
                apex, top, left = square
            for n in (f, g, top, left):
                if n not in self._mor:
                    raise SiteStructureError(f"chosen pullback of ({f}, {g}) names the unknown morphism {n!r}", "pullbacks", (f, g))
            if apex not in objset:
                raise SiteStructureError(f"chosen pullback of ({f}, {g}) has the unknown apex {apex!r}", "pullbacks", (f, g))
            if self._mor[f].tgt != self._mor[g].tgt:
                raise SiteStructureError(f"({f}, {g}) is not a cospan")
            tm, lm = self._mor[top], self._mor[left]
            if tm.src != apex or tm.tgt != self._mor[f].src:
                raise SiteStructureError(f"top leg of ({f}, {g}) is ill-typed")
            if lm.src != apex or lm.tgt != self._mor[g].src:
                raise SiteStructureError(f"left leg of ({f}, {g}) is ill-typed")
            self._pullbacks[(f, g)] = PullbackSquare(f, g, apex, top, left)
        for f in self.morphisms:
            for g in self.morphisms:
                if f.tgt == g.tgt and (f.name, g.name) not in self._pullbacks:
                    raise SiteStructureError(
                        f"pullback table is missing the cospan ({f.name}, {g.name})"
                    )

        self.final_object = final_object
        if final_object is not None and final_object not in objset:
            raise SiteStructureError(f"final object {final_object!r} is not an object", "final_object")

        self._into = {
            x: tuple(m.name for m in self.morphisms if m.tgt == x) for x in self.objects
        }
        self._outof = {
            x: tuple(m.name for m in self.morphisms if m.src == x) for x in self.objects
        }
        self._hom = {}
        for m in self.morphisms:
            self._hom.setdefault((m.src, m.tgt), []).append(m.name)
        self._hom = {k: tuple(v) for k, v in self._hom.items()}
        # (kind, f, g, h) -> PasteComparison, filled on first use: a site is
        # never written after construction, so a paste never changes, and the
        # table is bounded by the site and freed with it
        self._pastes = {}

    # -- basic queries ------------------------------------------------------
    #
    # A lookup of an unknown name raises SiteStructureError naming it; the
    # handler runs only then, so a lookup that succeeds costs what a bare
    # table read does.

    def src(self, name: str) -> str:
        try:
            return self._mor[name].src
        except KeyError:
            raise _unknown("morphism", name) from None

    def tgt(self, name: str) -> str:
        try:
            return self._mor[name].tgt
        except KeyError:
            raise _unknown("morphism", name) from None

    def has_morphism(self, name: str) -> bool:
        return name in self._mor

    def has_object(self, name: str) -> bool:
        return name in self._identity

    def identity(self, obj: str) -> str:
        try:
            return self._identity[obj]
        except KeyError:
            raise _unknown("object", obj) from None

    def is_identity(self, name: str) -> bool:
        return self._identity[self._mor[name].src] == name and self.src(name) == self.tgt(name)

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        try:
            if self._mor[f].tgt != self._mor[g].src:
                raise SiteStructureError(f"({g}, {f}) is not composable")
        except KeyError:
            raise _unknown("morphism", f if f not in self._mor else g) from None
        return self._comp[(g, f)]

    def is_confined(self, name: str) -> bool:
        return name in self.confined

    def morphisms_into(self, obj: str) -> tuple:
        return self._into[obj]

    def morphisms_out_of(self, obj: str) -> tuple:
        return self._outof[obj]

    def hom(self, src: str, tgt: str) -> tuple:
        return self._hom.get((src, tgt), ())

    def composable_pairs(self):
        for f in self.morphisms:
            for gname in self._outof[f.tgt]:
                yield (f.name, gname)

    def composable_triples(self):
        for f, g in self.composable_pairs():
            for hname in self._outof[self.tgt(g)]:
                yield (f, g, hname)

    def chosen_pullback(self, f: str, g: str) -> PullbackSquare:
        try:
            if self._mor[f].tgt != self._mor[g].tgt:
                raise CospanMismatchError(f"{f} and {g} do not share a target")
        except KeyError:
            raise _unknown("morphism", f if f not in self._mor else g) from None
        return self._pullbacks[(f, g)]

    def to_point(self, obj: str) -> str:
        if self.final_object is None:
            raise MissingFinalObjectError("site declares no final object")
        arrows = self.hom(obj, self.final_object)
        if len(arrows) != 1:
            raise SiteStructureError(
                f"object {obj} has {len(arrows)} arrows to the final object"
            )
        return arrows[0]

    def inverse_of(self, f: str) -> str:
        """The unique two-sided inverse of an isomorphism."""
        found = [
            u
            for u in self.hom(self.tgt(f), self.src(f))
            if self.is_identity(self.compose(f, u)) and self.is_identity(self.compose(u, f))
        ]
        if len(found) != 1:
            raise PastingError(f"{f} has {len(found)} two-sided inverses, expected 1")
        return found[0]

    # -- pasting comparisons -------------------------------------------------

    def _mediator(self, apex_from: str, conditions) -> str:
        """The unique u: apex_from -> apex_to with all (leg, required) matching."""
        apex_to = conditions[0][2]
        found = [
            u
            for u in self.hom(apex_from, apex_to)
            if all(self.compose(leg, u) == req for leg, req, _ in conditions)
        ]
        if len(found) != 1:
            raise PastingError(
                f"expected exactly one mediator {apex_from} -> {apex_to}, found {len(found)}"
            )
        return found[0]

    def cospan_paste(self, f: str, g: str, h: str) -> PasteComparison:
        """Compare pulling back f along g then h with pulling back along g o h.

        f: X->Y, g: Y'->Y, h: Y''->Y'.  first = chosen(f, g), second is the
        chosen square of (first.left, h); direct = chosen(f, g o h).
        """
        return self._tabled_paste("cospan", self._build_cospan_paste, f, g, h)

    def tower_paste(self, f: str, g: str, h: str) -> PasteComparison:
        """Compare pulling back g o f along h with stacking the two pullbacks.

        f: X->Y, g: Y->Z, h: Z'->Z.  first = chosen(g, h) with apex Y',
        second = chosen(f, first.top); direct = chosen(g o f, h).
        """
        return self._tabled_paste("tower", self._build_tower_paste, f, g, h)

    def _tabled_paste(self, kind: str, build, f: str, g: str, h: str) -> PasteComparison:
        """The paste from the table, built on first use; a paste that raises
        is not stored, so it raises again on the next call."""
        key = (kind, f, g, h)
        paste = self._pastes.get(key)
        if paste is None:
            paste = self._pastes[key] = build(f, g, h)
        return paste

    def _build_cospan_paste(self, f: str, g: str, h: str) -> PasteComparison:
        first = self.chosen_pullback(f, g)
        second = self.chosen_pullback(first.left, h)
        direct = self.chosen_pullback(f, self.compose(g, h))
        return self._paste(direct, first, second, self.compose(first.top, second.top), second.left)

    def _build_tower_paste(self, f: str, g: str, h: str) -> PasteComparison:
        first = self.chosen_pullback(g, h)
        second = self.chosen_pullback(f, first.top)
        direct = self.chosen_pullback(self.compose(g, f), h)
        return self._paste(direct, first, second, second.top, self.compose(first.left, second.left))

    def _paste(self, direct, first, second, top: str, left: str) -> PasteComparison:
        """The mutually inverse mediators between direct.apex and second.apex,
        where the pasted square of first and second has legs top and left."""
        to_direct = self._mediator(
            second.apex,
            [(direct.top, top, direct.apex), (direct.left, left, direct.apex)],
        )
        to_pasted = self._mediator(
            direct.apex,
            [(top, direct.top, second.apex), (left, direct.left, second.apex)],
        )
        if not self.is_identity(self.compose(to_direct, to_pasted)) or not self.is_identity(
            self.compose(to_pasted, to_direct)
        ):
            raise PastingError("comparison mediators are not mutually inverse")
        return PasteComparison(direct, first, second, to_direct, to_pasted)


def validate_site(site: Site) -> ValidationReport:
    rb = ReportBuilder()

    for x in site.objects:
        idx = site.identity(x)
        for f in site.morphisms_out_of(x):
            if site.compose(f, idx) != f:
                rb.add("identity-neutral", "f o id != f", obj=x, morphism=f)
        for f in site.morphisms_into(x):
            if site.compose(idx, f) != f:
                rb.add("identity-neutral", "id o f != f", obj=x, morphism=f)

    for f, g, h in site.composable_triples():
        left = site.compose(h, site.compose(g, f))
        right = site.compose(site.compose(h, g), f)
        if left != right:
            rb.add("associativity", "composition is not associative", f=f, g=g, h=h)

    for x in site.objects:
        if not site.is_confined(site.identity(x)):
            rb.add("confined-identities", "identity is not confined", obj=x)
    for f, g in site.composable_pairs():
        if site.is_confined(f) and site.is_confined(g):
            if not site.is_confined(site.compose(g, f)):
                rb.add(
                    "confined-composition",
                    "confined class is not closed under composition",
                    f=f,
                    g=g,
                    composite=site.compose(g, f),
                )

    for (f, g), sq in sorted(site._pullbacks.items()):
        if site.compose(f, sq.top) != site.compose(g, sq.left):
            rb.add("square-commutes", "chosen square does not commute", f=f, g=g)
            continue
        if site.is_confined(f) and not site.is_confined(sq.left):
            rb.add(
                "confined-base-change",
                "base change of a confined morphism is not confined",
                f=f,
                g=g,
                pulled=sq.left,
            )
        if site.is_identity(g):
            expected = (site.src(f), site.identity(site.src(f)), f)
            if (sq.apex, sq.top, sq.left) != expected:
                rb.add(
                    "degenerate-square",
                    "chosen pullback along an identity is not the degenerate square",
                    f=f,
                    g=g,
                )
        if site.is_identity(f):
            expected = (site.src(g), g, site.identity(site.src(g)))
            if (sq.apex, sq.top, sq.left) != expected:
                rb.add(
                    "degenerate-square",
                    "chosen pullback of an identity is not the degenerate square",
                    f=f,
                    g=g,
                )
        for w in site.objects:
            for p in site.hom(w, site.src(f)):
                for q in site.hom(w, site.src(g)):
                    if site.compose(f, p) != site.compose(g, q):
                        continue
                    mediators = [
                        u
                        for u in site.hom(w, sq.apex)
                        if site.compose(sq.top, u) == p and site.compose(sq.left, u) == q
                    ]
                    if len(mediators) != 1:
                        rb.add(
                            "universal-property",
                            f"cone has {len(mediators)} mediators, expected 1",
                            f=f,
                            g=g,
                            cone_obj=w,
                            p=p,
                            q=q,
                        )

    if site.final_object is not None:
        for x in site.objects:
            arrows = site.hom(x, site.final_object)
            if len(arrows) != 1:
                rb.add(
                    "final-object",
                    f"object has {len(arrows)} arrows to the final object, expected 1",
                    obj=x,
                )

    return rb.done()


# ---------------------------------------------------------------------------
# graded functors and natural transformations


class GradedFunctor:
    """Grade-windowed functor into f.g. abelian groups.

    variance "contra": every morphism h: X''->X' gets h^*: F^m(X') -> F^m(X'').
    variance "cov": every *confined* f: X->Y gets f_*: F_m(X) -> F_m(Y), and
    a map given along any other morphism raises SiteStructureError.
    Groups outside the window are zero; maps involving a zero group default
    to the zero hom and identity morphisms default to the identity hom.

    A functor is never written after construction, so it keeps three
    private tables, filled on first use, bounded by the functor and freed
    with it:
      - _defaults: each default map that map() builds, one per (morphism,
        grade) in the window, so each is built and checked once.  A
        missing map is not stored, so it raises on every call.
      - _ends: per (base, degree), the (source, target) groups of every
        component key (g, m) of a class over that base, which famsolve
        fills and every class reads.  Only degrees in
        famsolve.feasible_degrees are kept, so it holds at most |morphisms|
        x |feasible degrees| tables of |morphisms into a target| x |grades|
        entries; the ends at any other degree are computed and not kept.
      - _plans: the plans of the class operations and compatibility checks
        over it, which famsolve builds (see there).  A plan holds functor
        maps and slots that name class components, and no group of a
        component: each class checks its components' ends once, when it is
        built.  A plan that raises is not stored, so it raises again on the
        next call.
    """

    def __init__(self, site: Site, variance: str, window, groups, maps):
        if variance not in ("contra", "cov"):
            raise SiteStructureError(f"variance must be 'contra' or 'cov', not {variance!r}", "variance")
        lo, hi = window
        if lo > hi:
            raise ValueError("empty grade window")
        self.site = site
        self.variance = variance
        self.window = (lo, hi)
        self._groups = {}
        for (obj, m), grp in dict(groups).items():
            if not site.has_object(obj):
                raise SiteStructureError(f"functor group at the unknown object {obj!r}", "groups", (obj, m))
            if not (lo <= m <= hi):
                raise SiteStructureError(f"functor group at grade {m} outside window")
            self._groups[(obj, m)] = grp
        self._maps = {}
        for (mor, m), hom_ in dict(maps).items():
            if not site.has_morphism(mor):
                raise SiteStructureError(f"functor map along the unknown morphism {mor!r}", "maps", (mor, m))
            if not (lo <= m <= hi):
                raise SiteStructureError(f"functor map at grade {m} outside window")
            if not self.acts_along(mor):
                raise SiteStructureError(f"covariant functor map along non-confined {mor}")
            self._maps[(mor, m)] = hom_
        self._defaults = {}  # (morphism, grade) -> default map, filled by map()
        self._plans = {}  # (operation, operand bases and degrees, morphisms) -> plan
        self._ends = {}  # (base, degree) -> {(g, m): component ends}, filled by famsolve

    def grades(self):
        return range(self.window[0], self.window[1] + 1)

    def group(self, obj: str, m: int) -> FgAbGroup:
        if not (self.window[0] <= m <= self.window[1]):
            return ZERO_GROUP
        return self._groups.get((obj, m), ZERO_GROUP)

    def acts_along(self, mor: str) -> bool:
        """Whether the functor has a map along mor: always for contra, only
        along confined morphisms for cov."""
        return self.variance == "contra" or self.site.is_confined(mor)

    def _objects(self, mor: str):
        """(source, target) object of the map along mor."""
        if self.variance == "contra":
            return self.site.tgt(mor), self.site.src(mor)
        return self.site.src(mor), self.site.tgt(mor)

    def _endpoints(self, mor: str, m: int):
        a, b = self._objects(mor)
        return self.group(a, m), self.group(b, m)

    def map(self, mor: str, m: int) -> GroupHom:
        if not self.acts_along(mor):
            raise NonConfinedError(
                f"covariant functor has no pushforward along non-confined {mor}"
            )
        stored = self._maps.get((mor, m)) or self._defaults.get((mor, m))
        if stored is not None:
            return stored
        src, tgt = self._endpoints(mor, m)
        if self.site.is_identity(mor):
            default = GroupHom.identity(src)
        elif src.is_trivial or tgt.is_trivial:
            default = GroupHom.zero(src, tgt)
        else:
            raise MissingMapError(f"no map stored for ({mor}, grade {m})")
        if self.window[0] <= m <= self.window[1]:
            self._defaults[(mor, m)] = default
        return default

    def _is_typed(self, mor: str, m: int) -> bool:
        """Whether the map along mor in grade m exists and runs between the
        functor's groups."""
        try:
            h = self.map(mor, m)
        except MissingMapError:
            return False
        return (h.src, h.tgt) == self._endpoints(mor, m)

    def validate(self) -> ValidationReport:
        rb = ReportBuilder()
        relevant = [m.name for m in self.site.morphisms if self.acts_along(m.name)]
        for mor in relevant:
            for m in self.grades():
                src, tgt = self._endpoints(mor, m)
                try:
                    h = self.map(mor, m)
                except MissingMapError:
                    rb.add("missing-map", "no map stored", morphism=mor, grade=m)
                    continue
                if h.src != src or h.tgt != tgt:
                    rb.add("map-typing", "map endpoints do not match groups", morphism=mor, grade=m)
                    continue
                if self.site.is_identity(mor) and not h.equals(GroupHom.identity(src)):
                    rb.add("identity-map", "identity morphism maps to non-identity", morphism=mor, grade=m)
        for f, g in self.site.composable_pairs():
            gf = self.site.compose(g, f)
            if not (self.acts_along(f) and self.acts_along(g) and self.acts_along(gf)):
                continue
            # the map along the morphism applied first acts first
            first, then = (g, f) if self.variance == "contra" else (f, g)
            for m in self.grades():
                if not all(self._is_typed(mor, m) for mor in (gf, then, first)):
                    continue  # already reported; the square does not compose
                lhs = self.map(gf, m)
                rhs = self.map(then, m) @ self.map(first, m)
                if not lhs.equals(rhs):
                    rb.add("functoriality", "composite map disagrees", f=f, g=g, grade=m)
        return rb.done()


class NaturalTransf:
    """Degree-preserving natural transformation between same-variance functors."""

    def __init__(self, src: GradedFunctor, tgt: GradedFunctor, components):
        if src.site is not tgt.site:
            raise SiteStructureError("functors live on different sites")
        if src.variance != tgt.variance:
            raise SiteStructureError("functors have different variance")
        if src.window != tgt.window:
            raise SiteStructureError("functors have different grade windows")
        self.src = src
        self.tgt = tgt
        self.site = src.site
        self._components = dict(components)
        lo, hi = src.window
        for obj, m in self._components:
            if not (lo <= m <= hi):
                raise SiteStructureError(f"component at grade {m} outside window")
            self._endpoints(obj, m)

    def _endpoints(self, obj: str, m: int):
        """(source, target) group of the component at (obj, m)."""
        if not self.site.has_object(obj):
            raise SiteStructureError(f"component at {obj}, which is not an object of the site", "components", (obj, m))
        return self.src.group(obj, m), self.tgt.group(obj, m)

    def component(self, obj: str, m: int) -> GroupHom:
        stored = self._components.get((obj, m))
        if stored is not None:
            return stored
        a, b = self._endpoints(obj, m)
        if a.is_trivial or b.is_trivial:
            return GroupHom.zero(a, b)
        raise MissingMapError(f"no component stored for ({obj}, grade {m})")

    def validate(self) -> ValidationReport:
        rb = ReportBuilder()
        untyped = set()  # (object, grade) of components reported missing or ill-typed
        for obj in self.site.objects:
            for m in self.src.grades():
                try:
                    c = self.component(obj, m)
                except MissingMapError:
                    rb.add("missing-component", "no component stored", obj=obj, grade=m)
                    untyped.add((obj, m))
                    continue
                if c.src != self.src.group(obj, m) or c.tgt != self.tgt.group(obj, m):
                    rb.add("component-typing", "component endpoints mismatch", obj=obj, grade=m)
                    untyped.add((obj, m))
        relevant = [m.name for m in self.site.morphisms if self.src.acts_along(m.name)]
        for mor in relevant:
            a, b = self.src._objects(mor)
            for m in self.src.grades():
                # a square with a missing or ill-typed component does not
                # compose, nor does one with a missing or ill-typed functor
                # map, which the functor's own validate reports
                if untyped & {(a, m), (b, m)}:
                    continue
                if not (self.src._is_typed(mor, m) and self.tgt._is_typed(mor, m)):
                    continue
                lhs = self.component(b, m) @ self.src.map(mor, m)
                rhs = self.tgt.map(mor, m) @ self.component(a, m)
                if not lhs.equals(rhs):
                    rb.add("naturality", "naturality square does not commute", morphism=mor, grade=m)
        return rb.done()
