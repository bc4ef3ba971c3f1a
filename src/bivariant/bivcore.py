"""Tabulated bivariant theories, the seven-axiom verifier, Grothendieck
transformations, and image subtheories.

A tabulated theory stores, over a fixed site and degree window:
  - a group B^i(f) per (morphism, degree),
  - bilinear products as generator-pair tables,
  - pushforwards f_*: B^i(g o f) -> B^i(g) for confined f,
  - pullbacks along every chosen square,
  - a unit 1_X in B^0(id_X) per object.
Nothing is assumed: validate_axioms re-proves every axiom exhaustively on
generators (bilinearity makes generator checks complete).
"""

from __future__ import annotations

from functools import cached_property

from .exactalg import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    ZERO_GROUP,
    hom_preimage,
    image,
    IntMatrix,
)
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, Site


class MissingTableError(KeyError):
    """A required product/pushforward/pullback entry is absent."""


class InvalidTransformationError(ValueError):
    """The given transformation fails the Grothendieck identities."""


class DegreeWindowError(ValueError):
    """A degree outside the declared window was requested."""


AXIOM_NAMES = (
    "associativity",
    "pushforward-functorial",
    "pullback-functorial",
    "product-pushforward",
    "product-pullback",
    "pushforward-pullback",
    "projection-formula",
    "units",
)


class TabulatedBivTheory:
    def __init__(self, site: Site, window, groups, products, pushforwards, pullbacks, units):
        lo, hi = window
        if lo > hi:
            raise ValueError("empty degree window")
        self.site = site
        self.window = (lo, hi)
        self._groups = dict(groups)
        self._products = {}
        for key, table in dict(products).items():
            self._products[key] = tuple(tuple(tuple(int(x) for x in cell) for cell in row) for row in table)
        self._pushforwards = dict(pushforwards)
        self._pullbacks = dict(pullbacks)
        self._units = {}
        for obj, u in dict(units).items():
            grp = self.group(site.identity(obj), 0)
            self._units[obj] = u if isinstance(u, GroupElement) else grp.element(u)

    def degrees(self):
        return range(self.window[0], self.window[1] + 1)

    def group(self, f: str, i: int) -> FgAbGroup:
        if not (self.window[0] <= i <= self.window[1]):
            return ZERO_GROUP
        return self._groups.get((f, i), ZERO_GROUP)

    def unit(self, obj: str) -> GroupElement:
        u = self._units.get(obj)
        if u is None:
            raise MissingTableError(f"no unit stored for object {obj}")
        return u

    def product(self, f: str, g: str, i: int, j: int, a: GroupElement, b: GroupElement) -> GroupElement:
        """Bivariant product of a over f: X->Y and b over g: Y->Z."""
        target = self.group(self.site.compose(g, f), i + j)
        table = self._products.get((f, g, i, j))
        if table is None:
            if a.group.is_trivial or b.group.is_trivial or target.is_trivial:
                return target.zero_element()
            raise MissingTableError(f"no product table for ({f}, {g}, {i}, {j})")
        out = [0] * target.ngens
        for k, ak in enumerate(a.coords):
            if not ak:
                continue
            row = table[k]
            for l, bl in enumerate(b.coords):
                if not bl:
                    continue
                cell = row[l]
                for t in range(target.ngens):
                    out[t] += ak * bl * cell[t]
        return target.element(out)

    def pushforward_hom(self, f: str, g: str, i: int) -> GroupHom:
        """f_*: B^i(X -> gf -> Z) -> B^i(Y -> g -> Z) for confined f: X->Y."""
        if not self.site.is_confined(f):
            raise MissingTableError(f"pushforward along non-confined morphism {f}")
        src = self.group(self.site.compose(g, f), i)
        tgt = self.group(g, i)
        stored = self._pushforwards.get((f, g, i))
        if stored is not None:
            return stored
        if self.site.is_identity(f):
            return GroupHom.identity(src)
        if src.is_trivial or tgt.is_trivial:
            return GroupHom.zero(src, tgt)
        raise MissingTableError(f"no pushforward stored for ({f}, {g}, {i})")

    def pushforward(self, f: str, g: str, i: int, a: GroupElement) -> GroupElement:
        return self.pushforward_hom(f, g, i)(a)

    def pullback_hom(self, f: str, g: str, i: int) -> GroupHom:
        """g^*: B^i(f) -> B^i(f') along the chosen square of the cospan (f, g)."""
        sq = self.site.chosen_pullback(f, g)
        src = self.group(f, i)
        tgt = self.group(sq.left, i)
        stored = self._pullbacks.get((f, g, i))
        if stored is not None:
            return stored
        if self.site.is_identity(g):
            return GroupHom.identity(src)
        if src.is_trivial or tgt.is_trivial:
            return GroupHom.zero(src, tgt)
        raise MissingTableError(f"no pullback stored for ({f}, {g}, {i})")

    def pullback(self, f: str, g: str, i: int, a: GroupElement) -> GroupElement:
        return self.pullback_hom(f, g, i)(a)

    # -- the protocol of verify_axioms ---------------------------------------

    def gens(self, f: str, i: int):
        return self.group(f, i).gens()

    def allows(self, *degrees) -> bool:
        """Every degree sum is checked: out of the window the groups are zero."""
        return True

    def can_push(self, f: str) -> bool:
        return self.site.is_confined(f)

    def nonstrict(self, rb: ReportBuilder, phrase: str, bases, new_base: str, iso: str, **where):
        """Tables cannot be compared across a non-strict paste: report it when
        every base in bases has a nontrivial group, and skip the check."""
        if all(any(not self.group(f, i).is_trivial for i in self.degrees()) for f in bases):
            rb.add("nonstrict-pasting", f"tabulated {phrase} needs strictly pasted chosen squares", **where)
        return None

    def witness(self, **elements) -> dict:
        return {name: e.coords for name, e in elements.items()}

    # -- associated functors --------------------------------------------------

    @cached_property
    def covariant_part(self) -> GradedFunctor:
        """h_m(X) := B^{-m}(X -> pt), pushforwards along confined maps."""
        pt = self.site.final_object
        if pt is None:
            from .site import MissingFinalObjectError

            raise MissingFinalObjectError("covariant part needs a final object")
        lo, hi = self.window
        groups = {}
        maps = {}
        for x in self.site.objects:
            ax = self.site.to_point(x)
            for m in range(-hi, -lo + 1):
                groups[(x, m)] = self.group(ax, -m)
        for mor in self.site.morphisms:
            if not self.site.is_confined(mor.name):
                continue
            a_tgt = self.site.to_point(mor.tgt)
            for m in range(-hi, -lo + 1):
                maps[(mor.name, m)] = self.pushforward_hom(mor.name, a_tgt, -m)
        return GradedFunctor(self.site, "cov", (-hi, -lo), groups, maps)

    @cached_property
    def contravariant_part(self) -> GradedFunctor:
        """F^m(X) := B^m(id_X), restrictions along every morphism."""
        groups = {}
        maps = {}
        for x in self.site.objects:
            for m in self.degrees():
                groups[(x, m)] = self.group(self.site.identity(x), m)
        for mor in self.site.morphisms:
            idt = self.site.identity(mor.tgt)
            for m in self.degrees():
                maps[(mor.name, m)] = self.pullback_hom(idt, mor.name, m)
        return GradedFunctor(self.site, "contra", self.window, groups, maps)


# ---------------------------------------------------------------------------
# axiom verification


def _structural(theory: TabulatedBivTheory, rb: ReportBuilder) -> None:
    site = theory.site
    for x in site.objects:
        try:
            u = theory.unit(x)
        except MissingTableError:
            rb.add("units", "no unit stored", obj=x)
            continue
        if u.group != theory.group(site.identity(x), 0):
            rb.add("units", "unit lives in the wrong group", obj=x)
    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for i in theory.degrees():
            for j in theory.degrees():
                ga, gb = theory.group(f, i), theory.group(g, j)
                tgtg = theory.group(gf, i + j)
                table = theory._products.get((f, g, i, j))
                if table is None:
                    if not (ga.is_trivial or gb.is_trivial or tgtg.is_trivial):
                        rb.add("missing-product", "no product table", f=f, g=g, i=i, j=j)
                    continue
                if len(table) != ga.ngens or any(len(r) != gb.ngens for r in table):
                    rb.add("product-shape", "product table shape mismatch", f=f, g=g, i=i, j=j)
                    continue
                if any(len(c) != tgtg.ngens for r in table for c in r):
                    rb.add("product-shape", "product entries have wrong length", f=f, g=g, i=i, j=j)
                    continue
                # bilinear extension must respect both relation lattices
                for rc in range(ga.relations.cols):
                    rel = ga.relations.col(rc)
                    for l in range(gb.ngens):
                        acc = [0] * tgtg.ngens
                        for k, rk in enumerate(rel):
                            if rk:
                                for t in range(tgtg.ngens):
                                    acc[t] += rk * table[k][l][t]
                        if not tgtg.element(acc).is_zero:
                            rb.add("product-well-defined", "table does not respect left relations", f=f, g=g, i=i, j=j, relation=rc)
                for rc in range(gb.relations.cols):
                    rel = gb.relations.col(rc)
                    for k in range(ga.ngens):
                        acc = [0] * tgtg.ngens
                        for l, rl in enumerate(rel):
                            if rl:
                                for t in range(tgtg.ngens):
                                    acc[t] += rl * table[k][l][t]
                        if not tgtg.element(acc).is_zero:
                            rb.add("product-well-defined", "table does not respect right relations", f=f, g=g, i=i, j=j, relation=rc)
    for f, g in site.composable_pairs():
        if not site.is_confined(f):
            continue
        for i in theory.degrees():
            try:
                h = theory.pushforward_hom(f, g, i)
            except MissingTableError:
                rb.add("missing-pushforward", "no pushforward stored", f=f, g=g, i=i)
                continue
            if h.src != theory.group(site.compose(g, f), i) or h.tgt != theory.group(g, i):
                rb.add("pushforward-typing", "pushforward endpoints mismatch", f=f, g=g, i=i)
    for (f, g), sq in sorted(site._pullbacks.items()):
        for i in theory.degrees():
            try:
                h = theory.pullback_hom(f, g, i)
            except MissingTableError:
                rb.add("missing-pullback", "no pullback stored", f=f, g=g, i=i)
                continue
            if h.src != theory.group(f, i) or h.tgt != theory.group(sq.left, i):
                rb.add("pullback-typing", "pullback endpoints mismatch", f=f, g=g, i=i)


def validate_axioms(theory: TabulatedBivTheory) -> ValidationReport:
    """Exhaustive check of the seven axioms plus units on generators."""
    rb = ReportBuilder()
    _structural(theory, rb)
    if not rb.done().ok:
        return rb.done()
    return verify_axioms(theory)


def _unchanged(a):
    return a


def verify_axioms(theory) -> ValidationReport:
    """The seven axioms plus units, checked exhaustively on generators.

    theory is a tabulated theory or a computed family theory
    (famsolve.FamilyTheory).  Both provide site, degrees(), gens(f, i),
    product(f, g, i, j, a, b), pushforward(f, g, i, a), pullback(f, g, i, a)
    and unit(obj), whose values compare with ==, and:
      - can_push(f): whether pushforward along f exists;
      - allows(*degrees): whether the degree sums of a check are in range;
      - nonstrict(rb, phrase, bases, new_base, iso, **where): what to do
        when a check crosses a non-strictly pasted square: a map moving the
        pasted side to (new_base, along iso), or None to skip the check;
      - witness(**elements): extra witness fields naming the elements.
    """
    site = theory.site
    degrees = list(theory.degrees())
    gens, product, push, pull = theory.gens, theory.product, theory.pushforward, theory.pullback
    rb = ReportBuilder()

    def aligned(paste, phrase, bases, new_base, iso, **where):
        if paste.is_identity(site):
            return _unchanged
        return theory.nonstrict(rb, phrase, bases, new_base, iso, **where)

    # associativity
    for f, g, h in site.composable_triples():
        gf = site.compose(g, f)
        hg = site.compose(h, g)
        for i in degrees:
            for j in degrees:
                for k in degrees:
                    if not theory.allows(i + j, j + k, i + j + k):
                        continue
                    for a in gens(f, i):
                        for b in gens(g, j):
                            ab = product(f, g, i, j, a, b)
                            for c in gens(h, k):
                                lhs = product(gf, h, i + j, k, ab, c)
                                rhs = product(f, hg, i, j + k, a, product(g, h, j, k, b, c))
                                if lhs != rhs:
                                    rb.add("associativity", "(a.b).c != a.(b.c)", f=f, g=g, h=h, i=i, j=j, k=k, **theory.witness(a=a, b=b, c=c))

    # pushforward functoriality: identities act trivially and composites agree
    for x in site.objects:
        idx = site.identity(x)
        for g in site.morphisms_out_of(x):
            for i in degrees:
                if any(push(idx, g, i, a) != a for a in gens(g, i)):
                    rb.add("pushforward-functorial", "pushforward along identity is not the identity", obj=x, g=g, i=i)
    for f, g, h in site.composable_triples():
        if not (theory.can_push(f) and theory.can_push(g)):
            continue
        gf = site.compose(g, f)
        hg = site.compose(h, g)
        for i in degrees:
            for a in gens(site.compose(h, gf), i):
                lhs = push(gf, h, i, a)
                rhs = push(g, h, i, push(f, hg, i, a))
                if lhs != rhs:
                    rb.add("pushforward-functorial", "(g o f)_* != g_* o f_*", f=f, g=g, h=h, i=i, **theory.witness(a=a))

    # pullback functoriality
    for f in site.morphisms:
        idt = site.identity(f.tgt)
        for i in degrees:
            if any(pull(f.name, idt, i, a) != a for a in gens(f.name, i)):
                rb.add("pullback-functorial", "pullback along identity is not the identity", f=f.name, i=i)
    for f in site.morphisms:
        for g in site.morphisms_into(f.tgt):
            sq = site.chosen_pullback(f.name, g)
            for h in site.morphisms_into(site.src(g)):
                paste = site.cospan_paste(f.name, g, h)
                move = aligned(paste, "pullback functoriality", [f.name], paste.direct.left, paste.to_pasted, f=f.name, g=g, h=h)
                if move is None:
                    continue
                gh = site.compose(g, h)
                for i in degrees:
                    for a in gens(f.name, i):
                        lhs = pull(f.name, gh, i, a)
                        rhs = move(pull(sq.left, h, i, pull(f.name, g, i, a)))
                        if lhs != rhs:
                            rb.add("pullback-functorial", "(g o h)^* != h^* o g^*", f=f.name, g=g, h=h, i=i, **theory.witness(a=a))

    # product and pushforward commute
    for f, g, h in site.composable_triples():
        if not theory.can_push(f):
            continue
        gf = site.compose(g, f)
        hg = site.compose(h, g)
        for i in degrees:
            for j in degrees:
                if not theory.allows(i + j):
                    continue
                for a in gens(gf, i):
                    for b in gens(h, j):
                        lhs = push(f, hg, i + j, product(gf, h, i, j, a, b))
                        rhs = product(g, h, i, j, push(f, g, i, a), b)
                        if lhs != rhs:
                            rb.add("product-pushforward", "f_*(a.b) != f_*a . b", f=f, g=g, h=h, i=i, j=j, **theory.witness(a=a, b=b))

    # product and pullback commute
    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for h in site.morphisms_into(site.tgt(g)):
            sq_g = site.chosen_pullback(g, h)
            sq_f = site.chosen_pullback(f, sq_g.top)
            paste = site.tower_paste(f, g, h)
            move = aligned(paste, "product-pullback", [f, g], paste.direct.left, paste.to_pasted, f=f, g=g, h=h)
            if move is None:
                continue
            for i in degrees:
                for j in degrees:
                    if not theory.allows(i + j):
                        continue
                    for a in gens(f, i):
                        for b in gens(g, j):
                            lhs = pull(gf, h, i + j, product(f, g, i, j, a, b))
                            rhs = move(product(sq_f.left, sq_g.left, i, j, pull(f, sq_g.top, i, a), pull(g, h, j, b)))
                            if lhs != rhs:
                                rb.add("product-pullback", "h^*(a.b) != h'^*a . h^*b", f=f, g=g, h=h, i=i, j=j, **theory.witness(a=a, b=b))

    # pushforward and pullback commute
    for f, g in site.composable_pairs():
        if not theory.can_push(f):
            continue
        gf = site.compose(g, f)
        for h in site.morphisms_into(site.tgt(g)):
            sq_g = site.chosen_pullback(g, h)
            sq_f = site.chosen_pullback(f, sq_g.top)
            paste = site.tower_paste(f, g, h)
            pasted_left = site.compose(paste.first.left, paste.second.left)
            move = aligned(paste, "pushforward-pullback", [gf], pasted_left, paste.to_direct, f=f, g=g, h=h)
            if move is None:
                continue
            for i in degrees:
                for a in gens(gf, i):
                    lhs = push(sq_f.left, sq_g.left, i, move(pull(gf, h, i, a)))
                    rhs = pull(g, h, i, push(f, g, i, a))
                    if lhs != rhs:
                        rb.add("pushforward-pullback", "f'_*(h^*a) != h^*(f_*a)", f=f, g=g, h=h, i=i, **theory.witness(a=a))

    # projection formula
    for f in site.morphisms:
        for g in site.morphisms_into(f.tgt):
            if not theory.can_push(g):
                continue
            sq = site.chosen_pullback(f.name, g)
            for h in site.morphisms_out_of(f.tgt):
                hg = site.compose(h, g)
                hf = site.compose(h, f.name)
                for i in degrees:
                    for j in degrees:
                        if not theory.allows(i + j):
                            continue
                        for a in gens(f.name, i):
                            ga = pull(f.name, g, i, a)
                            for b in gens(hg, j):
                                lhs = push(sq.top, hf, i + j, product(sq.left, hg, i, j, ga, b))
                                rhs = product(f.name, h, i, j, a, push(g, h, j, b))
                                if lhs != rhs:
                                    rb.add("projection-formula", "g'_*(g^*a . b) != a . g_*b", f=f.name, g=g, h=h, i=i, j=j, **theory.witness(a=a, b=b))

    # units
    for x in site.objects:
        u = theory.unit(x)
        idx = site.identity(x)
        for f in site.morphisms_into(x):
            for i in degrees:
                for a in gens(f, i):
                    if product(f, idx, i, 0, a, u) != a:
                        rb.add("units", "a . 1_X != a", obj=x, f=f, i=i, **theory.witness(a=a))
        for f in site.morphisms_out_of(x):
            for i in degrees:
                for b in gens(f, i):
                    if product(idx, f, 0, i, u, b) != b:
                        rb.add("units", "1_X . b != b", obj=x, f=f, i=i, **theory.witness(b=b))
        for g in site.morphisms_into(x):
            if pull(idx, g, 0, u) != theory.unit(site.src(g)):
                rb.add("units", "g^*1_X != 1_X'", obj=x, g=g)

    return rb.done()


# ---------------------------------------------------------------------------
# Grothendieck transformations


class GrothTransf:
    """Collection of homs B(f)^i -> B'(f)^i over a shared site."""

    def __init__(self, src: TabulatedBivTheory, tgt: TabulatedBivTheory, components):
        if src.site is not tgt.site:
            raise InvalidTransformationError("theories live on different sites")
        if src.window != tgt.window:
            raise InvalidTransformationError("theories have different degree windows")
        self.src = src
        self.tgt = tgt
        self.site = src.site
        self._components = dict(components)

    def component(self, f: str, i: int) -> GroupHom:
        stored = self._components.get((f, i))
        if stored is not None:
            return stored
        a, b = self.src.group(f, i), self.tgt.group(f, i)
        if a.is_trivial or b.is_trivial:
            return GroupHom.zero(a, b)
        raise MissingTableError(f"no component stored for ({f}, {i})")

    def __call__(self, f: str, i: int, a: GroupElement) -> GroupElement:
        return self.component(f, i)(a)


def validate_groth(t: GrothTransf) -> ValidationReport:
    rb = ReportBuilder()
    site = t.site
    degrees = list(t.src.degrees())
    for f in site.morphisms:
        for i in degrees:
            try:
                c = t.component(f.name, i)
            except MissingTableError:
                rb.add("missing-component", "no component stored", f=f.name, i=i)
                continue
            if c.src != t.src.group(f.name, i) or c.tgt != t.tgt.group(f.name, i):
                rb.add("component-typing", "component endpoints mismatch", f=f.name, i=i)
    if not rb.done().ok:
        return rb.done()

    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for i in degrees:
            for j in degrees:
                for a in t.src.gens(f, i):
                    for b in t.src.gens(g, j):
                        lhs = t(gf, i + j, t.src.product(f, g, i, j, a, b))
                        rhs = t.tgt.product(f, g, i, j, t(f, i, a), t(g, j, b))
                        if lhs != rhs:
                            rb.add("preserves-product", "gamma(a.b) != gamma(a).gamma(b)", f=f, g=g, i=i, j=j, a=a.coords, b=b.coords)
    for f, g in site.composable_pairs():
        if not site.is_confined(f):
            continue
        gf = site.compose(g, f)
        for i in degrees:
            for a in t.src.gens(gf, i):
                lhs = t(g, i, t.src.pushforward(f, g, i, a))
                rhs = t.tgt.pushforward(f, g, i, t(gf, i, a))
                if lhs != rhs:
                    rb.add("preserves-pushforward", "gamma(f_*a) != f_*gamma(a)", f=f, g=g, i=i, a=a.coords)
    for (f, g), sq in sorted(site._pullbacks.items()):
        for i in degrees:
            for a in t.src.gens(f, i):
                lhs = t(sq.left, i, t.src.pullback(f, g, i, a))
                rhs = t.tgt.pullback(f, g, i, t(f, i, a))
                if lhs != rhs:
                    rb.add("preserves-pullback", "gamma(g^*a) != g^*gamma(a)", f=f, g=g, i=i, a=a.coords)
    return rb.done()


def image_subtheory(t: GrothTransf) -> TabulatedBivTheory:
    """The groupwise image of a Grothendieck transformation, as a theory.

    Groups are Image(gamma: B(f) -> B'(f)) with operations restricted from
    the target theory; the unit over X is gamma(1_X).
    """
    rep = validate_groth(t)
    if not rep.ok:
        raise InvalidTransformationError(
            "not a Grothendieck transformation: " + "; ".join(rep.lines())
        )
    site = t.site
    degrees = list(t.src.degrees())

    subs = {}
    for f in site.morphisms:
        for i in degrees:
            subs[(f.name, i)] = image(t.component(f.name, i))

    def encode(key, elt: GroupElement) -> GroupElement:
        sub = subs[key]
        pre = hom_preimage(sub.inclusion, elt)
        if pre is None:
            raise InvalidTransformationError("image element has no preimage; image is not closed")
        return pre

    groups = {k: s.group for k, s in subs.items()}
    products = {}
    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for i in degrees:
            for j in degrees:
                ga = groups[(f, i)]
                gb = groups[(g, j)]
                tgt = groups[(gf, i + j)]
                if ga.is_trivial or gb.is_trivial or tgt.is_trivial:
                    continue
                table = []
                for a in ga.gens():
                    row = []
                    for b in gb.gens():
                        val = t.tgt.product(
                            f, g, i, j, subs[(f, i)].inclusion(a), subs[(g, j)].inclusion(b)
                        )
                        row.append(encode((gf, i + j), val).coords)
                    table.append(tuple(row))
                products[(f, g, i, j)] = tuple(table)
    pushforwards = {}
    for f, g in site.composable_pairs():
        if not site.is_confined(f):
            continue
        gf = site.compose(g, f)
        for i in degrees:
            src = groups[(gf, i)]
            tgt = groups[(g, i)]
            cols = [
                encode((g, i), t.tgt.pushforward(f, g, i, subs[(gf, i)].inclusion(a))).coords
                for a in src.gens()
            ]
            pushforwards[(f, g, i)] = GroupHom(src, tgt, IntMatrix.from_columns(cols, tgt.ngens))
    pullbacks = {}
    for (f, g), sq in sorted(site._pullbacks.items()):
        for i in degrees:
            src = groups[(f, i)]
            tgt = groups[(sq.left, i)]
            cols = [
                encode((sq.left, i), t.tgt.pullback(f, g, i, subs[(f, i)].inclusion(a))).coords
                for a in src.gens()
            ]
            pullbacks[(f, g, i)] = GroupHom(src, tgt, IntMatrix.from_columns(cols, tgt.ngens))
    units = {}
    for x in site.objects:
        idx = site.identity(x)
        units[x] = encode((idx, 0), t(idx, 0, t.src.unit(x)))

    return TabulatedBivTheory(site, t.src.window, groups, products, pushforwards, pullbacks, units)
