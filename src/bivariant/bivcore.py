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

import operator
from functools import cache, cached_property

from .exactalg import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    ZERO_GROUP,
    image,
    IntMatrix,
    is_surjective,
)
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, MissingFinalObjectError, Site, SiteStructureError


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
        for f, i in self._groups:
            if not site.has_morphism(f):
                raise SiteStructureError(f"theory group at the unknown morphism {f!r}", "groups", (f, i))
            if not lo <= i <= hi:
                raise SiteStructureError(f"theory group at degree {i} outside the window {self.window}", "groups", (f, i))
        self._products = {}
        for key, table in dict(products).items():
            self._products[key] = tuple(tuple(tuple(map(operator.index, cell)) for cell in row) for row in table)
        self._pushforwards = dict(pushforwards)
        self._pullbacks = dict(pullbacks)
        for kind, table in (("product", self._products), ("pushforward", self._pushforwards), ("pullback", self._pullbacks)):
            for key in table:
                for f in key[:2]:
                    if not site.has_morphism(f):
                        raise SiteStructureError(f"{kind} entry {key} names the unknown morphism {f!r}", f"{kind}s", key)
                if not all(lo <= d <= hi for d in key[2:]):
                    raise DegreeWindowError(f"{kind} entry {key} has a degree outside the window {self.window}")
                # a product or pushforward is read at a composable pair, a pullback at a cospan
                f, g = key[:2]
                if kind == "pullback":
                    if site.tgt(f) != site.tgt(g):
                        raise SiteStructureError(f"pullback entry {key} is not at a cospan", "pullbacks", key)
                elif site.tgt(f) != site.src(g):
                    raise SiteStructureError(f"{kind} entry {key} is not at a composable pair", f"{kind}s", key)
                if kind == "pushforward" and not site.is_confined(f):
                    raise SiteStructureError(f"pushforward entry {key} is along the non-confined morphism {f!r}", "pushforwards", key)
        self._units = {}
        for obj, u in dict(units).items():
            if not site.has_object(obj):
                raise SiteStructureError(f"unit at the unknown object {obj!r}", "units", obj)
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

    def value(self, e: GroupElement) -> tuple:
        """The canonical coordinates of e; its base and degree fix its group."""
        return e.coords

    # -- associated functors --------------------------------------------------

    @cached_property
    def covariant_part(self) -> GradedFunctor:
        """h_m(X) := B^{-m}(X -> pt), pushforwards along confined maps."""
        pt = self.site.final_object
        if pt is None:
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
                # bilinear extension must respect both relation lattices: a
                # relation of one factor times any generator of the other is 0
                sides = (("left", ga.relations, table), ("right", gb.relations, tuple(zip(*table))))
                for side, relations, cells in sides:
                    for rc, rel in enumerate(relations.columns()):
                        for generator, column in enumerate(zip(*cells)):
                            acc = [0] * tgtg.ngens
                            for cell, r in zip(column, rel):
                                if r:
                                    for t in range(tgtg.ngens):
                                        acc[t] += r * cell[t]
                            if not tgtg.element(acc).is_zero:
                                rb.add("product-well-defined", f"table does not respect {side} relations", f=f, g=g, i=i, j=j, relation=rc, generator=generator)
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


def _remembered(op, nvalues: int, value):
    """op, evaluated once per key while the returned callable lives.

    op's first nvalues arguments are structural: bases, degrees and other
    arguments that are not operands.  The rest are its operands: two after
    four structural arguments, as in a product, and one otherwise.  The key
    is the structural arguments followed by value(x) of each operand.
    value(x) must fix everything op reads from x, so a hit is what
    evaluating op again would return.  No operand is kept.

    The checkers call these memos in their innermost loops, so each key is
    built in one tuple display, with no slice of the operands and no map.
    """
    memo = {}
    get = memo.get
    if nvalues == 4:

        def call(f, g, i, j, a, b):
            key = (f, g, i, j, value(a), value(b))
            hit = get(key)
            if hit is None:
                hit = memo[key] = op(f, g, i, j, a, b)
            return hit

    else:

        def call(*args):
            key = (*args[:-1], value(args[-1]))
            hit = get(key)
            if hit is None:
                hit = memo[key] = op(*args)
            return hit

    return call


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
      - witness(**elements): extra witness fields naming the elements;
      - value(x): a hashable key of an operand x that, with the bases and
        degrees of an operation, fixes everything the operation reads from x.

    Each generator list is fetched once per run.  Each of the three
    operations is evaluated at most once per run for each key: its bases,
    degrees and morphisms, and the value of each operand.  Distinct operands
    of equal value share one evaluation, and the memo dies with the call.
    Every comparison still runs, in the same order, with the same
    witnesses; no linearity is assumed.
    """
    site = theory.site
    degrees = list(theory.degrees())
    rb = ReportBuilder()
    gens = cache(theory.gens)
    product = _remembered(theory.product, 4, theory.value)
    push = _remembered(theory.pushforward, 3, theory.value)
    pull = _remembered(theory.pullback, 3, theory.value)

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


def part_base(site: Site, x: str, variance: str) -> str:
    """The base morphism over which the part of that variance lives at x:
    X -> pt for the covariant part, id_X for the contravariant part."""
    return site.to_point(x) if variance == "cov" else site.identity(x)


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
        lo, hi = src.window
        for f, i in self._components:
            if not (lo <= i <= hi):
                raise InvalidTransformationError(f"component at degree {i} outside window")
            self._endpoints(f, i)
        self._surjectivity = {}  # variance -> surjectivity_witness(variance)

    def _endpoints(self, f: str, i: int):
        """(source, target) group of the component at (f, i)."""
        if not self.site.has_morphism(f):
            raise InvalidTransformationError(f"component at {f}, which is not a morphism of the site")
        return self.src.group(f, i), self.tgt.group(f, i)

    def component(self, f: str, i: int) -> GroupHom:
        stored = self._components.get((f, i))
        if stored is not None:
            return stored
        a, b = self._endpoints(f, i)
        if a.is_trivial or b.is_trivial:
            return GroupHom.zero(a, b)
        raise MissingTableError(f"no component stored for ({f}, {i})")

    def __call__(self, f: str, i: int, a: GroupElement) -> GroupElement:
        return self.component(f, i)(a)

    # A transformation, its theories and its site are never written after
    # construction, so its report and its surjectivity witnesses are computed
    # once and kept: at most one report and two witnesses, freed with it.

    @cached_property
    def report(self) -> ValidationReport:
        """validate_groth(self), computed on first use."""
        return validate_groth(self)

    def surjectivity_witness(self, variance: str):
        """An (object, degree) where self is not onto the part of the given
        variance, 'cov' or 'contra' (see part_base), or None; computed on the
        first call for each variance."""
        if variance not in ("cov", "contra"):
            raise ValueError("variance must be 'contra' or 'cov'")
        if variance not in self._surjectivity:
            self._surjectivity[variance] = next(self._not_onto(variance), None)
        return self._surjectivity[variance]

    def _not_onto(self, variance: str):
        for x in self.site.objects:
            f = part_base(self.site, x, variance)
            for i in self.src.degrees():
                if not is_surjective(self.component(f, i)):
                    yield (x, i)


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
    return verify_transformation(t.src, t.tgt, t, "preserves", "gamma")


def _everywhere(base: str) -> bool:
    return True


def verify_transformation(src, tgt, phi, prefix: str, name: str, defined=_everywhere) -> ValidationReport:
    """phi(a.b) = phi(a).phi(b), phi(f_*a) = f_*phi(a) and phi(g^*a) = g^*phi(a)
    on the generators of src.

    src and tgt are theories in the protocol of verify_axioms, and
    phi(f, i, a) maps an element of src over f in degree i to tgt: a
    Grothendieck transformation, or the op or coop comparison map.  Checks
    run only over bases where defined(base) holds; violations are of kinds
    prefix-product, prefix-pushforward and prefix-pullback.  phi is
    evaluated at most once per (base, degree, src.value of its argument) for
    the whole run, so once per generator and once per distinct product,
    pushforward and pullback; it is evaluated on those as they come, so no
    linearity of phi is assumed.
    """
    site = src.site
    rb = ReportBuilder()
    degrees = list(src.degrees())
    phi = _remembered(phi, 2, src.value)

    for f, g in site.composable_pairs():
        if not (defined(f) and defined(g)):
            continue
        gf = site.compose(g, f)
        for i in degrees:
            for j in degrees:
                for a in src.gens(f, i):
                    pa = phi(f, i, a)
                    for b in src.gens(g, j):
                        lhs = phi(gf, i + j, src.product(f, g, i, j, a, b))
                        rhs = tgt.product(f, g, i, j, pa, phi(g, j, b))
                        if lhs != rhs:
                            rb.add(f"{prefix}-product", f"{name}(a.b) != {name}(a).{name}(b)", f=f, g=g, i=i, j=j, a=a.coords, b=b.coords)
    for f, g in site.composable_pairs():
        if not (site.is_confined(f) and defined(g)):
            continue
        gf = site.compose(g, f)
        for i in degrees:
            for a in src.gens(gf, i):
                lhs = phi(g, i, src.pushforward(f, g, i, a))
                rhs = tgt.pushforward(f, g, i, phi(gf, i, a))
                if lhs != rhs:
                    rb.add(f"{prefix}-pushforward", f"{name}(f_*a) != f_*{name}(a)", f=f, g=g, i=i, a=a.coords)
    for (f, g), sq in sorted(site._pullbacks.items()):
        if not defined(f):
            continue
        for i in degrees:
            for a in src.gens(f, i):
                lhs = phi(sq.left, i, src.pullback(f, g, i, a))
                rhs = tgt.pullback(f, g, i, phi(f, i, a))
                if lhs != rhs:
                    rb.add(f"{prefix}-pullback", f"{name}(g^*a) != g^*{name}(a)", f=f, g=g, i=i, a=a.coords)
    return rb.done()


def image_subtheory(t: GrothTransf) -> TabulatedBivTheory:
    """The groupwise image of a Grothendieck transformation, as a theory.

    exactalg.image presents Im(gamma: B(f) -> B'(f)) on the generators of
    B(f), with the lattice that gamma sends to zero as its relations.  gamma
    commutes with products, pushforwards and pullbacks (t.report, computed
    once per transformation), so the image's tables are B's own, each entry
    reduced in its image group, and its unit over X is the class of 1_X.
    Each pushforward and pullback hom checks, as it is built, that B's map
    respects the image relations: that check is its well-definedness
    certificate.  A degree sum outside the window lands in the zero group.
    """
    if not t.report.ok:
        raise InvalidTransformationError(
            "not a Grothendieck transformation: " + "; ".join(t.report.lines())
        )
    src, site = t.src, t.site
    degrees = list(src.degrees())
    groups = {(f.name, i): image(t.component(f.name, i)).group for f in site.morphisms for i in degrees}

    def restricted(hom: GroupHom, a: FgAbGroup, b: FgAbGroup) -> GroupHom:
        """hom's matrix as a hom a -> b of image groups, columns reduced in b."""
        return GroupHom(a, b, IntMatrix.from_columns(map(b.reduce, hom.mat.columns()), b.ngens))

    products = {}
    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for i in degrees:
            for j in degrees:
                tgt = groups.get((gf, i + j), ZERO_GROUP)
                if groups[(f, i)].is_trivial or groups[(g, j)].is_trivial or tgt.is_trivial:
                    continue
                table = src._products[(f, g, i, j)]
                products[(f, g, i, j)] = tuple(tuple(map(tgt.reduce, row)) for row in table)
    pushforwards = {}
    for f, g in site.composable_pairs():
        if not site.is_confined(f):
            continue
        gf = site.compose(g, f)
        for i in degrees:
            hom = src.pushforward_hom(f, g, i)
            pushforwards[(f, g, i)] = restricted(hom, groups[(gf, i)], groups[(g, i)])
    pullbacks = {}
    for (f, g), sq in sorted(site._pullbacks.items()):
        for i in degrees:
            hom = src.pullback_hom(f, g, i)
            pullbacks[(f, g, i)] = restricted(hom, groups[(f, i)], groups[(sq.left, i)])
    units = {x: src.unit(x).coords for x in site.objects}
    return TabulatedBivTheory(site, src.window, groups, products, pushforwards, pullbacks, units)
