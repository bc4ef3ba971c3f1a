"""Bundled instances, the instance-file parser/serializer, and demo checks.

The canonical verification target is the subset lattice of a small finite
set: objects are subsets, morphisms inclusions, pullback is intersection,
and the tabulated theory assigns Z^S to every S -> T with pointwise
product, extension by zero and restriction.  Every operation there has a
closed pointwise form, which makes independent cross-checks cheap.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .exactalg import FgAbGroup, GroupHom, IntMatrix, WellDefinednessError
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, NaturalTransf, Site
from .bivcore import GrothTransf, TabulatedBivTheory, validate_axioms, validate_groth
from . import cooperational as coop
from . import operational as op


class InstanceFileError(ValueError):
    """Schema-level problem in an instance document (exit code 2)."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class InstanceViolationError(ValueError):
    """Mathematically ill-formed data in a schema-valid document (exit code 1)."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass
class InstanceBundle:
    site: Site
    functors: dict = field(default_factory=dict)
    transformations: dict = field(default_factory=dict)
    theories: dict = field(default_factory=dict)
    groth: dict = field(default_factory=dict)

    def validate(self) -> ValidationReport:
        rb = ReportBuilder()
        from .site import validate_site

        site_report = validate_site(self.site)
        rb.extend(site_report)
        for name in sorted(self.functors):
            for v in self.functors[name].validate().violations:
                rb.add(v.kind, f"functor {name}: {v.message}", **v.witness_dict())
        for name in sorted(self.transformations):
            for v in self.transformations[name].validate().violations:
                rb.add(v.kind, f"transformation {name}: {v.message}", **v.witness_dict())
        if not site_report.ok:
            # theories and Grothendieck maps paste chosen squares, which
            # needs a valid site
            return rb.done()
        for name in sorted(self.theories):
            for v in validate_axioms(self.theories[name]).violations:
                rb.add(v.kind, f"theory {name}: {v.message}", **v.witness_dict())
        for name in sorted(self.groth):
            for v in validate_groth(self.groth[name]).violations:
                rb.add(v.kind, f"groth {name}: {v.message}", **v.witness_dict())
        return rb.done()


# ---------------------------------------------------------------------------
# the subset-lattice instances


def _sname(s) -> str:
    return "".join(str(x) for x in sorted(s)) if s else "E"


def _mname(s, t) -> str:
    return f"{_sname(s)}>{_sname(t)}"


def subsets_site(n: int, confined: str = "all") -> Site:
    """Lattice of subsets of an n-element set; pullback is intersection."""
    universe = list(range(n))
    subsets = []
    for size in range(n + 1):
        for combo in itertools.combinations(universe, size):
            subsets.append(frozenset(combo))
    objects = [_sname(s) for s in subsets]
    by_name = {_sname(s): s for s in subsets}
    morphisms = []
    for s in subsets:
        for t in subsets:
            if s <= t:
                morphisms.append((_mname(s, t), _sname(s), _sname(t)))
    identities = {_sname(s): _mname(s, s) for s in subsets}
    composition = {}
    for name_f, src_f, tgt_f in morphisms:
        for name_g, src_g, tgt_g in morphisms:
            if tgt_f == src_g:
                composition[(name_g, name_f)] = _mname(by_name[src_f], by_name[tgt_g])
    if confined == "all":
        confined_set = {m[0] for m in morphisms}
    elif confined == "identities":
        confined_set = set(identities.values())
    else:
        raise ValueError("confined must be 'all' or 'identities'")
    pullbacks = {}
    for name_f, src_f, tgt_f in morphisms:
        for name_g, src_g, tgt_g in morphisms:
            if tgt_f != tgt_g:
                continue
            apex = by_name[src_f] & by_name[src_g]
            pullbacks[(name_f, name_g)] = (
                _sname(apex),
                _mname(apex, by_name[src_f]),
                _mname(apex, by_name[src_g]),
            )
    return Site(
        objects,
        morphisms,
        identities,
        composition,
        confined_set,
        pullbacks,
        final_object=_sname(frozenset(universe)),
    )


def _members(site_obj_name: str):
    return [] if site_obj_name == "E" else [int(c) for c in site_obj_name]


def _coeff_group(size: int, modulus: int | None) -> FgAbGroup:
    if modulus is None:
        return FgAbGroup.free(size)
    return FgAbGroup.from_invariants(0, (modulus,) * size)


def _restriction_matrix(sub, sup) -> IntMatrix:
    """Z^sup -> Z^sub, e_x kept when x is in sub."""
    return IntMatrix(
        len(sub), len(sup), tuple(tuple(1 if x == y else 0 for y in sup) for x in sub)
    )


def _extension_matrix(sub, sup) -> IntMatrix:
    """Z^sub -> Z^sup, extension by zero."""
    return IntMatrix(
        len(sup), len(sub), tuple(tuple(1 if x == y else 0 for y in sub) for x in sup)
    )


def subsets_presheaf(site: Site, modulus: int | None = None) -> GradedFunctor:
    """F(S) = coeff^S in grade 0 with restriction of functions."""
    groups = {obj: _coeff_group(len(_members(obj)), modulus) for obj in site.objects}
    maps = {}
    for m in site.morphisms:
        sub, sup = _members(m.src), _members(m.tgt)
        maps[(m.name, 0)] = GroupHom(
            groups[m.tgt], groups[m.src], _restriction_matrix(sub, sup)
        )
    return GradedFunctor(site, "contra", (0, 0), {(o, 0): g for o, g in groups.items()}, maps)


def subsets_homology(site: Site, modulus: int | None = None) -> GradedFunctor:
    """h(S) = coeff^S in grade 0 with extension by zero along confined maps."""
    groups = {obj: _coeff_group(len(_members(obj)), modulus) for obj in site.objects}
    maps = {}
    for m in site.morphisms:
        if not site.is_confined(m.name):
            continue
        sub, sup = _members(m.src), _members(m.tgt)
        maps[(m.name, 0)] = GroupHom(
            groups[m.src], groups[m.tgt], _extension_matrix(sub, sup)
        )
    return GradedFunctor(site, "cov", (0, 0), {(o, 0): g for o, g in groups.items()}, maps)


def subsets_theory(site: Site, modulus: int | None = None) -> TabulatedBivTheory:
    """B(S -> T) = coeff^S: pointwise product, extension by zero, restriction."""
    obj_group = {obj: _coeff_group(len(_members(obj)), modulus) for obj in site.objects}
    groups = {}
    for m in site.morphisms:
        groups[(m.name, 0)] = obj_group[m.src]
    products = {}
    for fname, gname in site.composable_pairs():
        s = _members(site.src(fname))
        t = _members(site.src(gname))
        tgt = obj_group[site.src(fname)]
        table = []
        for x in s:
            row = []
            for y in t:
                row.append(tuple(1 if (x == y and z == x) else 0 for z in s))
            table.append(tuple(row))
        products[(fname, gname, 0, 0)] = tuple(table)
    pushforwards = {}
    for fname, gname in site.composable_pairs():
        if not site.is_confined(fname):
            continue
        sub = _members(site.src(fname))
        sup = _members(site.tgt(fname))
        pushforwards[(fname, gname, 0)] = GroupHom(
            obj_group[site.src(fname)],
            obj_group[site.tgt(fname)],
            _extension_matrix(sub, sup),
        )
    pullbacks = {}
    for (fname, gname), sq in sorted(site._pullbacks.items()):
        src = _members(site.src(fname))
        apex = _members(sq.apex)
        pullbacks[(fname, gname, 0)] = GroupHom(
            obj_group[site.src(fname)], obj_group[sq.apex], _restriction_matrix(apex, src)
        )
    units = {}
    for obj in site.objects:
        units[obj] = obj_group[obj].element((1,) * obj_group[obj].ngens)
    return TabulatedBivTheory(site, (0, 0), groups, products, pushforwards, pullbacks, units)


def reduction_transformation(src: GradedFunctor, tgt: GradedFunctor) -> NaturalTransf:
    """Coordinatewise reduction between equal-rank coefficient functors."""
    comps = {}
    for obj in src.site.objects:
        for m in src.grades():
            a, b = src.group(obj, m), tgt.group(obj, m)
            comps[(obj, m)] = GroupHom(a, b, IntMatrix.identity(a.ngens))
    return NaturalTransf(src, tgt, comps)


def reduction_groth(src: TabulatedBivTheory, tgt: TabulatedBivTheory) -> GrothTransf:
    comps = {}
    for m in src.site.morphisms:
        for i in src.degrees():
            a, b = src.group(m.name, i), tgt.group(m.name, i)
            comps[(m.name, i)] = GroupHom(a, b, IntMatrix.identity(a.ngens))
    return GrothTransf(src, tgt, comps)


def build_subsets_instance(n: int) -> InstanceBundle:
    """The full bundle over subsets of {0..n-1}; n <= 3 keeps it desk-scale."""
    if not 1 <= n <= 3:
        raise ValueError("n must be 1, 2 or 3")
    site = subsets_site(n)
    f = subsets_presheaf(site)
    f2 = subsets_presheaf(site, modulus=2)
    h = subsets_homology(site)
    h2 = subsets_homology(site, modulus=2)
    b = subsets_theory(site)
    b2 = subsets_theory(site, modulus=2)
    return InstanceBundle(
        site,
        functors={"F": f, "F2": f2, "h": h, "h2": h2},
        transformations={"T": reduction_transformation(f, f2)},
        theories={"B": b, "B2": b2},
        groth={"gamma": reduction_groth(b, b2)},
    )


def build_graded_instance(k: int, top_power: int = 2) -> InstanceBundle:
    """Even-grade functor on the one-element subset lattice with the grade-2r
    scaling family: the component in grade 2r is multiplication by k^r."""
    if k < 1:
        raise ValueError("k must be positive")
    site = subsets_site(1)
    window = (0, 2 * top_power)
    groups = {}
    maps = {}
    even = [2 * r for r in range(top_power + 1)]
    obj_group = {obj: _coeff_group(len(_members(obj)), None) for obj in site.objects}
    for obj in site.objects:
        for m in even:
            groups[(obj, m)] = obj_group[obj]
    for mor in site.morphisms:
        sub, sup = _members(mor.src), _members(mor.tgt)
        for m in even:
            maps[(mor.name, m)] = GroupHom(
                obj_group[mor.tgt], obj_group[mor.src], _restriction_matrix(sub, sup)
            )
    functor = GradedFunctor(site, "contra", window, groups, maps)
    comps = {}
    for obj in site.objects:
        for r in range(top_power + 1):
            g = obj_group[obj]
            comps[(obj, 2 * r)] = GroupHom(g, g, IntMatrix.identity(g.ngens).scaled(k**r))
    psi = NaturalTransf(functor, functor, comps)
    return InstanceBundle(site, functors={"Heven": functor}, transformations={"psi": psi})


def family_from_self_transformation(t: NaturalTransf, obj: str) -> coop.CoopClass:
    """A natural self-transformation, read as a class over id_obj of degree 0."""
    if t.src is not t.tgt:
        raise ValueError("need a self-transformation")
    site = t.site
    comps = {}
    for g in site.morphisms_into(obj):
        for m in t.src.grades():
            comps[(g, m)] = t.component(site.src(g), m)
    return coop.CoopClass(t.src, site.identity(obj), 0, comps)


# ---------------------------------------------------------------------------
# instance files (JSON-compatible, explicit tables, no inference)


def _expect(cond, location, message):
    if not cond:
        raise InstanceFileError(location, message)


def _as_group(spec, location) -> FgAbGroup:
    _expect(isinstance(spec, dict), location, "expected a group object")
    _expect("free_rank" in spec, location, "missing free_rank")
    fr = spec["free_rank"]
    tor = spec.get("torsion", [])
    _expect(isinstance(fr, int) and fr >= 0, location, "free_rank must be a non-negative integer")
    _expect(isinstance(tor, list) and all(isinstance(d, int) and d >= 2 for d in tor), location, "torsion must be a list of integers >= 2")
    return FgAbGroup.from_invariants(fr, tuple(tor))


def _as_matrix(rows, location, nrows, ncols) -> IntMatrix:
    _expect(isinstance(rows, list), location, "expected a matrix (list of rows)")
    _expect(len(rows) == nrows, location, f"expected {nrows} rows, got {len(rows)}")
    for r, row in enumerate(rows):
        _expect(isinstance(row, list), f"{location}[{r}]", "expected a list")
        _expect(len(row) == ncols, f"{location}[{r}]", f"expected {ncols} entries, got {len(row)}")
        for x in row:
            _expect(isinstance(x, int), f"{location}[{r}]", "entries must be integers")
    return IntMatrix(nrows, ncols, tuple(tuple(row) for row in rows))


def _as_hom(rows, location, src: FgAbGroup, tgt: FgAbGroup) -> GroupHom:
    mat = _as_matrix(rows, location, tgt.ngens, src.ngens)
    try:
        return GroupHom(src, tgt, mat)
    except WellDefinednessError as exc:
        raise InstanceViolationError(location, str(exc)) from exc


def _split_key(key, location):
    _expect(isinstance(key, str) and "@" in key, location, "expected 'name@grade'")
    name, _, grade = key.rpartition("@")
    try:
        return name, int(grade)
    except ValueError:
        raise InstanceFileError(location, f"grade {grade!r} is not an integer")


def parse_instance(doc) -> InstanceBundle:
    """Build a bundle from a parsed JSON document, with located diagnostics."""
    _expect(isinstance(doc, dict), "$", "document must be a JSON object")
    for key in ("objects", "morphisms", "identities", "composition", "confined", "pullbacks"):
        _expect(key in doc, "$", f"missing section {key!r}")

    objects = doc["objects"]
    _expect(isinstance(objects, list) and all(isinstance(o, str) for o in objects), "objects", "expected a list of names")
    morphisms = []
    _expect(isinstance(doc["morphisms"], list), "morphisms", "expected a list")
    for idx, m in enumerate(doc["morphisms"]):
        loc = f"morphisms[{idx}]"
        _expect(isinstance(m, dict), loc, "expected an object")
        for fld in ("name", "src", "tgt"):
            _expect(isinstance(m.get(fld), str), loc, f"missing field {fld!r}")
        _expect(m["src"] in objects, f"{loc}.src", f"unknown object {m['src']!r}")
        _expect(m["tgt"] in objects, f"{loc}.tgt", f"unknown object {m['tgt']!r}")
        morphisms.append((m["name"], m["src"], m["tgt"]))
    names = {m[0] for m in morphisms}

    identities = doc["identities"]
    _expect(isinstance(identities, dict), "identities", "expected an object")
    for obj, mor in identities.items():
        _expect(obj in objects, f"identities.{obj}", "unknown object")
        _expect(mor in names, f"identities.{obj}", f"unknown morphism {mor!r}")

    composition = {}
    _expect(isinstance(doc["composition"], list), "composition", "expected a list")
    for idx, entry in enumerate(doc["composition"]):
        loc = f"composition[{idx}]"
        _expect(isinstance(entry, dict), loc, "expected an object")
        for fld in ("first", "then", "equals"):
            _expect(entry.get(fld) in names, loc, f"field {fld!r} must name a morphism")
        composition[(entry["then"], entry["first"])] = entry["equals"]

    confined = doc["confined"]
    _expect(isinstance(confined, list) and all(c in names for c in confined), "confined", "expected a list of morphism names")

    pullbacks = {}
    _expect(isinstance(doc["pullbacks"], list), "pullbacks", "expected a list")
    for idx, entry in enumerate(doc["pullbacks"]):
        loc = f"pullbacks[{idx}]"
        _expect(isinstance(entry, dict), loc, "expected an object")
        for fld in ("f", "g", "top", "left"):
            _expect(entry.get(fld) in names, loc, f"field {fld!r} must name a morphism")
        _expect(entry.get("apex") in objects, loc, "field 'apex' must name an object")
        pullbacks[(entry["f"], entry["g"])] = (entry["apex"], entry["top"], entry["left"])

    final_object = doc.get("final_object")
    if final_object is not None:
        _expect(final_object in objects, "final_object", "unknown object")

    try:
        site = Site(objects, morphisms, identities, composition, confined, pullbacks, final_object)
    except Exception as exc:
        raise InstanceFileError("site", str(exc)) from exc

    bundle = InstanceBundle(site)

    for fname, fdoc in sorted(doc.get("functors", {}).items()):
        loc = f"functors.{fname}"
        _expect(isinstance(fdoc, dict), loc, "expected an object")
        variance = fdoc.get("variance")
        _expect(variance in ("contra", "cov"), f"{loc}.variance", "must be 'contra' or 'cov'")
        window = fdoc.get("window")
        _expect(
            isinstance(window, list) and len(window) == 2 and all(isinstance(w, int) for w in window),
            f"{loc}.window",
            "expected [lo, hi]",
        )
        groups = {}
        for key, spec in fdoc.get("groups", {}).items():
            kloc = f"{loc}.groups.{key}"
            obj, grade = _split_key(key, kloc)
            _expect(obj in objects, kloc, f"unknown object {obj!r}")
            groups[(obj, grade)] = _as_group(spec, kloc)
        functor = GradedFunctor(site, variance, tuple(window), groups, {})
        maps = {}
        for key, rows in fdoc.get("maps", {}).items():
            kloc = f"{loc}.maps.{key}"
            mor, grade = _split_key(key, kloc)
            _expect(mor in names, kloc, f"unknown morphism {mor!r}")
            if variance == "contra":
                src = functor.group(site.tgt(mor), grade)
                tgt = functor.group(site.src(mor), grade)
            else:
                src = functor.group(site.src(mor), grade)
                tgt = functor.group(site.tgt(mor), grade)
            maps[(mor, grade)] = _as_hom(rows, kloc, src, tgt)
        bundle.functors[fname] = GradedFunctor(site, variance, tuple(window), groups, maps)

    for tname, tdoc in sorted(doc.get("transformations", {}).items()):
        loc = f"transformations.{tname}"
        _expect(isinstance(tdoc, dict), loc, "expected an object")
        _expect(tdoc.get("src") in bundle.functors, f"{loc}.src", "unknown functor")
        _expect(tdoc.get("tgt") in bundle.functors, f"{loc}.tgt", "unknown functor")
        fsrc = bundle.functors[tdoc["src"]]
        ftgt = bundle.functors[tdoc["tgt"]]
        comps = {}
        for key, rows in tdoc.get("components", {}).items():
            kloc = f"{loc}.components.{key}"
            obj, grade = _split_key(key, kloc)
            _expect(obj in objects, kloc, f"unknown object {obj!r}")
            comps[(obj, grade)] = _as_hom(rows, kloc, fsrc.group(obj, grade), ftgt.group(obj, grade))
        try:
            bundle.transformations[tname] = NaturalTransf(fsrc, ftgt, comps)
        except Exception as exc:
            raise InstanceFileError(loc, str(exc)) from exc

    for bname, bdoc in sorted(doc.get("theories", {}).items()):
        loc = f"theories.{bname}"
        _expect(isinstance(bdoc, dict), loc, "expected an object")
        window = bdoc.get("window")
        _expect(
            isinstance(window, list) and len(window) == 2 and all(isinstance(w, int) for w in window),
            f"{loc}.window",
            "expected [lo, hi]",
        )
        groups = {}
        for key, spec in bdoc.get("groups", {}).items():
            kloc = f"{loc}.groups.{key}"
            mor, deg = _split_key(key, kloc)
            _expect(mor in names, kloc, f"unknown morphism {mor!r}")
            groups[(mor, deg)] = _as_group(spec, kloc)

        def grp(mor, deg):
            lo, hi = window
            if not (lo <= deg <= hi):
                return FgAbGroup.zero()
            return groups.get((mor, deg), FgAbGroup.zero())

        products = {}
        for idx, entry in enumerate(bdoc.get("products", [])):
            ploc = f"{loc}.products[{idx}]"
            _expect(isinstance(entry, dict), ploc, "expected an object")
            for fld in ("f", "g"):
                _expect(entry.get(fld) in names, ploc, f"field {fld!r} must name a morphism")
            for fld in ("i", "j"):
                _expect(isinstance(entry.get(fld), int), ploc, f"field {fld!r} must be an integer")
            f_, g_, i_, j_ = entry["f"], entry["g"], entry["i"], entry["j"]
            ga, gb = grp(f_, i_), grp(g_, j_)
            try:
                gf = site.compose(g_, f_)
            except Exception as exc:
                raise InstanceFileError(ploc, str(exc)) from exc
            gt = grp(gf, i_ + j_)
            table = entry.get("table")
            _expect(isinstance(table, list) and len(table) == ga.ngens, f"{ploc}.table", f"expected {ga.ngens} rows")
            parsed = []
            for r, row in enumerate(table):
                _expect(isinstance(row, list) and len(row) == gb.ngens, f"{ploc}.table[{r}]", f"expected {gb.ngens} cells")
                prow = []
                for cidx, cell in enumerate(row):
                    _expect(
                        isinstance(cell, list) and len(cell) == gt.ngens and all(isinstance(x, int) for x in cell),
                        f"{ploc}.table[{r}][{cidx}]",
                        f"expected {gt.ngens} integer coordinates",
                    )
                    prow.append(tuple(cell))
                parsed.append(tuple(prow))
            products[(f_, g_, i_, j_)] = tuple(parsed)

        pushforwards = {}
        for idx, entry in enumerate(bdoc.get("pushforwards", [])):
            ploc = f"{loc}.pushforwards[{idx}]"
            _expect(isinstance(entry, dict), ploc, "expected an object")
            for fld in ("f", "g"):
                _expect(entry.get(fld) in names, ploc, f"field {fld!r} must name a morphism")
            _expect(isinstance(entry.get("i"), int), ploc, "field 'i' must be an integer")
            f_, g_, i_ = entry["f"], entry["g"], entry["i"]
            try:
                gf = site.compose(g_, f_)
            except Exception as exc:
                raise InstanceFileError(ploc, str(exc)) from exc
            pushforwards[(f_, g_, i_)] = _as_hom(entry.get("matrix"), f"{ploc}.matrix", grp(gf, i_), grp(g_, i_))

        pullbacks_t = {}
        for idx, entry in enumerate(bdoc.get("pullbacks", [])):
            ploc = f"{loc}.pullbacks[{idx}]"
            _expect(isinstance(entry, dict), ploc, "expected an object")
            for fld in ("f", "g"):
                _expect(entry.get(fld) in names, ploc, f"field {fld!r} must name a morphism")
            _expect(isinstance(entry.get("i"), int), ploc, "field 'i' must be an integer")
            f_, g_, i_ = entry["f"], entry["g"], entry["i"]
            try:
                sq = site.chosen_pullback(f_, g_)
            except Exception as exc:
                raise InstanceFileError(ploc, str(exc)) from exc
            pullbacks_t[(f_, g_, i_)] = _as_hom(entry.get("matrix"), f"{ploc}.matrix", grp(f_, i_), grp(sq.left, i_))

        units = {}
        for obj, coords in bdoc.get("units", {}).items():
            uloc = f"{loc}.units.{obj}"
            _expect(obj in objects, uloc, "unknown object")
            g0 = grp(site.identity(obj), 0)
            _expect(
                isinstance(coords, list) and len(coords) == g0.ngens and all(isinstance(x, int) for x in coords),
                uloc,
                f"expected {g0.ngens} integer coordinates",
            )
            units[obj] = g0.element(coords)
        bundle.theories[bname] = TabulatedBivTheory(
            site, tuple(window), groups, products, pushforwards, pullbacks_t, units
        )

    for gname, gdoc in sorted(doc.get("groth", {}).items()):
        loc = f"groth.{gname}"
        _expect(isinstance(gdoc, dict), loc, "expected an object")
        _expect(gdoc.get("src") in bundle.theories, f"{loc}.src", "unknown theory")
        _expect(gdoc.get("tgt") in bundle.theories, f"{loc}.tgt", "unknown theory")
        bsrc = bundle.theories[gdoc["src"]]
        btgt = bundle.theories[gdoc["tgt"]]
        comps = {}
        for key, rows in gdoc.get("components", {}).items():
            kloc = f"{loc}.components.{key}"
            mor, deg = _split_key(key, kloc)
            _expect(mor in names, kloc, f"unknown morphism {mor!r}")
            comps[(mor, deg)] = _as_hom(rows, kloc, bsrc.group(mor, deg), btgt.group(mor, deg))
        try:
            bundle.groth[gname] = GrothTransf(bsrc, btgt, comps)
        except Exception as exc:
            raise InstanceFileError(loc, str(exc)) from exc

    return bundle


def load_instance(path: str) -> InstanceBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceFileError(path, f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    return parse_instance(doc)


def _group_json(g: FgAbGroup, location="group") -> dict:
    expected = FgAbGroup.from_invariants(g.free_rank, g.torsion)
    if g.ngens != expected.ngens or g.relations != expected.relations:
        raise ValueError(f"{location}: only canonical presentations serialize")
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def bundle_to_json(bundle: InstanceBundle) -> dict:
    site = bundle.site
    doc = {
        "objects": list(site.objects),
        "morphisms": [{"name": m.name, "src": m.src, "tgt": m.tgt} for m in site.morphisms],
        "identities": {x: site.identity(x) for x in site.objects},
        "composition": [
            {"first": f, "then": g, "equals": h}
            for (g, f), h in sorted(site._comp.items())
        ],
        "confined": sorted(site.confined),
        "pullbacks": [
            {"f": f, "g": g, "apex": sq.apex, "top": sq.top, "left": sq.left}
            for (f, g), sq in sorted(site._pullbacks.items())
        ],
    }
    if site.final_object is not None:
        doc["final_object"] = site.final_object
    if bundle.functors:
        doc["functors"] = {}
        for name, functor in sorted(bundle.functors.items()):
            groups = {}
            maps = {}
            relevant = [
                m.name
                for m in site.morphisms
                if functor.variance == "contra" or site.is_confined(m.name)
            ]
            for obj in site.objects:
                for m in functor.grades():
                    g = functor.group(obj, m)
                    if not g.is_trivial:
                        groups[f"{obj}@{m}"] = _group_json(g)
            for mor in relevant:
                for m in functor.grades():
                    h = functor.map(mor, m)
                    if h.src.is_trivial or h.tgt.is_trivial:
                        continue
                    maps[f"{mor}@{m}"] = [list(r) for r in h.mat.entries]
            doc["functors"][name] = {
                "variance": functor.variance,
                "window": list(functor.window),
                "groups": groups,
                "maps": maps,
            }
    if bundle.transformations:
        doc["transformations"] = {}
        for name, transf in sorted(bundle.transformations.items()):
            src_name = next(k for k, v in bundle.functors.items() if v is transf.src)
            tgt_name = next(k for k, v in bundle.functors.items() if v is transf.tgt)
            comps = {}
            for obj in site.objects:
                for m in transf.src.grades():
                    c = transf.component(obj, m)
                    if c.src.is_trivial and c.tgt.is_trivial:
                        continue
                    comps[f"{obj}@{m}"] = [list(r) for r in c.mat.entries]
            doc["transformations"][name] = {"src": src_name, "tgt": tgt_name, "components": comps}
    if bundle.theories:
        doc["theories"] = {}
        for name, theory in sorted(bundle.theories.items()):
            groups = {}
            for m in site.morphisms:
                for i in theory.degrees():
                    g = theory.group(m.name, i)
                    if not g.is_trivial:
                        groups[f"{m.name}@{i}"] = _group_json(g)
            products = []
            for (f, g, i, j), table in sorted(theory._products.items()):
                products.append(
                    {
                        "f": f,
                        "g": g,
                        "i": i,
                        "j": j,
                        "table": [[list(cell) for cell in row] for row in table],
                    }
                )
            pushforwards = [
                {"f": f, "g": g, "i": i, "matrix": [list(r) for r in h.mat.entries]}
                for (f, g, i), h in sorted(theory._pushforwards.items())
            ]
            pullbacks = [
                {"f": f, "g": g, "i": i, "matrix": [list(r) for r in h.mat.entries]}
                for (f, g, i), h in sorted(theory._pullbacks.items())
            ]
            units = {x: list(theory.unit(x).coords) for x in site.objects}
            doc["theories"][name] = {
                "window": list(theory.window),
                "groups": groups,
                "products": products,
                "pushforwards": pushforwards,
                "pullbacks": pullbacks,
                "units": units,
            }
    if bundle.groth:
        doc["groth"] = {}
        for name, t in sorted(bundle.groth.items()):
            src_name = next(k for k, v in bundle.theories.items() if v is t.src)
            tgt_name = next(k for k, v in bundle.theories.items() if v is t.tgt)
            comps = {}
            for m in site.morphisms:
                for i in t.src.degrees():
                    c = t.component(m.name, i)
                    if c.src.is_trivial and c.tgt.is_trivial:
                        continue
                    comps[f"{m.name}@{i}"] = [list(r) for r in c.mat.entries]
            doc["groth"][name] = {"src": src_name, "tgt": tgt_name, "components": comps}
    return doc


def bundles_equal(a: InstanceBundle, b: InstanceBundle) -> bool:
    """Semantic equality used by the parser round-trip check."""
    sa, sb = a.site, b.site
    if (
        sa.objects != sb.objects
        or sa.morphisms != sb.morphisms
        or sa._identity != sb._identity
        or sa._comp != sb._comp
        or sa.confined != sb.confined
        or sa._pullbacks != sb._pullbacks
        or sa.final_object != sb.final_object
    ):
        return False
    if set(a.functors) != set(b.functors):
        return False
    for name in a.functors:
        fa, fb = a.functors[name], b.functors[name]
        if fa.variance != fb.variance or fa.window != fb.window:
            return False
        for obj in sa.objects:
            for m in fa.grades():
                if fa.group(obj, m).canonical() != fb.group(obj, m).canonical():
                    return False
        for mor in sa.morphisms:
            if fa.variance == "cov" and not sa.is_confined(mor.name):
                continue
            for m in fa.grades():
                if not fa.map(mor.name, m).equals(fb.map(mor.name, m)):
                    return False
    if set(a.theories) != set(b.theories):
        return False
    for name in a.theories:
        ta, tb = a.theories[name], b.theories[name]
        if ta.window != tb.window:
            return False
        for mor in sa.morphisms:
            for i in ta.degrees():
                if ta.group(mor.name, i).canonical() != tb.group(mor.name, i).canonical():
                    return False
        for x in sa.objects:
            if ta.unit(x) != tb.unit(x):
                return False
        for key in set(ta._products) | set(tb._products):
            f, g, i, j = key
            ga = ta.group(f, i)
            gb = ta.group(g, j)
            for aa in ga.gens():
                for bb in gb.gens():
                    if ta.product(f, g, i, j, aa, bb) != tb.product(f, g, i, j, aa, bb):
                        return False
        for key in set(ta._pushforwards) | set(tb._pushforwards):
            if not ta.pushforward_hom(*key).equals(tb.pushforward_hom(*key)):
                return False
        for key in set(ta._pullbacks) | set(tb._pullbacks):
            if not ta.pullback_hom(*key).equals(tb.pullback_hom(*key)):
                return False
    if set(a.transformations) != set(b.transformations) or set(a.groth) != set(b.groth):
        return False
    for name in a.transformations:
        ta, tb = a.transformations[name], b.transformations[name]
        for obj in sa.objects:
            for m in ta.src.grades():
                if not ta.component(obj, m).equals(tb.component(obj, m)):
                    return False
    for name in a.groth:
        ta, tb = a.groth[name], b.groth[name]
        for mor in sa.morphisms:
            for i in ta.src.degrees():
                if not ta.component(mor.name, i).equals(tb.component(mor.name, i)):
                    return False
    return True


# ---------------------------------------------------------------------------
# the bundled demo suite


def demo_checks(n: int):
    """Ordered named checks over the subset-lattice bundle; yields (name, report)."""
    from .site import validate_site

    bundle = build_subsets_instance(n)
    site = bundle.site
    b = bundle.theories["B"]
    b2 = bundle.theories["B2"]
    gamma = bundle.groth["gamma"]
    f = bundle.functors["F"]
    h = bundle.functors["h"]
    transf = bundle.transformations["T"]

    yield "site validation", validate_site(site)
    yield "tabulated axioms (7 axioms + Units) [B]", validate_axioms(b)
    yield "tabulated axioms (7 axioms + Units) [B2]", validate_axioms(b2)
    yield "Grothendieck transformation [gamma]", validate_groth(gamma)
    from .bivcore import image_subtheory

    yield "image subtheory axioms [Im gamma]", validate_axioms(image_subtheory(gamma))

    rb = ReportBuilder()
    for mor in site.morphisms:
        result = coop.coop_group(f, mor.name, 0)
        for cls in result.decoded_gens():
            rb.extend(cls.compatibility_report())
            result.encode(cls)
    yield "co-operational groups decode/encode", rb.done()

    yield "co-operational axioms (7 axioms + Units)", coop.verify_coop_axioms(f)
    yield "coop comparison identities", coop.verify_coop_transform_identities(b)
    yield "identity isomorphism", coop.verify_identity_isomorphism(b)

    rb = ReportBuilder()
    for mor in site.morphisms:
        result = op.op_group(h, mor.name, 0)
        for cls in result.decoded_gens():
            rb.extend(cls.compatibility_report())
            result.encode(cls)
    yield "operational groups decode/encode", rb.done()

    yield "operational axioms (7 axioms + Units)", op.verify_op_axioms(h)
    yield "op comparison identities", op.verify_op_transform_identities(b)
    yield "point isomorphism", op.verify_point_isomorphism(b)

    rb = ReportBuilder()
    if op.covariant_surjectivity_witness(gamma) is not None:
        rb.add("transfer", "reduction is not covariant-surjective")
    if coop.contravariant_surjectivity_witness(gamma) is not None:
        rb.add("transfer", "reduction is not contravariant-surjective")
    for mor in site.morphisms:
        op.op_image_transfer(gamma, mor.name, 0, mode="full")
        coop.coop_image_transfer(gamma, mor.name, 0, mode="full")
    yield "image transfers along gamma", rb.done()

    rb = ReportBuilder()
    for mor in site.morphisms:
        tsr = coop.transfer_subgroup(transf, mor.name, 0)
        for x in tsr.subgroup.group.gens():
            cls = tsr.source_result.decode(tsr.subgroup.inclusion(x))
            sols = tsr.companions(cls)
            if sols.particular is None:
                rb.add("transfer-subgroup", "member has no companion", morphism=mor.name)
            elif not sols.is_unique:
                rb.add("transfer-subgroup", "companion not unique under surjective T", morphism=mor.name)
        rb.extend(coop.naturality_cube_report(tsr))
    yield "transfer subgroup and companions", rb.done()

    rb = ReportBuilder()
    top = site.final_object
    ring_one = b.unit(top)
    try:
        cls = coop.cup_class(b, top, 0, ring_one)
        if cls != coop.coop_unit(cls.functor, top):
            rb.add("cup", "cup with the ring unit is not the identity family")
    except coop.RingStructureError as exc:
        rb.add("cup", str(exc))
    fam = coop.power_family(b, top, 2)
    rb.extend(coop.power_naturality_report(fam))
    if coop.non_additivity_witness(fam) is None:
        rb.add("power", "square family unexpectedly additive")
    rb.extend(coop.cup_transform_compatibility(gamma, top, 0))
    yield "cup classes and power family", rb.done()


def run_demo(n: int):
    """Run all demo checks; returns (lines, ok)."""
    lines = []
    ok = True
    for name, report in demo_checks(n):
        status = "PASS" if report.ok else "FAIL"
        lines.append(f"{name}: {status}")
        if not report.ok:
            ok = False
            lines.extend("  " + l for l in report.lines())
    lines.append("RESULT: " + ("all checks passed" if ok else "violations found"))
    return lines, ok
