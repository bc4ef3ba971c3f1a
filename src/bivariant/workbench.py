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
import re

from .exactalg import FgAbGroup, GroupHom, IntMatrix, WellDefinednessError
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, MissingMapError, NaturalTransf, Site, SiteStructureError, validate_site
from .bivcore import (
    GrothTransf,
    MissingTableError,
    TabulatedBivTheory,
    image_subtheory,
    validate_axioms,
    validate_groth,
)
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


class InstanceBundle:
    def __init__(
        self,
        site: Site,
        functors: dict | None = None,
        transformations: dict | None = None,
        theories: dict | None = None,
        groth: dict | None = None,
    ):
        self.site = site
        self.functors = {} if functors is None else functors
        self.transformations = {} if transformations is None else transformations
        self.theories = {} if theories is None else theories
        self.groth = {} if groth is None else groth

    def validate(self) -> ValidationReport:
        rb = ReportBuilder()
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
        valid = set()
        for name, theory in sorted(self.theories.items()):
            report = validate_axioms(theory)
            if report.ok:
                valid.add(theory)
            for v in report.violations:
                rb.add(v.kind, f"theory {name}: {v.message}", **v.witness_dict())
        for name, t in sorted(self.groth.items()):
            if not {t.src, t.tgt} <= valid:
                continue  # checking t evaluates both theories' operations
            for v in validate_groth(t).violations:
                rb.add(v.kind, f"groth {name}: {v.message}", **v.witness_dict())
        return rb.done()


# ---------------------------------------------------------------------------
# the subset-lattice instances


def _sname(s) -> str:
    return "".join(str(x) for x in sorted(s)) if s else "E"


def _mname(s, t) -> str:
    return f"{_sname(s)}>{_sname(t)}"


def subsets_site(n: int) -> Site:
    """Lattice of subsets of an n-element set, every inclusion confined;
    pullback is intersection."""
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
        [m[0] for m in morphisms],
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
    """The full bundle over subsets of {0..n-1}; n <= 4 keeps it desk-scale."""
    if not 1 <= n <= 4:
        raise ValueError("n must be 1, 2, 3 or 4")
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


def build_graded_instance(k: int) -> InstanceBundle:
    """Functor on the one-element subset lattice in grades 0, 2 and 4 with the
    scaling family: the component in grade 2r is multiplication by k^r."""
    if k < 1:
        raise ValueError("k must be positive")
    site = subsets_site(1)
    even = (0, 2, 4)
    obj_group = {obj: _coeff_group(len(_members(obj)), None) for obj in site.objects}
    groups = {(obj, m): g for obj, g in obj_group.items() for m in even}
    maps = {}
    for mor in site.morphisms:
        sub, sup = _members(mor.src), _members(mor.tgt)
        for m in even:
            maps[(mor.name, m)] = GroupHom(
                obj_group[mor.tgt], obj_group[mor.src], _restriction_matrix(sub, sup)
            )
    functor = GradedFunctor(site, "contra", (0, 4), groups, maps)
    comps = {}
    for obj, g in obj_group.items():
        for m in even:
            comps[(obj, m)] = GroupHom(g, g, IntMatrix.identity(g.ngens).scaled(k ** (m // 2)))
    psi = NaturalTransf(functor, functor, comps)
    return InstanceBundle(site, functors={"Heven": functor}, transformations={"psi": psi})


# ---------------------------------------------------------------------------
# instance files (JSON-compatible, explicit tables, no inference)
#
# The reader checks what JSON alone can tell: types, the spelling of integers
# and grades, repeated entries and keys, and references between sections.
# The constructors check every name, and the reader locates an unknown one by
# the table and key that the error carries.  JSON true and false load as
# bool, a subclass of int, so an integer field is checked with type(x) is
# int; a grade is written as str(int) writes it, so that one key has one
# spelling.


def _expect(cond, location, message):
    if not cond:
        raise InstanceFileError(location, message)


def _put(table: dict, key, value, location):
    """table[key] = value, or InstanceFileError when an earlier entry set it."""
    _expect(key not in table, location, f"repeats the entry for {key!r}")
    table[key] = value


def _section(doc: dict, key, location, kind=dict):
    """doc[key], or an empty kind when absent; InstanceFileError unless it is a kind."""
    value = doc.get(key, kind())
    _expect(isinstance(value, kind), location, "expected an object" if kind is dict else "expected a list")
    return value


def _named(value, location, message, among=None):
    """value when it is a string (one of among, if given), else InstanceFileError."""
    _expect(isinstance(value, str) and (among is None or value in among), location, message)
    return value


def _built(location, make, *args, where=None):
    """make(*args), with an inconsistent or missing entry reported as an
    InstanceFileError: an unknown name at where[(table, key)] of its entry
    (see SiteStructureError), every other error at location."""
    try:
        return make(*args)
    except (ValueError, KeyError) as exc:
        if where is not None and isinstance(exc, SiteStructureError):
            location = where.get((exc.table, exc.key), location)
        raise InstanceFileError(location, str(exc)) from exc


def _as_group(spec, location) -> FgAbGroup:
    _expect(isinstance(spec, dict), location, "expected a group object")
    _expect("free_rank" in spec, location, "missing free_rank")
    fr = spec["free_rank"]
    tor = spec.get("torsion", [])
    _expect(type(fr) is int and fr >= 0, location, "free_rank must be a non-negative integer")
    _expect(isinstance(tor, list) and all(type(d) is int and d >= 2 for d in tor), location, "torsion must be a list of integers >= 2")
    return FgAbGroup.from_invariants(fr, tuple(tor))


def _as_matrix(rows, location, nrows, ncols) -> IntMatrix:
    _expect(isinstance(rows, list), location, "expected a matrix (list of rows)")
    _expect(len(rows) == nrows, location, f"expected {nrows} rows, got {len(rows)}")
    for r, row in enumerate(rows):
        _expect(isinstance(row, list), f"{location}[{r}]", "expected a list")
        _expect(len(row) == ncols, f"{location}[{r}]", f"expected {ncols} entries, got {len(row)}")
        for x in row:
            _expect(type(x) is int, f"{location}[{r}]", "entries must be integers")
    return IntMatrix(nrows, ncols, tuple(tuple(row) for row in rows))


def _as_hom(rows, location, src: FgAbGroup, tgt: FgAbGroup) -> GroupHom:
    mat = _as_matrix(rows, location, tgt.ngens, src.ngens)
    try:
        return GroupHom(src, tgt, mat)
    except WellDefinednessError as exc:
        raise InstanceViolationError(location, str(exc)) from exc


def _graded(doc: dict, key, location, where=None):
    """((name, grade), value, location) per 'name@grade' entry of the object
    doc[key]; where, when given, records each location at (key, (name, grade))."""
    loc = f"{location}.{key}"
    for entry, value in _section(doc, key, loc).items():
        kloc = f"{loc}.{entry}"
        _expect(isinstance(entry, str) and "@" in entry, kloc, "expected 'name@grade'")
        name, _, grade = entry.rpartition("@")
        _expect(re.fullmatch("0|-?[1-9][0-9]*", grade), kloc, f"grade {grade!r} is not an integer in canonical form")
        if where is not None:
            where[key, (name, int(grade))] = kloc
        yield (name, int(grade)), value, kloc


def _window(doc: dict, location):
    window = doc.get("window")
    _expect(
        isinstance(window, list) and len(window) == 2 and all(type(w) is int for w in window),
        f"{location}.window",
        "expected [lo, hi]",
    )
    return tuple(window)


def _fields(entry, location, names, ints=()):
    """The morphism names in the fields names of a table entry, then its
    integer fields ints."""
    _expect(isinstance(entry, dict), location, "expected an object")
    for fld in names:
        _named(entry.get(fld), location, f"field {fld!r} must name a morphism")
    for fld in ints:
        _expect(type(entry.get(fld)) is int, location, f"field {fld!r} must be an integer")
    return tuple(entry[fld] for fld in (*names, *ints))


def _hom_table(doc: dict, key, location, ends) -> dict:
    """{(f, g, i): hom} from the list doc[key] of {f, g, i, matrix} entries;
    ends(f, g, i, location) gives the (source, target) groups of the hom."""
    table = {}
    for idx, entry in enumerate(_section(doc, key, f"{location}.{key}", list)):
        loc = f"{location}.{key}[{idx}]"
        f, g, i = _fields(entry, loc, ("f", "g"), ("i",))
        _put(table, (f, g, i), _as_hom(entry.get("matrix"), f"{loc}.matrix", *ends(f, g, i, loc)), loc)
    return table


def _transformations(doc: dict, section, sources: dict, what, make) -> dict:
    """{name: make(src, tgt, components)} for the transformations or groth
    section: src and tgt name entries of sources, the components sit at
    'name@grade' keys."""
    out = {}
    for name, tdoc in sorted(_section(doc, section, section).items()):
        loc = f"{section}.{name}"
        _expect(isinstance(tdoc, dict), loc, "expected an object")
        src = sources[_named(tdoc.get("src"), f"{loc}.src", f"unknown {what}", sources)]
        tgt = sources[_named(tdoc.get("tgt"), f"{loc}.tgt", f"unknown {what}", sources)]
        ends = _built(loc, make, src, tgt, {})._endpoints
        comps = {
            key: _as_hom(rows, kloc, *_built(kloc, ends, *key))
            for key, rows, kloc in _graded(tdoc, "components", loc)
        }
        out[name] = _built(loc, make, src, tgt, comps)
    return out


def parse_instance(doc) -> InstanceBundle:
    """Build a bundle from a parsed JSON document, with located diagnostics."""
    _expect(isinstance(doc, dict), "$", "document must be a JSON object")
    for key in ("objects", "morphisms", "identities", "composition", "confined", "pullbacks"):
        _expect(key in doc, "$", f"missing section {key!r}")

    objects = doc["objects"]
    _expect(isinstance(objects, list) and all(isinstance(o, str) for o in objects), "objects", "expected a list of names")
    where = {}  # (table, key) -> location of the entry, for the Site's errors
    morphisms = []
    for idx, m in enumerate(_section(doc, "morphisms", "morphisms", list)):
        loc = f"morphisms[{idx}]"
        _expect(isinstance(m, dict), loc, "expected an object")
        for fld in ("name", "src", "tgt"):
            _expect(isinstance(m.get(fld), str), loc, f"missing field {fld!r}")
        morphisms.append((m["name"], m["src"], m["tgt"]))
        for end in ("src", "tgt"):
            where["morphisms", (m["name"], end)] = f"{loc}.{end}"

    identities = _section(doc, "identities", "identities")
    for obj, mor in identities.items():
        _expect(isinstance(mor, str), f"identities.{obj}", f"unknown morphism {mor!r}")
        where["identities", obj] = f"identities.{obj}"

    composition = {}
    for idx, entry in enumerate(_section(doc, "composition", "composition", list)):
        loc = f"composition[{idx}]"
        first, then, equals = _fields(entry, loc, ("first", "then", "equals"))
        _put(composition, (then, first), equals, loc)
        where["composition", (then, first)] = loc

    confined = [_named(c, "confined", "expected a list of morphism names") for c in _section(doc, "confined", "confined", list)]
    where.update((("confined", c), "confined") for c in confined)

    pullbacks = {}
    for idx, entry in enumerate(_section(doc, "pullbacks", "pullbacks", list)):
        loc = f"pullbacks[{idx}]"
        f, g, top, left = _fields(entry, loc, ("f", "g", "top", "left"))
        apex = _named(entry.get("apex"), loc, "field 'apex' must name an object")
        _put(pullbacks, (f, g), (apex, top, left), loc)
        where["pullbacks", (f, g)] = loc

    final_object = doc.get("final_object")
    _expect(final_object is None or isinstance(final_object, str), "final_object", "unknown object")
    where["final_object", None] = "final_object"

    site = _built("site", Site, objects, morphisms, identities, composition, confined, pullbacks, final_object, where=where)

    functors = {}
    for fname, fdoc in sorted(_section(doc, "functors", "functors").items()):
        loc = f"functors.{fname}"
        _expect(isinstance(fdoc, dict), loc, "expected an object")
        variance = _named(fdoc.get("variance"), f"{loc}.variance", "expected a string")
        window = _window(fdoc, loc)
        where = {("variance", None): f"{loc}.variance"}
        groups = {key: _as_group(spec, kloc) for key, spec, kloc in _graded(fdoc, "groups", loc, where)}
        functor = _built(loc, GradedFunctor, site, variance, window, groups, {}, where=where)
        maps = {
            key: _as_hom(rows, kloc, *_built(kloc, functor._endpoints, *key))
            for key, rows, kloc in _graded(fdoc, "maps", loc)
        }
        functors[fname] = _built(loc, GradedFunctor, site, variance, window, groups, maps)

    transformations = _transformations(doc, "transformations", functors, "functor", NaturalTransf)

    theories = {}
    for bname, bdoc in sorted(_section(doc, "theories", "theories").items()):
        loc = f"theories.{bname}"
        _expect(isinstance(bdoc, dict), loc, "expected an object")
        window = _window(bdoc, loc)
        where = {}
        groups = {key: _as_group(spec, kloc) for key, spec, kloc in _graded(bdoc, "groups", loc, where)}
        # the theory's groups, for the shapes of its tables
        grp = _built(loc, TabulatedBivTheory, site, window, groups, {}, {}, {}, {}, where=where).group

        products = {}
        for idx, entry in enumerate(_section(bdoc, "products", f"{loc}.products", list)):
            ploc = f"{loc}.products[{idx}]"
            f_, g_, i_, j_ = _fields(entry, ploc, ("f", "g"), ("i", "j"))
            ga, gb = grp(f_, i_), grp(g_, j_)
            gf = _built(ploc, site.compose, g_, f_)
            gt = grp(gf, i_ + j_)
            table = entry.get("table")
            _expect(isinstance(table, list) and len(table) == ga.ngens, f"{ploc}.table", f"expected {ga.ngens} rows")
            for r, row in enumerate(table):
                _expect(isinstance(row, list) and len(row) == gb.ngens, f"{ploc}.table[{r}]", f"expected {gb.ngens} cells")
                for c, cell in enumerate(row):
                    _expect(
                        isinstance(cell, list) and len(cell) == gt.ngens and all(type(x) is int for x in cell),
                        f"{ploc}.table[{r}][{c}]",
                        f"expected {gt.ngens} integer coordinates",
                    )
            _put(products, (f_, g_, i_, j_), table, ploc)

        pushforwards = _hom_table(bdoc, "pushforwards", loc, lambda f, g, i, at: (grp(_built(at, site.compose, g, f), i), grp(g, i)))
        pullbacks_t = _hom_table(bdoc, "pullbacks", loc, lambda f, g, i, at: (grp(f, i), grp(_built(at, site.chosen_pullback, f, g).left, i)))

        units = {}
        for obj, coords in _section(bdoc, "units", f"{loc}.units").items():
            uloc = f"{loc}.units.{obj}"
            g0 = grp(_built(uloc, site.identity, obj), 0)
            _expect(
                isinstance(coords, list) and len(coords) == g0.ngens and all(type(x) is int for x in coords),
                uloc,
                f"expected {g0.ngens} integer coordinates",
            )
            units[obj] = coords
        theories[bname] = _built(loc, TabulatedBivTheory, site, window, groups, products, pushforwards, pullbacks_t, units)

    groth = _transformations(doc, "groth", theories, "theory", GrothTransf)
    return InstanceBundle(site, functors, transformations, theories, groth)


def load_instance(path: str) -> InstanceBundle:
    def unique_keys(pairs) -> dict:
        """A JSON object, or InstanceFileError when it repeats a key."""
        obj = {}
        for key, value in pairs:
            _put(obj, key, value, path)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InstanceFileError(path, f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    return parse_instance(doc)


def _group_json(g: FgAbGroup) -> dict:
    expected = FgAbGroup.from_invariants(g.free_rank, g.torsion)
    if g.ngens != expected.ngens or g.relations != expected.relations:
        raise ValueError("group: only canonical presentations serialize")
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _grades(window):
    return range(window[0], window[1] + 1)


def _groups_json(names, window, group) -> dict:
    """{'name@grade': group} for each nonzero group(name, grade)."""
    out = {}
    for x in names:
        for m in _grades(window):
            g = group(x, m)
            if not g.is_trivial:
                out[f"{x}@{m}"] = _group_json(g)
    return out


def _homs_json(names, window, hom) -> dict:
    """{'name@grade': matrix} for each hom(name, grade) with no zero end; the
    readers restore a hom with a zero end as the zero hom.  A hom with no
    stored entry, which validation reports, is left out, so it stays missing
    on read-back."""
    out = {}
    for x in names:
        for m in _grades(window):
            try:
                h = hom(x, m)
            except (MissingMapError, MissingTableError):
                continue
            if not (h.src.is_trivial or h.tgt.is_trivial):
                out[f"{x}@{m}"] = [list(r) for r in h.mat.entries]
    return out


def _hom_table_json(table: dict) -> list:
    return [{"f": f, "g": g, "i": i, "matrix": [list(r) for r in h.mat.entries]} for (f, g, i), h in sorted(table.items())]


def _transformations_json(transformations: dict, sources: dict, names) -> dict:
    """The transformations or groth section: src and tgt by their names in
    sources, components keyed 'name@grade'."""

    def name_of(x):
        return next(k for k, v in sources.items() if v is x)

    return {
        name: {"src": name_of(t.src), "tgt": name_of(t.tgt), "components": _homs_json(names, t.src.window, t.component)}
        for name, t in sorted(transformations.items())
    }


def bundle_to_json(bundle: InstanceBundle) -> dict:
    site = bundle.site
    morphisms = [m.name for m in site.morphisms]
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
        doc["functors"] = {
            name: {
                "variance": functor.variance,
                "window": list(functor.window),
                "groups": _groups_json(site.objects, functor.window, functor.group),
                "maps": _homs_json([m for m in morphisms if functor.acts_along(m)], functor.window, functor.map),
            }
            for name, functor in sorted(bundle.functors.items())
        }
    if bundle.transformations:
        doc["transformations"] = _transformations_json(bundle.transformations, bundle.functors, site.objects)
    if bundle.theories:
        doc["theories"] = {
            name: {
                "window": list(theory.window),
                "groups": _groups_json(morphisms, theory.window, theory.group),
                "products": [
                    {"f": f, "g": g, "i": i, "j": j, "table": [[list(cell) for cell in row] for row in table]}
                    for (f, g, i, j), table in sorted(theory._products.items())
                ],
                "pushforwards": _hom_table_json(theory._pushforwards),
                "pullbacks": _hom_table_json(theory._pullbacks),
                "units": {x: list(theory._units[x].coords) for x in site.objects if x in theory._units},
            }
            for name, theory in sorted(bundle.theories.items())
        }
    if bundle.groth:
        doc["groth"] = _transformations_json(bundle.groth, bundle.theories, morphisms)
    return doc


# ---------------------------------------------------------------------------
# the bundled demo suite


def demo_checks(n: int):
    """Ordered named checks over the subset-lattice bundle; yields (name, report)."""
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
    yield "Grothendieck transformation [gamma]", gamma.report
    yield "image subtheory axioms [Im gamma]", validate_axioms(image_subtheory(gamma))

    def round_trips(group_of, functor):
        """Every decoded generator at every base is a class and encodes back."""
        rb = ReportBuilder()
        for mor in site.morphisms:
            result = group_of(functor, mor.name, 0)
            for cls in result.decoded_gens():
                rb.extend(cls.compatibility_report())
                result.encode(cls)
        return rb.done()

    yield "co-operational groups decode/encode", round_trips(coop.coop_group, f)
    yield "co-operational axioms (7 axioms + Units)", coop.verify_coop_axioms(f)
    yield "coop comparison identities", coop.verify_coop_transform_identities(b)
    yield "identity isomorphism", coop.verify_identity_isomorphism(b)

    yield "operational groups decode/encode", round_trips(op.op_group, h)
    yield "operational axioms (7 axioms + Units)", op.verify_op_axioms(h)
    yield "op comparison identities", op.verify_op_transform_identities(b)
    yield "point isomorphism", op.verify_point_isomorphism(b)

    rb = ReportBuilder()
    if gamma.surjectivity_witness("cov") is not None:
        rb.add("transfer", "reduction is not covariant-surjective")
    if gamma.surjectivity_witness("contra") is not None:
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
