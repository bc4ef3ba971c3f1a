"""The instance format under malformed input: located errors, never a traceback.

Documents are serialized instances with a few random mutations: a key or
list item dropped, a value retyped, a chosen pullback square broken, a
confined flag flipped.  parse_instance either builds a bundle or raises an
instance error, and every CLI command exits 0, 1 or 2 with a report.
Every document the reader accepts, after one edit or several, is written
back by bundle_to_json in its normal form (normal_form below), and what is
written back is read and written unchanged and validates the same.
"""

import contextlib
import copy
import functools
import hashlib
import io
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from bivariant import cli
from bivariant.workbench import (
    InstanceFileError,
    InstanceViolationError,
    build_graded_instance,
    build_subsets_instance,
    bundle_to_json,
    parse_instance,
)
from test_cli import TERMINAL, run_cli

DOCS = {
    "terminal": json.loads(TERMINAL.read_text(encoding="utf-8")),
    "subsets1": bundle_to_json(build_subsets_instance(1)),
}
RETYPED = [None, "zz", -1, [], {}]


def paths(doc, prefix=()):
    """Every key path below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    # names come from the intact document, whatever earlier mutations left
    objects = DOCS[name]["objects"]
    names = [m["name"] for m in DOCS[name]["morphisms"]]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "square", "confined"]))
        if kind in ("drop", "retype"):
            found = list(paths(doc))
            if not found:
                continue
            path = draw(st.sampled_from(found))
            parent = at(doc, path[:-1])
            if kind == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(st.sampled_from(RETYPED))
        elif kind == "square":
            squares = doc.get("pullbacks")
            squares = [sq for sq in squares if isinstance(sq, dict)] if isinstance(squares, list) else []
            if squares:
                sq = draw(st.sampled_from(squares))
                field = draw(st.sampled_from(["top", "left", "apex"]))
                sq[field] = draw(st.sampled_from(objects if field == "apex" else names))
        else:
            if isinstance(doc.get("confined"), list):
                flip = draw(st.sampled_from(names))
                doc["confined"] = [c for c in doc["confined"] if c != flip] + ([] if flip in doc["confined"] else [flip])
    return name, doc


def commands(name):
    morphism = DOCS[name]["morphisms"][-1]["name"]
    yield ["validate"]
    yield ["axioms", "--theory", "B"]
    yield ["coop", "--functor", "F", "--morphism", morphism, "--degree", "0"]
    yield ["bcoopt", "--nat", "T", "--morphism", morphism, "--degree", "0"]


def assert_reported(argv):
    """cli.main(argv) returns 0, 1 or 2 with a JSON report or a one-line error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())
    else:
        assert code != 0
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("input error: ", "violation: "))


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_documents(doc_file, case):
    name, doc = case
    try:
        parse_instance(doc)
    except (InstanceFileError, InstanceViolationError):
        pass
    doc_file.write_text(json.dumps(doc), encoding="utf-8")
    for cmd in commands(name):
        assert_reported(["--json", cmd[0], str(doc_file), *cmd[1:]])


@pytest.mark.parametrize(
    "path, value",
    [(("functors", "F", "maps"), None), (("composition", 0, "equals"), [])],
)
def test_wrongly_typed_section_is_an_input_error(tmp_path, path, value):
    doc = copy.deepcopy(DOCS["terminal"])
    at(doc, path[:-1])[path[-1]] = value
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("validate", str(file))
    assert result.returncode == 2
    assert result.stderr.startswith("input error: ")
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# pinned reader and writer: digests of bundle_to_json and of parse outcomes

INSTANCE_DIGESTS = TERMINAL.parent / "instance_digests.json"
DROP = object()


def written_instances():
    """bundle_to_json of the bundled instances, in insertion order."""
    for n in (1, 2, 3):
        yield f"subsets{n}", bundle_to_json(build_subsets_instance(n))
    for k in (1, 2, 3):
        yield f"graded{k}", bundle_to_json(build_graded_instance(k))


def edited(doc, path, value):
    """A copy of doc with the entry at path dropped (value DROP) or replaced."""
    out = copy.deepcopy(doc)
    parent = at(out, path[:-1])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


SOURCES = {
    "terminal": DOCS["terminal"],
    "subsets1": DOCS["subsets1"],
    "graded1": bundle_to_json(build_graded_instance(1)),
}


def single_edits():
    """Every edit one step away from subsets(1), graded(1) or terminal.json,
    as (source name, path, value): one entry, at any key or index, dropped or
    retyped to a RETYPED value."""
    for name, doc in sorted(SOURCES.items()):
        for path in paths(doc):
            for value in (DROP, *RETYPED):
                yield name, path, value


@functools.cache
def single_mutations() -> tuple:
    """(source name, path, value, bundle, parse outcome) for every single
    edit, in order: the bundle is None where parse_instance raises, and the
    outcome is "ok" or the exception type and located message."""
    found = []
    for name, path, value in single_edits():
        try:
            bundle, outcome = parse_instance(edited(SOURCES[name], path, value)), "ok"
        except (InstanceFileError, InstanceViolationError) as exc:
            bundle, outcome = None, f"{type(exc).__name__}: {exc}"
        found.append((name, path, value, bundle, outcome))
    return tuple(found)


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def instance_digests() -> dict:
    written = [f"{name} {json.dumps(doc)}" for name, doc in written_instances()]
    outcomes = [outcome for *_, outcome in single_mutations()]
    counts = dict(Counter(outcome.split(":")[0] for outcome in outcomes))
    return {
        "bundle_to_json": {"instances": len(written), "sha256": _sha256(written)},
        "parse_outcomes": {"documents": len(outcomes), "counts": counts, "sha256": _sha256(outcomes)},
    }


def test_reader_and_writer_match_pinned_digests():
    """bundle_to_json output and every single-mutation parse outcome (exception
    type and located message) are byte for byte as recorded.  Regenerate with
    tests/record_golden.py only for an intended change of the format."""
    expected = json.loads(INSTANCE_DIGESTS.read_text(encoding="utf-8"))
    assert instance_digests() == expected


def parsed_mutations():
    """The bundle of every single-mutation document that parses."""
    return [bundle for *_, bundle, _ in single_mutations() if bundle is not None]


def assert_written_back(bundle):
    """bundle_to_json writes the bundle; reading the document back and writing
    it again gives the same document, and validation reports the same."""
    written = bundle_to_json(bundle)
    again = parse_instance(written)
    assert bundle_to_json(again) == written
    assert again.validate() == bundle.validate()


def test_the_writer_serializes_every_document_the_reader_accepts():
    """bundle_to_json writes any parsed bundle, a missing transformation
    component, theory unit or Grothendieck component included.  The entry
    stays missing on read-back, so validation ends the same way, and writing
    the read-back bundle gives the same document."""
    bundles = parsed_mutations()
    for bundle in bundles:
        assert_written_back(bundle)
    assert len(bundles) == 170


def test_a_missing_product_table_is_reported():
    """A theory without a product table that the reader accepted to be
    missing gets a missing-product violation in its report; its Grothendieck
    maps, which would evaluate the product, are not checked."""
    reports = [bundle.validate() for bundle in parsed_mutations()]
    dropped = [r for r in reports if r.has("missing-product")]
    assert len(dropped) == 6
    assert all(not r.ok for r in dropped)


@st.composite
def readable(draw):
    """A document the reader accepts: one to three distinct single edits that
    the reader accepts each on its own, applied in turn to one source
    document.  An edit whose path an earlier edit removed is left out."""
    name = draw(st.sampled_from(sorted(SOURCES)))
    edits = [(path, value) for source, path, value, bundle, _ in single_mutations() if source == name and bundle is not None]
    doc = SOURCES[name]
    for k in draw(st.lists(st.integers(0, len(edits) - 1), min_size=1, max_size=3, unique=True)):
        try:
            doc = edited(doc, *edits[k])
        except (KeyError, IndexError, TypeError):
            pass
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(readable())
def test_writing_back_holds_for_combined_edits(doc):
    """The property of test_the_writer_serializes_every_document_the_reader_accepts
    on documents with several edits: every one of the 400 examples parses, and
    263 of them are distinct documents."""
    try:
        bundle = parse_instance(doc)
    except (InstanceFileError, InstanceViolationError):
        reject()
    assert_written_back(bundle)


# ---------------------------------------------------------------------------
# the normal form: what bundle_to_json writes for a document the reader accepts

OPTIONAL_SECTIONS = ("functors", "transformations", "theories", "groth")


def _rank(spec) -> int:
    return spec["free_rank"] + len(spec.get("torsion", []))


def _canonical_groups(groups: dict) -> dict:
    """Every nonzero group, its absent torsion written as []."""
    return {key: {"free_rank": g["free_rank"], "torsion": g.get("torsion", [])} for key, g in groups.items() if _rank(g)}


def _grades(window):
    return range(window[0], window[1] + 1)


def _nonzero_homs(homs: dict, keys, ends) -> dict:
    """The entries of homs at keys (name, grade) whose two ends are nonzero
    groups; ends(name, grade) gives the two group specs or None for zero."""
    return {f"{x}@{m}": homs[f"{x}@{m}"] for x, m in keys if f"{x}@{m}" in homs and all(ends(x, m))}


def normal_form(doc: dict) -> dict:
    """doc as bundle_to_json writes it back, by the README's rules:
      - composition, confined, site and theory pullbacks, products and
        pushforwards are sorted by their key;
      - an absent optional field or section takes its default, while an
        empty top-level section or a "final_object": null is left out;
      - a zero group is left out, and so is a functor map, transformation
        or Grothendieck component with a zero end;
      - an omitted functor map along an identity morphism is written back
        as the identity, where the functor acts along it;
      - unit coordinates are reduced modulo the torsion of their group."""
    out = copy.deepcopy(doc)
    identities = set(doc["identities"].values())
    ends = {m["name"]: (m["src"], m["tgt"]) for m in doc["morphisms"]}
    out["composition"] = sorted(doc["composition"], key=lambda e: (e["then"], e["first"]))
    out["confined"] = sorted(doc["confined"])
    out["pullbacks"] = sorted(doc["pullbacks"], key=lambda e: (e["f"], e["g"]))
    if out.get("final_object") is None:
        out.pop("final_object", None)
    for section in OPTIONAL_SECTIONS:
        if not out.get(section, True):
            del out[section]

    groups = {}  # section name -> {key: nonzero group spec}
    for name, fdoc in out.get("functors", {}).items():
        groups[name] = _canonical_groups(fdoc.get("groups", {}))
        given = fdoc.get("maps", {})
        of = groups[name].get
        maps = {}
        for mor, (src, tgt) in ends.items():
            acts = fdoc["variance"] == "contra" or mor in doc["confined"]
            a, b = (tgt, src) if fdoc["variance"] == "contra" else (src, tgt)
            for m in _grades(fdoc["window"]):
                ga, gb = of(f"{a}@{m}"), of(f"{b}@{m}")
                if not (ga and gb):
                    continue
                if f"{mor}@{m}" in given:
                    maps[f"{mor}@{m}"] = given[f"{mor}@{m}"]
                elif acts and mor in identities:
                    n = _rank(ga)
                    maps[f"{mor}@{m}"] = [[int(r == c) for c in range(n)] for r in range(n)]
        out["functors"][name] = {**fdoc, "groups": groups[name], "maps": maps}
    for name, tdoc in out.get("transformations", {}).items():
        src, tgt = out["functors"][tdoc["src"]], out["functors"][tdoc["tgt"]]
        keys = [(x, m) for x in doc["objects"] for m in _grades(src["window"])]
        components = _nonzero_homs(tdoc.get("components", {}), keys, lambda x, m: (src["groups"].get(f"{x}@{m}"), tgt["groups"].get(f"{x}@{m}")))
        out["transformations"][name] = {**tdoc, "components": components}

    for name, bdoc in out.get("theories", {}).items():
        g = _canonical_groups(bdoc.get("groups", {}))
        units = {}
        for x, coords in bdoc.get("units", {}).items():
            spec = g.get(f"{doc['identities'][x]}@0", {"free_rank": 0, "torsion": []})
            fr, torsion = spec["free_rank"], spec["torsion"]
            units[x] = coords[:fr] + [c % d for c, d in zip(coords[fr:], torsion)]
        out["theories"][name] = {
            **bdoc,
            "groups": g,
            "products": sorted(bdoc.get("products", []), key=lambda e: (e["f"], e["g"], e["i"], e["j"])),
            "pushforwards": sorted(bdoc.get("pushforwards", []), key=lambda e: (e["f"], e["g"], e["i"])),
            "pullbacks": sorted(bdoc.get("pullbacks", []), key=lambda e: (e["f"], e["g"], e["i"])),
            "units": units,
        }
    for name, gdoc in out.get("groth", {}).items():
        src, tgt = out["theories"][gdoc["src"]], out["theories"][gdoc["tgt"]]
        keys = [(f, i) for f in ends for i in _grades(src["window"])]
        components = _nonzero_homs(gdoc.get("components", {}), keys, lambda f, i: (src["groups"].get(f"{f}@{i}"), tgt["groups"].get(f"{f}@{i}")))
        out["groth"][name] = {**gdoc, "components": components}
    return out


def test_the_writer_writes_the_normal_form_of_every_accepted_document():
    """bundle_to_json(parse_instance(doc)) is normal_form(doc) for each of
    the 170 single-mutation documents that the reader accepts."""
    accepted = [edited(SOURCES[name], path, value) for name, path, value, bundle, _ in single_mutations() if bundle is not None]
    for doc in accepted:
        assert bundle_to_json(parse_instance(doc)) == normal_form(doc)
    assert len(accepted) == 170


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(readable())
def test_the_writer_writes_the_normal_form_of_combined_edits(doc):
    """The normal-form property on 200 documents with one to three edits."""
    try:
        bundle = parse_instance(doc)
    except (InstanceFileError, InstanceViolationError):
        reject()
    assert bundle_to_json(bundle) == normal_form(doc)
