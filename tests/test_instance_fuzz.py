"""The instance format under malformed input: located errors, never a traceback.

Documents are serialized instances with a few random mutations: a key or
list item dropped, a value retyped, a chosen pullback square broken, a
confined flag flipped.  parse_instance either builds a bundle or raises an
instance error, and every CLI command exits 0, 1 or 2 with a report.
"""

import contextlib
import copy
import hashlib
import io
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bivariant import cli
from bivariant.bivcore import MissingTableError
from bivariant.site import MissingMapError
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


def single_mutations():
    """Every document one edit away from subsets(1), graded(1) or terminal.json:
    one entry, at any key or index, dropped or retyped to a RETYPED value."""
    sources = {
        "terminal": DOCS["terminal"],
        "subsets1": DOCS["subsets1"],
        "graded1": bundle_to_json(build_graded_instance(1)),
    }
    for name, doc in sorted(sources.items()):
        for path in paths(doc):
            for value in (DROP, *RETYPED):
                out = copy.deepcopy(doc)
                parent = at(out, path[:-1])
                if value is DROP:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                yield out


def parse_outcome(doc) -> str:
    try:
        parse_instance(doc)
    except (InstanceFileError, InstanceViolationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def instance_digests() -> dict:
    written = [f"{name} {json.dumps(doc)}" for name, doc in written_instances()]
    outcomes = [parse_outcome(doc) for doc in single_mutations()]
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
    for doc in single_mutations():
        try:
            yield parse_instance(doc)
        except (InstanceFileError, InstanceViolationError):
            pass


def validation(bundle):
    """The bundle's validation report, or the missing entry that stops it."""
    try:
        return bundle.validate()
    except (MissingMapError, MissingTableError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_the_writer_serializes_every_document_the_reader_accepts():
    """bundle_to_json writes any parsed bundle, a missing transformation
    component, theory unit or Grothendieck component included.  The entry
    stays missing on read-back, so validation ends the same way, and writing
    the read-back bundle gives the same document."""
    count = 0
    for bundle in parsed_mutations():
        written = bundle_to_json(bundle)
        again = parse_instance(written)
        assert bundle_to_json(again) == written
        assert validation(again) == validation(bundle)
        count += 1
    assert count == 196
