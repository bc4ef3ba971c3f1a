"""Seeded workloads: instance generation, operations and their digests.

Every workload is a closed loop with one client.  A run is a sequence of
rounds; each round issues the same multiset of operations, and the seed
sets which symmetric representative each round draws and the order of the
operations.  Whole rounds keep the operation mix identical across seeds,
so the seed moves the order of the work and never its amount.

Each operation has a ``key`` that names what it computes independently of
the seed (the morphism names survive the shuffle).  ``run`` is the timed
library call; ``check`` reduces its result to a JSON-able digest that is
compared with ``expected.json``, recorded on the unshuffled instances.  A
``check`` raises ``InvariantError`` when an invariant that must hold on
every input fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The list sections of an instance document whose order carries no meaning.
SHUFFLED_SECTIONS = ("objects", "morphisms", "composition", "pullbacks", "confined")

# The bases of one transfer-n3 round: one drawn from each tuple.  Members of
# a tuple are exchanged by permuting {0, 1, 2}, so they cost about the same.
# A round has 58 operations: the 19 of XY>012 cost the most (18 companion
# solves at about 0.6 s), the 30 of X>012 hold the median and the 9 of XY>XY
# the cheapest, so the median and 90th percentile each fall inside one
# cluster of costs, and two rounds reach the 100 operations a run needs.
# 012>012 (about 37 s per base) is left out, and so are the other bases
# below 012, whose operations take a few milliseconds.
TRANSFER_BASE_CLASSES = (
    ("01>012", "02>012", "12>012"),
    ("01>01", "02>02", "12>12"),
    ("0>012",),
    ("1>012",),
    ("2>012",),
)

# cli-oneshot: (file, command, arguments, choices for the morphism or None).
# Each entry is two operations per round, each drawing its morphism from the
# symmetry class: a round then lasts about as long as a round of the other
# workloads.
CLI_MIX = (
    ("subsets2", "validate", (), None),
    ("subsets3", "validate", (), None),
    ("graded2", "validate", (), None),
    ("graded3", "validate", (), None),
    ("subsets3", "coop", ("--functor", "F", "--degree", "0"), ("0>012", "1>012", "2>012")),
    ("subsets3", "coop", ("--functor", "F2", "--degree", "0"), ("0>01", "0>02", "1>01", "1>12", "2>02", "2>12")),
    ("subsets2", "coop", ("--functor", "F2", "--degree", "0"), ("0>01", "1>01")),
    ("graded3", "coop", ("--functor", "Heven", "--degree", "2"), ("0>0",)),
    ("subsets3", "op", ("--functor", "h", "--degree", "0"), ("01>012", "02>012", "12>012")),
    ("subsets3", "op", ("--functor", "h2", "--degree", "0"), ("0>0", "1>1", "2>2")),
    ("subsets2", "op", ("--functor", "h2", "--degree", "0"), ("0>01", "1>01")),
    ("subsets3", "axioms", ("--theory", "B"), None),
    ("subsets2", "axioms", ("--theory", "B2"), None),
    ("subsets3", "groth", ("--map", "gamma"), None),
    ("subsets2", "groth", ("--map", "gamma"), None),
    ("subsets2", "bcoopt", ("--nat", "T", "--degree", "0"), ("0>01", "1>01")),
    ("subsets3", "bcoopt", ("--nat", "T", "--degree", "0"), ("01>01", "02>02", "12>12")),
    ("graded3", "bcoopt", ("--nat", "psi", "--degree", "0"), ("0>0",)),
    ("graded2", "bcoopt", ("--nat", "psi", "--degree", "2"), ("0>0",)),
)

# The instance files of cli-oneshot: name -> (workbench factory, argument).
CLI_FILES = {
    "subsets2": ("build_subsets_instance", 2),
    "subsets3": ("build_subsets_instance", 3),
    "graded2": ("build_graded_instance", 2),
    "graded3": ("build_graded_instance", 3),
}


class InvariantError(Exception):
    """An output broke an invariant that holds for every correct run."""


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], object]


def canon(group) -> list:
    """Canonical invariants of a group as JSON: [free rank, [torsion...]]."""
    free_rank, torsion = group.canonical()
    return [free_rank, list(torsion)]


def normalise(digest):
    """The digest as it reads back from JSON, so tuples compare as lists."""
    return json.loads(json.dumps(digest, sort_keys=True))


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# instances


def instance_doc(lib, factory: str, arg: int, rng) -> dict:
    """Serialised instance; list sections shuffled by rng (None keeps order)."""
    doc = lib.workbench.bundle_to_json(getattr(lib.workbench, factory)(arg))
    if rng is not None:
        for section in SHUFFLED_SECTIONS:
            rng.shuffle(doc[section])
    return doc


def parse_text(lib, text: str):
    return lib.workbench.parse_instance(json.loads(text))


# ---------------------------------------------------------------------------
# class-algebra


def _group_op(lib, kind, functor, base):
    build = lib.cooperational.coop_group if kind == "coop_group" else lib.operational.op_group

    def run():
        result = build(functor, base, 0)
        gens = result.decoded_gens()
        reports = [cls.compatibility_report() for cls in gens]
        codes = [result.encode(cls) for cls in gens]
        return result, reports, codes

    def check(value):
        result, reports, codes = value
        if not all(r.ok for r in reports):
            raise InvariantError("decoded generator is not a compatible family")
        if codes != result.group.gens():
            raise InvariantError("encode(decode(x)) != x for a generator")
        return {"group": canon(result.group), "ngens": len(codes)}

    return Op(f"{kind}:{base}", run, check)


def _image_transfer_op(lib, kind, gamma, base):
    transfer = (
        lib.cooperational.coop_image_transfer
        if kind == "coop_image_transfer"
        else lib.operational.op_image_transfer
    )

    def check(it):
        return {"source": canon(it.source.group), "target": canon(it.target.group)}

    return Op(f"{kind}:{base}", lambda: transfer(gamma, base, 0, mode="full"), check)


def _report_op(key, fn, *args):
    def check(report):
        if not report.ok:
            raise InvariantError(f"report has violations: {sorted(set(report.kinds()))}")
        return {"ok": report.ok, "kinds": sorted(set(report.kinds()))}

    return Op(key, lambda: fn(*args), check)


def class_algebra_ops(lib, bundle) -> list[Op]:
    """One round, in canonical order: every base, four operations, plus checks."""
    coop, op, bivcore = lib.cooperational, lib.operational, lib.bivcore
    f, h = bundle.functors["F"], bundle.functors["h"]
    b, b2 = bundle.theories["B"], bundle.theories["B2"]
    gamma = bundle.groth["gamma"]
    ops = []
    for base in sorted(m.name for m in bundle.site.morphisms):
        ops.append(_group_op(lib, "coop_group", f, base))
        ops.append(_group_op(lib, "op_group", h, base))
        ops.append(_image_transfer_op(lib, "coop_image_transfer", gamma, base))
        ops.append(_image_transfer_op(lib, "op_image_transfer", gamma, base))
    ops += [
        _report_op("verify_coop_axioms:F", coop.verify_coop_axioms, f),
        _report_op("verify_op_axioms:h", op.verify_op_axioms, h),
        _report_op("validate_axioms:B", bivcore.validate_axioms, b),
        _report_op("validate_axioms:B2", bivcore.validate_axioms, b2),
        _report_op(
            "validate_axioms:Im_gamma",
            lambda: bivcore.validate_axioms(bivcore.image_subtheory(gamma)),
        ),
        _report_op("validate_groth:gamma", bivcore.validate_groth, gamma),
        _report_op("verify_coop_transform_identities:B", coop.verify_coop_transform_identities, b),
        _report_op("verify_op_transform_identities:B", op.verify_op_transform_identities, b),
        _report_op("verify_identity_isomorphism:B", coop.verify_identity_isomorphism, b),
        _report_op("verify_point_isomorphism:B", op.verify_point_isomorphism, b),
    ]
    return ops


# ---------------------------------------------------------------------------
# transfer-n3


def _transfer_op(lib, transf, base, results):
    def run():
        results[base] = lib.cooperational.transfer_subgroup(transf, base, 0)
        return results[base]

    def check(tsr):
        sub = tsr.subgroup.group
        return {
            "ambient": canon(tsr.source_result.group),
            "target": canon(tsr.target_result.group),
            "subgroup": canon(sub),
            "presented_gens": sub.ngens,
        }

    return Op(f"transfer_subgroup:{base}", run, check)


def _companions_op(transf, base, tsr, index):
    def run():
        x = tsr.subgroup.group.gens()[index]
        cls = tsr.source_result.decode(tsr.subgroup.inclusion(x))
        return cls, tsr.companions(cls)

    def check(value):
        cls, sols = value
        if not sols.is_unique:
            raise InvariantError("companion not unique although T is surjective")
        site = transf.site
        d = sols.particular
        for (g, m) in cls.components:
            apex = site.chosen_pullback(base, g).apex
            lhs = transf.component(site.src(g), m) @ cls.component(g, m)
            rhs = d.component(g, m) @ transf.component(apex, m)
            if not lhs.equals(rhs):
                raise InvariantError(f"T o c_g != d_g o T at ({g}, {m})")
        return {
            "has_companion": sols.particular is not None,
            "unique": sols.is_unique,
            "homogeneous": canon(sols.homogeneous.group),
        }

    return Op(f"companions:{base}", run, check)


def transfer_round(lib, transf, bases, rng):
    """Transfer subgroup at each base, then one companion solve per generator.

    A generator: companion operations are created once their transfer
    operation has run, in a seeded order of the subgroup generators.
    """
    results = {}
    for base in bases:
        yield _transfer_op(lib, transf, base, results)
        tsr = results.pop(base, None)
        if tsr is None:
            continue
        order = list(range(tsr.subgroup.group.ngens))
        rng.shuffle(order)
        for index in order:
            yield _companions_op(transf, base, tsr, index)


def draw_transfer_bases(rng) -> list[str]:
    bases = [rng.choice(cls) for cls in TRANSFER_BASE_CLASSES]
    rng.shuffle(bases)
    return bases


# ---------------------------------------------------------------------------
# cli-oneshot


def cli_digest(returncode: int, stdout: str, stderr: str):
    if "Traceback" in stderr:
        raise InvariantError("traceback on stderr")
    doc = json.loads(stdout.strip().splitlines()[-1]) if stdout.strip() else None
    if doc is None:
        raise InvariantError("no JSON report on stdout")
    result = doc.get("result")
    if isinstance(result, dict) and "generators" in result:
        # the order of the generators follows the order of the instance file
        result = dict(result, generators=sorted(result["generators"], key=lambda g: json.dumps(g, sort_keys=True)))
    return {
        "exit": returncode,
        "result": result,
        "violations": sorted({v["kind"] for v in doc.get("violations", [])}),
    }


def cli_argv(entry, morphism, path) -> list[str]:
    _file, command, args, _choices = entry
    argv = ["--json", command, path, *args]
    if morphism is not None:
        argv += ["--morphism", morphism]
    return argv


def cli_key(entry, morphism) -> str:
    name, command, args, _choices = entry
    parts = ["cli", command, name, *args[1::2]]
    if morphism is not None:
        parts.append(morphism)
    return ":".join(parts)


def draw_cli_round(rng) -> list[tuple]:
    """(entry, morphism) pairs of one round, in seeded order."""
    picks = [(entry, rng.choice(entry[3]) if entry[3] else None) for entry in CLI_MIX for _ in range(2)]
    rng.shuffle(picks)
    return picks


def cli_op(entry, morphism, paths, launch) -> Op:
    """launch(argv) runs one CLI process and returns (code, stdout, stderr)."""
    argv = cli_argv(entry, morphism, paths[entry[0]])
    return Op(cli_key(entry, morphism), lambda: launch(argv), lambda v: cli_digest(*v))


def cli_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(prefix: list[str], argv: list[str], env: dict, cwd: str, timeout: float):
    """One CLI process, waited for; returns (code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, *prefix, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr
