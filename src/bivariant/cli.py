"""Command-line interface: validate instance files and run the computations.

Exit codes: 0 = success / empty report, 1 = mathematical violation found,
2 = input or schema error.  Output is byte-deterministic for a fixed
input; timings are omitted unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .exactalg import WellDefinednessError
from .report import ValidationReport
from .site import MissingMapError, validate_site
from .bivcore import MissingTableError, validate_axioms, validate_groth
from . import cooperational as coop
from . import operational as op
from .workbench import (
    InstanceFileError,
    InstanceViolationError,
    load_instance,
    run_demo,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _group_json(g):
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _class_json(components):
    out = {}
    for (g, m), hom in sorted(components.items()):
        out[f"{g}@{m}"] = [list(r) for r in hom.mat.entries]
    return out


def _elapsed_ms(started) -> int:
    return int((time.monotonic() - started) * 1000)


def _emit(args, payload: dict, violations: ValidationReport | None, started) -> int:
    violist = violations.to_json() if violations is not None else []
    code = EXIT_OK if not violist else EXIT_VIOLATION
    if args.json:
        doc = {
            "command": args.command,
            "inputs": payload.get("inputs", {}),
            "result": payload.get("result"),
            "violations": violist,
            "timing_ms": _elapsed_ms(started) if args.timings else None,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in payload.get("lines", []):
            sys.stdout.write(line + "\n")
        if violations is not None:
            for v in violations.violations:
                sys.stdout.write("VIOLATION " + v.line() + "\n")
        if args.timings:
            sys.stdout.write(f"timing_ms: {_elapsed_ms(started)}\n")
    return code


def _need(mapping, name, what):
    if name not in mapping:
        raise InstanceFileError(what, f"no {what} named {name!r} in this file")
    return mapping[name]


def _cmd_validate(args, started):
    bundle = load_instance(args.file)
    report = bundle.validate()
    lines = [f"validated {args.file}: " + ("OK" if report.ok else "violations found")]
    return _emit(
        args,
        {"inputs": {"file": args.file}, "result": {"ok": report.ok}, "lines": lines},
        report,
        started,
    )


def _cmd_family(args, started):
    """op and coop: the group of operational or co-operational classes."""
    bundle = load_instance(args.file)
    functor = _need(bundle.functors, args.functor, "functor")
    if not bundle.site.has_morphism(args.morphism):
        raise InstanceFileError("morphism", f"unknown morphism {args.morphism!r}")
    inputs = {"file": args.file, "functor": args.functor, "morphism": args.morphism, "degree": args.degree}
    pre = ValidationReport.merged(validate_site(bundle.site), functor.validate())
    if not pre.ok:
        return _emit(args, {"inputs": inputs, "lines": []}, pre, started)
    result = args.group(functor, args.morphism, args.degree)
    gens = result.decoded_gens()
    payload = {
        "inputs": inputs,
        "result": {
            "group": _group_json(result.group),
            "generators": [_class_json(c.components) for c in gens],
        },
        "lines": [
            f"{args.theory} group ({args.functor}, {args.morphism}, degree {args.degree}): {result.group.pretty()}"
        ]
        + [f"generator {i}: {len(c.components)} components" for i, c in enumerate(gens)],
    }
    return _emit(args, payload, ValidationReport(), started)


def _cmd_check(args, started):
    """axioms and groth: one named theory or Grothendieck map, checked."""
    bundle = load_instance(args.file)
    name = getattr(args, args.key)
    checked = _need(getattr(bundle, args.table), name, args.what)
    report = validate_site(bundle.site)
    if report.ok:
        report = args.check(checked)
    lines = [args.prefix.format(name) + ("PASS" if report.ok else "FAIL")]
    return _emit(
        args,
        {"inputs": {"file": args.file, args.key: name}, "result": {"ok": report.ok}, "lines": lines},
        report,
        started,
    )


def _cmd_bcoopt(args, started):
    bundle = load_instance(args.file)
    transf = _need(bundle.transformations, args.nat, "transformation")
    if not bundle.site.has_morphism(args.morphism):
        raise InstanceFileError("morphism", f"unknown morphism {args.morphism!r}")
    inputs = {"file": args.file, "nat": args.nat, "morphism": args.morphism, "degree": args.degree}
    pre = ValidationReport.merged(
        validate_site(bundle.site), transf.src.validate(), transf.tgt.validate(), transf.validate()
    )
    if not pre.ok:
        return _emit(args, {"inputs": inputs, "lines": []}, pre, started)
    tsr = coop.transfer_subgroup(transf, args.morphism, args.degree)
    gens_info = []
    for x in tsr.subgroup.group.gens():
        cls = tsr.source_result.decode(tsr.subgroup.inclusion(x))
        sols = tsr.companions(cls)
        gens_info.append(
            {
                "has_companion": sols.particular is not None,
                "companion_unique": sols.is_unique,
                "homogeneous": _group_json(sols.homogeneous.group),
            }
        )
    payload = {
        "inputs": inputs,
        "result": {
            "ambient": _group_json(tsr.source_result.group),
            "subgroup": _group_json(tsr.subgroup.group),
            "generators": gens_info,
        },
        "lines": [
            f"transfer subgroup ({args.nat}, {args.morphism}, degree {args.degree}): "
            f"{tsr.subgroup.group.pretty()} inside {tsr.source_result.group.pretty()}"
        ],
    }
    return _emit(args, payload, ValidationReport(), started)


def _cmd_demo(args, started):
    lines, ok = run_demo(args.n)
    if args.json:
        doc = {
            "command": "demo",
            "inputs": {"what": args.what, "n": args.n},
            "result": {"ok": ok, "checks": lines},
            "violations": [] if ok else [{"kind": "demo", "message": l, "witness": {}} for l in lines if "FAIL" in l],
            "timing_ms": _elapsed_ms(started) if args.timings else None,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for l in lines:
            sys.stdout.write(l + "\n")
        if args.timings:
            sys.stdout.write(f"timing_ms: {_elapsed_ms(started)}\n")
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bivariant",
        description="exact operational / co-operational bivariant computations",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--timings", action="store_true", help="include wall-clock timing")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate every component of an instance file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_validate)

    for command, text, group, theory in (
        ("coop", "compute a co-operational group", coop.coop_group, "co-operational"),
        ("op", "compute an operational group", op.op_group, "operational"),
    ):
        sp = sub.add_parser(command, help=text)
        sp.add_argument("file")
        sp.add_argument("--functor", required=True)
        sp.add_argument("--morphism", required=True)
        sp.add_argument("--degree", type=int, required=True)
        sp.set_defaults(func=_cmd_family, group=group, theory=theory)

    sp = sub.add_parser("axioms", help="check the seven axioms plus units of a theory")
    sp.add_argument("file")
    sp.add_argument("--theory", required=True)
    sp.set_defaults(
        func=_cmd_check,
        key="theory",
        table="theories",
        what="theory",
        check=validate_axioms,
        prefix="theory {}: 7 axioms + Units: ",
    )

    sp = sub.add_parser("groth", help="check a Grothendieck transformation")
    sp.add_argument("file")
    sp.add_argument("--map", required=True)
    sp.set_defaults(
        func=_cmd_check,
        key="map",
        table="groth",
        what="groth",
        check=validate_groth,
        prefix="transformation {}: ",
    )

    sp = sub.add_parser("bcoopt", help="transfer subgroup along a natural transformation")
    sp.add_argument("file")
    sp.add_argument("--nat", required=True)
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=_cmd_bcoopt)

    sp = sub.add_parser("demo", help="run the bundled verification suite")
    sp.add_argument("what", choices=["subsets"])
    sp.add_argument("--n", type=int, default=2)
    sp.set_defaults(func=_cmd_demo)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        return args.func(args, started)
    except InstanceFileError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (InstanceViolationError, WellDefinednessError, MissingTableError, MissingMapError) as exc:
        sys.stderr.write(f"violation: {exc}\n")
        return EXIT_VIOLATION
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
