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


def _emit(args, payload: dict, violations: ValidationReport | None, started) -> int:
    violist = violations.to_json() if violations is not None else []
    code = EXIT_OK if not violist else EXIT_VIOLATION
    if args.json:
        doc = {
            "command": args.command,
            "inputs": payload.get("inputs", {}),
            "result": payload.get("result"),
            "violations": violist,
            "timing_ms": int((time.monotonic() - started) * 1000) if args.timings else None,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in payload.get("lines", []):
            sys.stdout.write(line + "\n")
        if violations is not None:
            for v in violations.violations:
                sys.stdout.write("VIOLATION " + v.line() + "\n")
        if args.timings:
            sys.stdout.write(f"timing_ms: {int((time.monotonic() - started) * 1000)}\n")
    return code


def _need(bundle, mapping, name, what):
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
    functor = _need(bundle, bundle.functors, args.functor, "functor")
    if not bundle.site.has_morphism(args.morphism):
        raise InstanceFileError("morphism", f"unknown morphism {args.morphism!r}")
    inputs = {"file": args.file, "functor": args.functor, "morphism": args.morphism, "degree": args.degree}
    pre = ValidationReport.merged(validate_site(bundle.site), functor.validate())
    if not pre.ok:
        return _emit(args, {"inputs": inputs, "lines": []}, pre, started)
    if args.command == "op":
        name, result = "operational", op.op_group(functor, args.morphism, args.degree)
    else:
        name, result = "co-operational", coop.coop_group(functor, args.morphism, args.degree)
    gens = result.decoded_gens()
    payload = {
        "inputs": inputs,
        "result": {
            "group": _group_json(result.group),
            "generators": [_class_json(c.components) for c in gens],
        },
        "lines": [
            f"{name} group ({args.functor}, {args.morphism}, degree {args.degree}): {result.group.pretty()}"
        ]
        + [f"generator {i}: {len(c.components)} components" for i, c in enumerate(gens)],
    }
    return _emit(args, payload, ValidationReport(), started)


def _cmd_axioms(args, started):
    bundle = load_instance(args.file)
    theory = _need(bundle, bundle.theories, args.theory, "theory")
    report = validate_site(bundle.site)
    if report.ok:
        report = validate_axioms(theory)
    lines = [
        f"theory {args.theory}: 7 axioms + Units: " + ("PASS" if report.ok else "FAIL")
    ]
    return _emit(
        args,
        {"inputs": {"file": args.file, "theory": args.theory}, "result": {"ok": report.ok}, "lines": lines},
        report,
        started,
    )


def _cmd_groth(args, started):
    bundle = load_instance(args.file)
    transf = _need(bundle, bundle.groth, args.map, "groth")
    report = validate_site(bundle.site)
    if report.ok:
        report = validate_groth(transf)
    lines = [f"transformation {args.map}: " + ("PASS" if report.ok else "FAIL")]
    return _emit(
        args,
        {"inputs": {"file": args.file, "map": args.map}, "result": {"ok": report.ok}, "lines": lines},
        report,
        started,
    )


def _cmd_bcoopt(args, started):
    bundle = load_instance(args.file)
    transf = _need(bundle, bundle.transformations, args.nat, "transformation")
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
    if args.what != "subsets":
        raise InstanceFileError("demo", f"unknown demo {args.what!r}")
    lines, ok = run_demo(args.n)
    if args.json:
        doc = {
            "command": "demo",
            "inputs": {"what": args.what, "n": args.n},
            "result": {"ok": ok, "checks": lines},
            "violations": [] if ok else [{"kind": "demo", "message": l, "witness": {}} for l in lines if "FAIL" in l],
            "timing_ms": int((time.monotonic() - started) * 1000) if args.timings else None,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for l in lines:
            sys.stdout.write(l + "\n")
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

    sp = sub.add_parser("coop", help="compute a co-operational group")
    sp.add_argument("file")
    sp.add_argument("--functor", required=True)
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("op", help="compute an operational group")
    sp.add_argument("file")
    sp.add_argument("--functor", required=True)
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("axioms", help="check the seven axioms plus units of a theory")
    sp.add_argument("file")
    sp.add_argument("--theory", required=True)
    sp.set_defaults(func=_cmd_axioms)

    sp = sub.add_parser("groth", help="check a Grothendieck transformation")
    sp.add_argument("file")
    sp.add_argument("--map", required=True)
    sp.set_defaults(func=_cmd_groth)

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
