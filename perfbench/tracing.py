"""Spans around the library's public calls, installed from outside the library.

``install`` replaces public functions and methods of the ``bivariant``
modules with wrappers that open a span in a ``Tracer``.  Nothing inside the
library changes; a module-level function is replaced in every ``bivariant``
module that imported it, so calls through ``from .x import f`` are seen too.

Spans are aggregated per (name, parent name) as they close, so hot leaves
such as ``Site.compose`` or ``FgAbGroup.reduce`` cost a counter, not a
record.  Operation spans (one per benchmark operation) are kept whole with
their operation id.  Self time is a span's duration minus the time covered
by its child spans; calls are single-threaded, so children never overlap
and their coverage is the sum of their durations.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# The library modules; each is a layer with the same name.
MODULES = ("exactalg", "site", "famsolve", "bivcore", "cooperational", "operational", "workbench", "cli")

# (span name, module, attribute path) for every wrapped public call.
TARGETS = (
    ("exactalg.snf", "exactalg", "smith_decomposition"),
    ("exactalg.reduce", "exactalg", "FgAbGroup.reduce"),
    ("exactalg.hom_check", "exactalg", "GroupHom.__post_init__"),
    ("exactalg.hom_group", "exactalg", "hom_group"),
    ("exactalg.induced_hom", "exactalg", "induced_hom"),
    ("exactalg.kernel", "exactalg", "kernel_image"),
    ("site.paste", "site", "Site.cospan_paste"),
    ("site.paste", "site", "Site.tower_paste"),
    ("site.compose", "site", "Site.compose"),
    ("site.validate", "site", "validate_site"),
    ("site.validate", "site", "GradedFunctor.validate"),
    ("site.validate", "site", "NaturalTransf.validate"),
    ("famsolve.solve", "famsolve", "FamilySolution.__init__"),
    ("famsolve.affine", "famsolve", "FamilySolution.solve_affine"),
    ("cooperational.group", "cooperational", "coop_group"),
    ("cooperational.class_ops", "cooperational", "coop_product"),
    ("cooperational.class_ops", "cooperational", "coop_pushforward"),
    ("cooperational.class_ops", "cooperational", "coop_pullback"),
    ("cooperational.class_ops", "cooperational", "coop_transport"),
    ("cooperational.image_transfer", "cooperational", "coop_image_transfer"),
    ("cooperational.verify", "cooperational", "verify_coop_axioms"),
    ("cooperational.verify", "cooperational", "verify_coop_transform_identities"),
    ("cooperational.verify", "cooperational", "verify_identity_isomorphism"),
    ("cooperational.verify", "cooperational", "naturality_cube_report"),
    ("cooperational.transfer", "cooperational", "TransferSubgroupResult.__init__"),
    ("cooperational.companions", "cooperational", "TransferSubgroupResult.companions"),
    ("operational.group", "operational", "op_group"),
    ("operational.class_ops", "operational", "op_product"),
    ("operational.class_ops", "operational", "op_pushforward"),
    ("operational.class_ops", "operational", "op_pullback"),
    ("operational.class_ops", "operational", "op_transport"),
    ("operational.image_transfer", "operational", "op_image_transfer"),
    ("operational.verify", "operational", "verify_op_axioms"),
    ("operational.verify", "operational", "verify_op_transform_identities"),
    ("operational.verify", "operational", "verify_point_isomorphism"),
    ("bivcore.axioms", "bivcore", "validate_axioms"),
    ("bivcore.groth", "bivcore", "validate_groth"),
    ("bivcore.table_ops", "bivcore", "TabulatedBivTheory.product"),
    ("bivcore.table_ops", "bivcore", "TabulatedBivTheory.pushforward_hom"),
    ("bivcore.table_ops", "bivcore", "TabulatedBivTheory.pullback_hom"),
    ("workbench.parse", "workbench", "parse_instance"),
    ("workbench.validate", "workbench", "InstanceBundle.validate"),
    ("workbench.serialize", "workbench", "bundle_to_json"),
    ("cli.main", "cli", "main"),
)

# The library's lru caches: metric name -> (module, attribute).  Every round
# clears them, and the traced run reports their hit ratio.
CACHES = {
    "exactalg.snf": ("exactalg", "smith_decomposition"),
    "exactalg.hom_group": ("exactalg", "hom_group"),
}

OP_SPAN = "op"


class Tracer:
    """Span recorder for one process; not thread-safe (the loop has one client)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # open frames: [name, seconds covered by children]
        self._open = Counter()  # name -> number of open frames with that name
        self.spans = {}  # (name, parent) -> [calls, seconds, self seconds]
        self.busy = Counter()  # name -> seconds inside outermost frames of that name
        self.maxima = {}
        self.totals = Counter()
        self.ops = []  # [op id, key, start, end] per operation span

    def span(self, name, fn, /, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self._stack.pop()
            self._open[name] -= 1
            if self._stack:
                self._stack[-1][1] += duration
            rec = self.spans.get((name, parent))
            if rec is None:
                rec = self.spans[(name, parent)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - frame[1]
            if not self._open[name]:
                self.busy[name] += duration

    def operation(self, op_id, key, fn):
        """Run one benchmark operation inside an operation span; keep its record."""
        start = self.clock()
        try:
            return self.span(OP_SPAN, fn)
        finally:
            self.ops.append([op_id, key, start, self.clock()])

    def note_max(self, name, value):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def add(self, name, value):
        self.totals[name] += value

    # -- aggregates ----------------------------------------------------------

    def calls(self, name) -> int:
        return sum(rec[0] for (n, _p), rec in self.spans.items() if n == name)

    def layer_self(self, layer) -> float:
        prefix = layer + "."
        return sum(rec[2] for (n, _p), rec in self.spans.items() if n.startswith(prefix))

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "calls": r[0], "seconds": r[1], "self_seconds": r[2]}
                for (n, p), r in sorted(self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "busy": dict(self.busy),
            "maxima": self.maxima,
            "totals": dict(self.totals),
            "ops": self.ops,
        }

    def merge(self, doc: dict) -> None:
        """Fold in the trace of another process (a CLI child)."""
        for s in doc["spans"]:
            rec = self.spans.setdefault((s["name"], s["parent"]), [0, 0.0, 0.0])
            rec[0] += s["calls"]
            rec[1] += s["seconds"]
            rec[2] += s["self_seconds"]
        self.busy.update(doc["busy"])
        for name, value in doc["maxima"].items():
            self.note_max(name, value)
        self.totals.update(doc["totals"])


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _snf_stats(tracer, m):
    tracer.note_max("exactalg.snf.max_dim", max(m.rows, m.cols))
    tracer.note_max(
        "exactalg.snf.max_entry_bits",
        max((abs(x).bit_length() for row in m.entries for x in row), default=0),
    )


def _solve_stats(tracer, solution):
    tracer.note_max("famsolve.solve.unknown_gens_max", solution.unknowns.group.ngens)
    tracer.note_max("famsolve.solve.constraint_gens_max", solution.constraint_sum.group.ngens)


def _transfer_stats(tracer, tsr):
    sub = tsr.subgroup.group
    tracer.add("cooperational.transfer.presented_gens", sub.ngens)
    tracer.add("cooperational.transfer.minimal_gens", sub.free_rank + len(sub.torsion))


def _wrapper(tracer, name, fn, path):
    span = tracer.span
    if path == "smith_decomposition":

        def wrapped(m):
            _snf_stats(tracer, m)
            return span(name, fn, m)

    elif path == "FamilySolution.__init__":

        def wrapped(self, *args, **kwargs):
            span(name, fn, self, *args, **kwargs)
            _solve_stats(tracer, self)

    elif path == "TransferSubgroupResult.__init__":

        def wrapped(self, *args, **kwargs):
            span(name, fn, self, *args, **kwargs)
            _transfer_stats(tracer, self)

    else:

        def wrapped(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def library_modules() -> dict:
    return {name: importlib.import_module(f"bivariant.{name}") for name in MODULES}


def install(tracer: Tracer) -> list:
    """Wrap every target; returns (owner, attribute, original) triples for restore."""
    modules = library_modules()
    namespaces = [importlib.import_module("bivariant"), *modules.values()]
    undo = []
    for name, module, path in TARGETS:
        owner, attr = _resolve(modules[module], path)
        original = owner.__dict__[attr]
        wrapped = _wrapper(tracer, name, original, path)
        if "." in path:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    undo.append((ns, key, original))
                    setattr(ns, key, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def clear_caches(tracer: Tracer | None = None) -> None:
    """Empty the reported lru caches, so that the next round starts cold.

    ``cache_clear()`` also zeroes a cache's counts, so a tracer first gets
    the hits and misses since the last clear added to its totals.
    """
    modules = library_modules()
    for metric, (module, attr) in CACHES.items():
        fn = getattr(modules[module], attr)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        if tracer is not None:
            info = fn.cache_info()
            tracer.add(f"{metric}.hits", info.hits)
            tracer.add(f"{metric}.misses", info.misses)
        fn.cache_clear()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from a finished trace.

    Cache hits and misses and the CLI start-up time arrive as totals: added
    by the traced process itself or merged from its CLI children.
    """
    t = tracer

    def hit_ratio(cache):
        hits, misses = t.totals[f"{cache}.hits"], t.totals[f"{cache}.misses"]
        return _ratio(hits, hits + misses)

    m = {
        "exactalg.reduce.calls": t.calls("exactalg.reduce"),
        "exactalg.reduce.busy_s": t.busy["exactalg.reduce"],
        "exactalg.hom_check.calls": t.calls("exactalg.hom_check"),
        "exactalg.hom_check.busy_s": t.busy["exactalg.hom_check"],
        "exactalg.snf.calls": t.calls("exactalg.snf"),
        "exactalg.snf.hit_ratio": hit_ratio("exactalg.snf"),
        "exactalg.snf.busy_s": t.busy["exactalg.snf"],
        "exactalg.snf.max_dim": t.maxima.get("exactalg.snf.max_dim", 0),
        "exactalg.snf.max_entry_bits": t.maxima.get("exactalg.snf.max_entry_bits", 0),
        "exactalg.hom_group.hit_ratio": hit_ratio("exactalg.hom_group"),
        "exactalg.induced_hom.busy_s": t.busy["exactalg.induced_hom"],
        "exactalg.kernel.busy_s": t.busy["exactalg.kernel"],
        "site.paste.calls": t.calls("site.paste"),
        "site.paste.busy_s": t.busy["site.paste"],
        "site.compose.calls": t.calls("site.compose"),
        "site.validate.busy_s": t.busy["site.validate"],
        "famsolve.solve.calls": t.calls("famsolve.solve"),
        "famsolve.solve.busy_s": t.busy["famsolve.solve"],
        "famsolve.solve.unknown_gens_max": t.maxima.get("famsolve.solve.unknown_gens_max", 0),
        "famsolve.solve.constraint_gens_max": t.maxima.get("famsolve.solve.constraint_gens_max", 0),
        "famsolve.affine.calls": t.calls("famsolve.affine"),
        "famsolve.affine.busy_s": t.busy["famsolve.affine"],
        "cooperational.transfer.busy_s": t.busy["cooperational.transfer"],
        "cooperational.transfer.gens_per_rank": _ratio(
            t.totals["cooperational.transfer.presented_gens"],
            t.totals["cooperational.transfer.minimal_gens"],
        ),
        "cooperational.companions.calls": t.calls("cooperational.companions"),
        "cooperational.companions.busy_s": t.busy["cooperational.companions"],
        "bivcore.axioms.busy_s": t.busy["bivcore.axioms"],
        "bivcore.groth.busy_s": t.busy["bivcore.groth"],
        "bivcore.table_ops.calls": t.calls("bivcore.table_ops"),
        "workbench.parse.busy_s": t.busy["workbench.parse"],
        "workbench.validate.busy_s": t.busy["workbench.validate"],
        "workbench.serialize.busy_s": t.busy["workbench.serialize"],
        "cli.main.busy_s": t.busy["cli.main"],
        "cli.startup_s": t.totals["cli.startup_s"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for mod in ("cooperational", "operational"):
        m[f"{mod}.group.busy_s"] = t.busy[f"{mod}.group"]
        m[f"{mod}.class_ops.calls"] = t.calls(f"{mod}.class_ops")
        m[f"{mod}.class_ops.busy_s"] = t.busy[f"{mod}.class_ops"]
        m[f"{mod}.image_transfer.busy_s"] = t.busy[f"{mod}.image_transfer"]
        m[f"{mod}.verify.busy_s"] = t.busy[f"{mod}.verify"]
    for layer in MODULES:
        m[f"{layer}.self_s"] = t.layer_self(layer)
    return m
