"""Outside-in layer tracing: run one job with wrappers around mbsa's layers.

Usage::

    PYTHONPATH=src python perfbench/tracer.py SPANS.json JOB_ID cli ARGV...
    PYTHONPATH=src python perfbench/tracer.py SPANS.json JOB_ID trees ARGV...

The process imports the program, replaces each traced function at every
module attribute that binds it (and each traced method on its class), then
calls ``mbsa.cli.main(ARGV)`` or ``trees_job.main(ARGV)``.  Every
call of a traced function becomes a span (name, start, end, parent, job);
spans and counters stay in memory and are written to SPANS.json when the job
ends.  One root span covers the whole job from before the first import, so
the self times of all spans sum to the root's duration.  No file of the
program is changed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before any program import: the root span starts here

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# (module, function or Class.method, span name)
SPANNED = (
    ("mbsa.sts.parse", "parse_model", "sts.parse_model"),
    ("mbsa.sts.check", "type_check", "sts.type_check"),
    ("mbsa.sts.engine", "Engine.succ_tuples", "sts.engine.succ_tuples"),
    ("mbsa.sts.engine", "Engine.reach_tuples", "sts.engine.reach_tuples"),
    ("mbsa.faults", "extend_model", "faults.extend_model"),
    ("mbsa.cca", "apply_cca", "cca.apply_cca"),
    ("mbsa.analysis", "Analyzer.explains", "analysis.explains"),
    ("mbsa.analysis", "compute_mcs", "analysis.compute_mcs"),
    ("mbsa.analysis", "compute_cut_sequences", "analysis.compute_cut_sequences"),
    ("mbsa.fault_tree", "build_fault_tree", "fault_tree.build_fault_tree"),
    ("mbsa.fault_tree", "evaluate_probability", "fault_tree.evaluate_probability"),
    ("mbsa.fault_tree", "rare_event_approximation", "fault_tree.rare_event_approximation"),
    ("mbsa.fault_tree", "symbolic_probability", "fault_tree.symbolic_probability"),
    ("mbsa.probability", "render_prob_script", "probability.render_prob_script"),
    ("mbsa.fmea", "generate_fmea", "fmea.generate_fmea"),
    ("mbsa.fmea", "generate_dynamic_fmea", "fmea.generate_dynamic_fmea"),
    ("mbsa.tfpg.validate", "validate_behavioral", "tfpg.validate_behavioral"),
    ("mbsa.tfpg.synth", "synthesize_structure", "tfpg.synthesize_structure"),
    ("mbsa.tfpg.admit", "admits", "tfpg.admits"),
    ("mbsa.tfpg.activation", "activation_trace_of", "tfpg.activation_trace_of"),
    # the artifact writers
    ("mbsa.analysis", "cutsets_to_tsv", "cli.export"),
    ("mbsa.analysis", "cutsets_to_xml", "cli.export"),
    ("mbsa.fault_tree", "export_ft", "cli.export"),
    ("mbsa.fmea", "export_fmea", "cli.export"),
    ("mbsa.tfpg.graph", "write_tfpg", "cli.export"),
)

# called too often for a span each: counted only
COUNTED = (
    ("mbsa.tfpg.activation", "BindingEvaluator.observe", "tfpg.observe.calls"),
)


def _pnodes(root) -> int:
    """Distinct nodes of a symbolic probability DAG."""
    seen = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        stack.extend(c for c in (getattr(n, "left", None), getattr(n, "right", None)) if c is not None)
    return len(seen)


class Recorder:
    """In-memory spans and counters of one job."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.states: set = set()

    def on_result(self, name: str, args, result):
        """Work counters read off a traced call's arguments and result."""
        c = self.counts
        if name == "sts.engine.succ_tuples":
            self.states.add(args[1])
            c["sts.engine.succ_tuples.out"] += len(result)
        elif name == "analysis.compute_mcs":
            c["analysis.mcs.count"] += len(result.mcs)
        elif name == "analysis.compute_cut_sequences":
            c["analysis.cut_sequences.orders"] += sum(len(s.orders) for s in result)
        elif name == "fault_tree.build_fault_tree":
            c["fault_tree.nodes"] += len(result.nodes)
        elif name == "fault_tree.symbolic_probability":
            c["probability.pnodes"] += _pnodes(result.root)
        elif name == "probability.render_prob_script":
            c["probability.script_bytes"] += len(result.encode("utf-8"))
        elif name == "tfpg.validate_behavioral":
            c["tfpg.validate_behavioral.explored_states"] += result.explored_states

    def span(self, fn, name: str):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(rec.spans)
            rec.spans.append([name, 0.0, 0.0, rec.stack[-1] if rec.stack else None])
            rec.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans[sid][1:3] = (start, end)
            rec.on_result(name, args, result)
            return result

        return traced

    def counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: Path):
        self.counts["sts.engine.succ_tuples.distinct"] = len(self.states)
        spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p, "job": self.job}
                 for i, (n, s, e, p) in enumerate(self.spans)]
        path.write_text(json.dumps({"job": self.job, "spans": spans, "counts": dict(self.counts)}),
                        encoding="utf-8")


def install(rec: Recorder, extra_modules=()):
    """Wrap every traced function wherever a loaded module binds it."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "mbsa" or name.startswith("mbsa.")]
    modules += list(extra_modules)
    for table, make in ((SPANNED, rec.span), (COUNTED, rec.counter)):
        for mod_name, attr, name in table:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue  # layer not loaded by this job
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, make(cls.__dict__[meth], name))
                continue
            original = getattr(mod, attr)
            wrapper = make(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = []
    for sp in spans:
        start, end = sp["start"], sp["end"]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sp["id"], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# per-layer metric -> (unit, how it is derived from one job's spans and counts)
LAYER_METRICS = {
    "sts.parse_model.s": ("s", "total", "sts.parse_model"),
    "sts.type_check.s": ("s", "total", "sts.type_check"),
    "sts.engine.succ_tuples.calls": ("count", "calls", "sts.engine.succ_tuples"),
    "sts.engine.succ_tuples.distinct": ("count", "count", "sts.engine.succ_tuples.distinct"),
    "sts.engine.succ_tuples.out": ("count", "count", "sts.engine.succ_tuples.out"),
    "sts.engine.succ_tuples.s": ("s", "total", "sts.engine.succ_tuples"),
    "sts.engine.succ_tuples.reuse": ("ratio", "ratio", ("sts.engine.succ_tuples.calls",
                                                        "sts.engine.succ_tuples.distinct")),
    "sts.engine.reach_tuples.calls": ("count", "calls", "sts.engine.reach_tuples"),
    "sts.engine.reach_tuples.self_s": ("s", "self", "sts.engine.reach_tuples"),
    "faults.extend_model.s": ("s", "total", "faults.extend_model"),
    "cca.apply_cca.s": ("s", "total", "cca.apply_cca"),
    "analysis.explains.calls": ("count", "calls", "analysis.explains"),
    "analysis.mcs.count": ("count", "count", "analysis.mcs.count"),
    "analysis.mcs.yield": ("ratio", "ratio", ("analysis.mcs.count", "analysis.explains.calls")),
    "analysis.compute_mcs.self_s": ("s", "self", "analysis.compute_mcs"),
    "analysis.compute_cut_sequences.self_s": ("s", "self", "analysis.compute_cut_sequences"),
    "analysis.cut_sequences.orders": ("count", "count", "analysis.cut_sequences.orders"),
    "fault_tree.build_fault_tree.s": ("s", "total", "fault_tree.build_fault_tree"),
    "fault_tree.nodes": ("count", "count", "fault_tree.nodes"),
    "fault_tree.evaluate_probability.calls": ("count", "calls", "fault_tree.evaluate_probability"),
    "fault_tree.evaluate_probability.s": ("s", "total", "fault_tree.evaluate_probability"),
    "fault_tree.rare_event_approximation.self_s": ("s", "self", "fault_tree.rare_event_approximation"),
    "fault_tree.symbolic_probability.s": ("s", "total", "fault_tree.symbolic_probability"),
    "probability.pnodes": ("count", "count", "probability.pnodes"),
    "probability.render_prob_script.s": ("s", "total", "probability.render_prob_script"),
    "probability.script_bytes": ("bytes", "count", "probability.script_bytes"),
    "fmea.generate_fmea.self_s": ("s", "self", "fmea.generate_fmea"),
    "fmea.generate_dynamic_fmea.self_s": ("s", "self", "fmea.generate_dynamic_fmea"),
    "tfpg.validate_behavioral.self_s": ("s", "self", "tfpg.validate_behavioral"),
    "tfpg.validate_behavioral.explored_states": ("count", "count", "tfpg.validate_behavioral.explored_states"),
    "tfpg.synthesize_structure.self_s": ("s", "self", "tfpg.synthesize_structure"),
    "tfpg.observe.calls": ("count", "count", "tfpg.observe.calls"),
    "tfpg.admits.s": ("s", "total", "tfpg.admits", "tfpg.activation_trace_of"),
    "cli.export.s": ("s", "total", "cli.export"),
    # measured by the harness around the traced job
    "cli.artifact_bytes": ("bytes", "harness"),
    "trace.overhead_ratio": ("ratio", "harness"),
}


def job_layers(data: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job (ratios as their two terms, see
    :func:`finish_layers`)."""
    spans = data["spans"]
    selfs = self_times(spans)
    by_id = {sp["id"]: sp for sp in spans}
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    for sp, own in zip(spans, selfs):
        name = sp["name"]
        calls[name] += 1
        self_s[name] += own
        parent = by_id.get(sp["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:  # outermost span of its name: avoid counting nested time twice
            total[name] += sp["end"] - sp["start"]
    out: dict[str, float] = {}
    for metric, (_, how, *keys) in LAYER_METRICS.items():
        if how in ("ratio", "harness"):
            continue
        source = {"total": total, "self": self_s, "calls": calls, "count": data["counts"]}[how]
        out[metric] = float(sum(source.get(k, 0) for k in keys))
    out["trace.spans"] = float(len(spans))
    out["trace.root_s"] = spans[0]["end"] - spans[0]["start"]
    out["trace.self_sum_s"] = sum(selfs)
    return out


def finish_layers(sums: dict[str, float]) -> dict[str, float]:
    """Fill in the ratio metrics from summed terms."""
    out = dict(sums)
    for metric, (_, how, *keys) in LAYER_METRICS.items():
        if how == "ratio":
            num, den = (sums.get(k, 0.0) for k in keys[0])
            out[metric] = num / den if den else 0.0
    return out


def main(argv: list[str]) -> int:
    spans_path, job, kind, job_argv = Path(argv[0]), argv[1], argv[2], argv[3:]
    rec = Recorder(job)
    rec.spans.append(["job", _T0, 0.0, None])
    rec.stack.append(0)
    code = 2
    try:
        if kind == "cli":
            import mbsa.cli as entry
            extra = ()
        else:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import trees_job as entry
            extra = (entry,)
        install(rec, extra)
        code = entry.main(job_argv)
    finally:
        rec.spans[0][2] = time.perf_counter()
        rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
