#!/usr/bin/env python3
"""Per-layer table of a traced floqbench run.

    python3 perfbench/layer_table.py REPORT.json

Reads the run's report and its Chrome trace (spans recorded by the
benchmark around each layer's public calls, plus the spans floq already
emits) and prints, per span name and per layer: calls, busy time, self time,
and p50/p99 per call; then, for each end-to-end figure the layers attribute,
each layer's share and the unattributed residual. run.py uses analyze()
for the per-layer metrics of BENCHMARK.json, which every workload reports
for every layer.
"""

import json
import sys
from collections import defaultdict

# Span name prefix -> layer (module), first match wins. client.* (the
# end-to-end round trips) and replay.* (grouping and the replay's own
# chase, which the daemon's chase.run spans already record) belong to no
# layer.
LAYER_OF_PREFIX = [
    ("engine.signature_stage", "signature"),
    ("engine.chase_stage", "chase"),
    ("engine.hom_stage", "hom"),
    ("engine.", "engine"),
    ("check.", "containment"),
    ("flogic.", "flogic"),
    ("chase.", "chase"),
    ("hom.", "hom"),
    ("classifier.", "taxonomy"),
    ("index.taxonomy", "taxonomy"),
    ("index.", "index"),
    ("registry.", "registry"),
    ("wal.", "wal"),
    ("protocol.", "protocol"),
    ("serve.", "daemon"),
]
LAYERS = ["flogic", "engine", "containment", "signature", "chase", "hom",
          "taxonomy", "index", "registry", "wal", "protocol", "daemon"]
LAYER_STATS = [("calls", "count"), ("busy_ms", "ms"), ("self_ms", "ms"),
               ("p50_us", "us"), ("p99_us", "us")]


def layer_of(name):
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return None


def quantile(values, q):
    """Linear-interpolated quantile, as floqbench computes it."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def load_spans(trace_path):
    """Complete events with a self time (duration minus the part of it the
    spans nested inside it on the same thread cover), a layer, and whether
    the span is a call into its layer: no enclosing span on its thread
    belongs to the same layer."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_thread = defaultdict(list)
    for e in events:
        e["self"] = e["dur"]
        e["layer"] = layer_of(e["name"])
        by_thread[e["tid"]].append(e)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] < end - 1e-3:
                stack.pop()
            if stack:
                stack[-1]["self"] -= e["dur"]
            e["call"] = e["layer"] is not None and all(
                a["layer"] != e["layer"] for a in stack)
            stack.append(e)
    return events


class Spans:
    def __init__(self, trace_path):
        self.events = load_spans(trace_path)

    def durations(self, name, **args):
        """Per-call durations in microseconds, filtered on span args."""
        out = []
        for e in self.events:
            if e["name"] != name:
                continue
            a = e.get("args", {})
            if all(a.get(k) == v for k, v in args.items()):
                out.append(e["dur"])
        return out

    def p50(self, name, **args):
        return quantile(self.durations(name, **args), 0.5)

    def p99(self, name, **args):
        return quantile(self.durations(name, **args), 0.99)

    def busy_ms(self, name, **args):
        return sum(self.durations(name, **args)) / 1000.0

    def rows(self):
        groups = defaultdict(list)
        for e in self.events:
            groups[e["name"]].append(e)
        rows = []
        for name, spans in groups.items():
            durs = [e["dur"] for e in spans]
            rows.append({
                "layer": name,
                "calls": len(spans),
                "busy_ms": sum(durs) / 1000.0,
                "self_ms": sum(e["self"] for e in spans) / 1000.0,
                "p50_us": quantile(durs, 0.5),
                "p99_us": quantile(durs, 0.99),
            })
        rows.sort(key=lambda r: -r["busy_ms"])
        return rows

    def layer_rows(self):
        """Per layer: calls into it, their busy time and p50/p99, and the
        self time of every span of the layer; zero for a layer the run
        does not call."""
        calls = defaultdict(list)
        self_us = defaultdict(float)
        for e in self.events:
            if e["layer"] is None:
                continue
            self_us[e["layer"]] += e["self"]
            if e["call"]:
                calls[e["layer"]].append(e["dur"])
        return {layer: {
            "calls": len(calls[layer]),
            "busy_ms": sum(calls[layer]) / 1000.0,
            "self_ms": self_us[layer] / 1000.0,
            "p50_us": quantile(calls[layer], 0.5),
            "p99_us": quantile(calls[layer], 0.99),
        } for layer in LAYERS}


def _m(value, unit):
    return {"value": value, "unit": unit}


def _mean(ops, key):
    return sum(op[key] for op in ops) / len(ops)


def _classify(report, spans):
    ops = report["details"]["ops"]
    iters = len(ops)
    jobs = report["details"]["jobs"]
    check_all = spans.busy_ms("engine.check_all") / iters
    signature = _mean(ops, "signature.ms")
    chase = _mean(ops, "chase.stage_ms")
    hom = _mean(ops, "hom.stage_ms")
    taxonomy = spans.busy_ms("classifier.taxonomy") / iters
    setup_ms = _mean(ops, "setup_s") * 1000
    classify_ms = _mean(ops, "classify_s") * 1000
    parse = spans.busy_ms("flogic.parse") / iters
    add = spans.busy_ms("engine.add_query") / iters
    fanout = check_all - signature - chase - hom / jobs
    figures = {
        "engine.add_query_ms": _m(add, "ms"),
        "engine.check_all_ms": _m(check_all, "ms"),
        "engine.fanout_ms": _m(fanout, "ms"),
        "engine.queue_wait_ms": _m(_mean(ops, "engine.queue_wait_ms"), "ms"),
        "signature.ms": _m(signature, "ms"),
        "signature.pruned_ratio": _m(_mean(ops, "signature.pruned_ratio"),
                                     "ratio"),
        "chase.stage_ms": _m(chase, "ms"),
        "chase.runs": _m(_mean(ops, "chase.runs"), "count"),
        "chase.deepenings": _m(_mean(ops, "chase.deepenings"), "count"),
        "hom.stage_ms": _m(hom, "ms"),
        "hom.nodes": _m(_mean(ops, "hom.nodes"), "count"),
        "taxonomy.ms": _m(taxonomy, "ms"),
        "taxonomy.classes": _m(_mean(ops, "taxonomy.classes"), "count"),
        "taxonomy.hasse_edges": _m(_mean(ops, "taxonomy.hasse_edges"),
                                   "count"),
        "flogic.parse_us": _m(spans.p50("flogic.parse"), "us"),
    }
    attribution = [
        ("op_p50_us = classify_s (ms, mean of the traced batches)",
         classify_ms, [
            ("engine.signature", signature), ("engine.chase_stage", chase),
            ("engine.hom_stage / jobs", hom / jobs),
            ("engine.fanout", fanout), ("classifier.taxonomy", taxonomy)]),
        ("setup_s (ms)", setup_ms, [
            ("flogic.parse", parse), ("engine.add_query", add)]),
    ]
    return figures, attribution


def _serve_read(report, spans):
    c = report["details"]["counters"]
    cached_rt = spans.p50("client.round_trip", kind="cached")
    frame = spans.p50("protocol.frame", kind="cached")
    parse = spans.p50("protocol.json_parse", kind="cached")
    serialize = spans.p50("protocol.json_serialize", kind="cached")
    snapshot = spans.p50("registry.snapshot", kind="cached")
    residual = cached_rt - (2 * frame + parse + serialize + snapshot)
    adhoc_rt = spans.p50("client.round_trip", kind="adhoc")
    fl_parse = spans.p50("flogic.parse")
    chase = spans.p50("replay.chase_to_bound")
    hom = spans.p50("hom.search")
    figures = {
        "protocol.json_parse_us": _m(parse, "us"),
        "protocol.json_serialize_us": _m(serialize, "us"),
        "protocol.frame_us": _m(frame, "us"),
        "registry.snapshot_us": _m(snapshot, "us"),
        "registry.setup_register_p50_us": _m(spans.p50("registry.register"),
                                             "us"),
        "daemon.residual_us": _m(residual, "us"),
        "daemon.cmd_contain_us": _m(report["details"]["daemon.cmd_contain_us"],
                                    "us"),
        "flogic.parse_us": _m(fl_parse, "us"),
        "chase.p50_us": _m(chase, "us"),
        "chase.p99_us": _m(spans.p99("replay.chase_to_bound"), "us"),
        "chase.atoms_p50": _m(c["chase.atoms_p50"], "count"),
        "hom.p50_us": _m(hom, "us"),
        "hom.p99_us": _m(spans.p99("hom.search"), "us"),
        "hom.nodes_p99": _m(c["hom.nodes_p99"], "count"),
        "hom.budget_trips": _m(c["hom.budget_trips"], "count"),
    }
    adhoc_layers = [("flogic.parse x2", 2 * fl_parse), ("chase", chase),
                    ("hom", hom), ("protocol",
                                   2 * spans.p50("protocol.frame", kind="adhoc")
                                   + spans.p50("protocol.json_parse",
                                               kind="adhoc")
                                   + spans.p50("protocol.json_serialize",
                                               kind="adhoc"))]
    attribution = [
        ("op_p50_us = cached contain p50 (us)", cached_rt, [
            ("protocol.frame x2", 2 * frame), ("protocol.json_parse", parse),
            ("protocol.json_serialize", serialize),
            ("registry.snapshot", snapshot)]),
        ("contain_adhoc_p50_us (us, sum of per-layer p50s)", adhoc_rt,
         adhoc_layers),
    ]
    return figures, attribution


def _serve_write(report, spans):
    c = report["details"]["counters"]
    register = spans.p50("registry.register", churn=1)
    wal = spans.p50("wal.append", churn=1)
    insert = spans.p50("index.insert", churn=1)
    taxonomy = spans.p50("index.taxonomy", churn=1)
    publish = register - (wal + insert + taxonomy)
    register_rt = spans.p50("client.register", churn=1)
    figures = {
        "registry.register_p50_us": _m(register, "us"),
        "registry.unregister_p50_us": _m(spans.p50("registry.unregister",
                                                   churn=1), "us"),
        "registry.publish_residual_us": _m(publish, "us"),
        "registry.checkpoint_ms": _m(spans.p50("registry.checkpoint") / 1000,
                                     "ms"),
        "registry.open_ms": _m(spans.p50("registry.open") / 1000, "ms"),
        "registry.rss_growth_mb": _m(c["registry.rss_growth_mb"], "MB"),
        "registry.snapshot_us": _m(spans.p50("registry.snapshot", churn=1),
                                   "us"),
        "wal.append_p50_us": _m(spans.p50("wal.append"), "us"),
        "wal.append_p99_us": _m(spans.p99("wal.append"), "us"),
        "wal.replay_ms": _m(spans.p50("wal.open") / 1000, "ms"),
        "index.insert_p50_us": _m(spans.p50("index.insert"), "us"),
        "index.insert_p99_us": _m(spans.p99("index.insert"), "us"),
        "index.checked_pairs": _m(c["index.checked_pairs"], "count"),
        "index.pruned_ratio": _m(c["index.pruned_ratio"], "ratio"),
        "index.taxonomy_us": _m(taxonomy, "us"),
    }
    for d in range(1, 11):
        figures["registry.register_us.d%02d" % d] = _m(
            spans.p50("registry.register", churn=0, decile=d), "us")
    attribution = [
        ("op_p50_us = register p50 (us, churn at live size W)",
         register_rt, [
            ("wal.append", wal), ("index.insert", insert),
            ("index.taxonomy", taxonomy), ("registry publish residual",
                                           publish)]),
    ]
    return figures, attribution


# The figures each workload's layers were designed around and the
# attribution of its end-to-end figures; kept in the report and printed,
# not in the result line (whose metrics every workload reports alike).
ANALYZERS = {"classify": _classify, "serve_read": _serve_read,
             "serve_write": _serve_write}


def analyze(report, trace_path):
    """(per-layer metrics, figures, printed table) of a traced run. The
    per-layer metrics are the ones BENCHMARK.json declares, with the same
    names on every workload."""
    spans = Spans(trace_path)
    figures, attribution = ANALYZERS[report["env"]["workload"]](report, spans)
    layers = spans.layer_rows()
    metrics = {}
    for layer, row in layers.items():
        for stat, unit in LAYER_STATS:
            metrics["%s.%s" % (layer, stat)] = _m(row[stat], unit)
    over = report["details"]["overhead"]
    metrics["trace.overhead_ratio"] = _m(
        over["op_p50_us.traced"] / over["op_p50_us.untraced"], "ratio")
    metrics["trace.dropped"] = _m(report["details"]["trace_dropped"], "count")

    row = "%-34s %9d %11.2f %11.2f %11.2f %11.2f"
    header = "%-34s %9s %11s %11s %11s %11s"
    lines = [header % ("span", "calls", "busy_ms", "self_ms", "p50_us",
                       "p99_us")]
    for r in spans.rows():
        lines.append(row % (r["layer"], r["calls"], r["busy_ms"],
                            r["self_ms"], r["p50_us"], r["p99_us"]))
    lines.append("")
    lines.append(header % ("layer", "calls", "busy_ms", "self_ms", "p50_us",
                           "p99_us"))
    for layer, r in layers.items():
        lines.append(row % (layer, r["calls"], r["busy_ms"], r["self_ms"],
                            r["p50_us"], r["p99_us"]))
    for figure, total, parts in attribution:
        lines.append("")
        lines.append("%s = %.2f" % (figure, total))
        accounted = 0.0
        for name, value in parts:
            accounted += value
            share = value / total if total else 0.0
            lines.append("  %-40s %11.2f %6.1f%%" % (name, value, 100 * share))
        residual = total - accounted
        share = residual / total if total else 0.0
        lines.append("  %-40s %11.2f %6.1f%%" % ("unattributed residual",
                                                 residual, 100 * share))
    lines.append("")
    for name in ("trace.overhead_ratio", "trace.dropped"):
        lines.append("%-36s %14.4f %s" % (name, metrics[name]["value"],
                                          metrics[name]["unit"]))
    for name in sorted(figures):
        m = figures[name]
        lines.append("%-36s %14.4f %s" % (name, m["value"], m["unit"]))
    return metrics, figures, "\n".join(lines)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(64)
    with open(sys.argv[1]) as f:
        report = json.load(f)
    print(analyze(report, report["details"]["trace_file"])[2])


if __name__ == "__main__":
    main()
