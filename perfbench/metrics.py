"""Every metric the benchmark reports: unit, direction, meaning, and for the
per-layer ones the end-to-end metric and workload each should move.

Later changes cite metrics by these names. ``BENCHMARK.json`` lists the
same names and units; the bounds live there.

Every time is at the reference machine speed of calibration.py. Per-layer
values come from the traced passes and are per traced operation unless the
unit says otherwise; ``*_ms`` is the inclusive time of the named
calls, ``*.self_ms`` a layer's time minus the traced calls it makes.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import END, KEPT, NAME, OP, PARENT, START

# name: (unit, better, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", "wall time of a fresh interpreter importing gzasp.cli, which every CLI invocation pays; each import scaled by a control import (run.CONTROL_MODULES), median of run.SETUP_SAMPLES imports spread over the run"),
    "ops_per_s": ("1/s", "higher", "operations per second over the workload's fixed corpus: its size over the sum of the operation latencies"),
    "op_ms_p50": ("ms", "lower", "median operation latency (the lower median); an operation's latency is its median across passes"),
    "op_ms_tail": ("ms", "lower", "latency at the workload's tail percentile over every per-pass sample: the highest multiple of 5 with at least ten samples beyond it at the minimum pass count"),
    "peak_rss_mib": ("MiB", "lower", "peak resident memory of the workload's own process"),
}
# Printed by every run; not in BENCHMARK.json, where it would read 0 at a
# correct commit. The JSON result carries it as failed / attempted.
FAIL_RATIO = ("ratio", "lower", "operations that raised, exited 2, printed a traceback or disagreed with the reference, over operations attempted; exit 1 is an answer")

# name: (unit, better, meaning, what it should move)
PER_LAYER = {
    "parser.parse_ms": ("ms/op", "lower", "cli -> parse", "op_ms_p50 on asp-m; nothing on the others"),
    "parser.parse_calls": ("calls/op", "lower", "cli -> parse", "op_ms_p50 on asp-m"),
    "parser.kib_per_s": ("KiB/s", "higher", "input bytes parsed per second of parse", "op_ms_p50 on asp-m"),
    "cli.self_ms": ("ms/op", "lower", "main minus its traced children: argument parsing, file read, sha256, output formatting", "op_ms_p50 on enum, which prints the most; small"),
    "rewriter.rewrite_ms": ("ms/op", "lower", "reasoner._REWRITINGS rew/str", "op_ms_tail on enum"),
    "rewriter.rewrite_calls": ("calls/op", "lower", "reasoner._REWRITINGS rew/str", "op_ms_tail on enum"),
    "rewriter.atom_growth": ("ratio", "lower", "atoms out over atoms in, over --via calls", "op_ms_tail on enum"),
    "rewriter.size_bounds_ms": ("ms/op", "lower", "cli -> check_size_bounds", "op_ms_p50 on asp-m"),
    "reasoner.enumerate_ms": ("ms/op", "lower", "stable_models, from cli and from reasoner", "ops_per_s and op_ms_p50 on enum and query"),
    "reasoner.enumerate_calls": ("calls/op", "lower", "stable_models calls", "ops_per_s and op_ms_p50 on enum and query"),
    "reasoner.query_ms": ("ms/op", "lower", "check_coherence, brave and cautious, from cli", "ops_per_s and op_ms_p50 on query and asp-m"),
    "reasoner.self_ms": ("ms/op", "lower", "reasoner spans minus traced semantics calls: space and column building, candidate scan, subspace minimality", "ops_per_s and op_ms_p50 on enum and query"),
    "reasoner.candidates": ("count/op", "lower", "reduct calls from reasoner, one per candidate", "enum and query; an early exit lowers it on query only"),
    "reasoner.stable_found": ("count/op", "lower", "models returned by stable_models and gsm_asp_m", "equal on enum at every commit; an early exit lowers it on query"),
    "reasoner.stable_ratio": ("ratio", "higher", "stable_found over candidates, over the whole run", "ops_per_s on enum and query"),
    "reasoner.fast_path_calls": ("calls/op", "higher", "gsm_asp_m calls", "op_ms_p50 on asp-m"),
    "semantics.reduct_ms": ("ms/op", "lower", "f_reduct plus g_reduct, from reasoner", "op_ms_p50 on enum and query"),
    "semantics.reduct_calls": ("calls/op", "lower", "f_reduct plus g_reduct, from reasoner", "op_ms_p50 on enum and query"),
    "semantics.horn_min_ms": ("ms/op", "lower", "is_minimal_model, from reasoner", "op_ms_p50 on enum and query"),
    "semantics.horn_min_calls": ("calls/op", "lower", "is_minimal_model, from reasoner", "op_ms_p50 on enum and query"),
    "semantics.truth_table_ms": ("ms/op", "lower", "aggregate_truth_table from reasoner, including each candidate's subspace rebuild", "op_ms_p50 on agg-wide"),
    "semantics.truth_table_calls": ("calls/op", "lower", "aggregate_truth_table, from reasoner", "op_ms_p50 on agg-wide"),
    "semantics.scalar_evals": ("count/op", "lower", "eval_aggregate calls from reasoner: 2**n per scalar column", "op_ms_tail on agg-wide"),
    "semantics.classify_ms": ("ms/op", "lower", "classify_aggregate, from cli and from ensure_asp_m", "op_ms_p50 on asp-m"),
    "semantics.classify_calls": ("calls/op", "lower", "classify_aggregate calls", "op_ms_p50 on asp-m"),
    "semantics.lfp_ms": ("ms/op", "lower", "tp_least_fixpoint, from reasoner", "op_ms_p50 on asp-m"),
    "trace.overhead_pct": ("%", "lower", "traced over untraced time of the same operations, minus 100%", "none: the cost of tracing"),
    "trace.coverage": ("ratio", "higher", "self times of the layers below cli (parser, rewriter, reasoner, semantics) over traced operation wall time; the rest is cli.main's own work and the harness", "none: the share of time the library layers account for"),
}


def layer_metrics(spans: list, counts, scale: list, ops: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced operations that
    took ``traced_s`` seconds; the same operations untraced took
    ``untraced_s``. ``scale[op]`` takes a time measured during operation
    ``op`` to the reference speed (see calibration.py)."""
    total = defaultdict(float)  # inclusive seconds per span name
    calls = defaultdict(int)
    kept = defaultdict(list)
    durations = [(span[END] - span[START]) * scale[span[OP]] for span in spans]
    child = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        total[span[NAME]] += duration
        calls[span[NAME]] += 1
        if span[KEPT] is not None:
            kept[span[NAME]].append(span[KEPT])
        if span[PARENT] >= 0:
            child[span[PARENT]] += duration
    layer_self = defaultdict(float)
    for span, duration, inner in zip(spans, durations, child):
        layer_self[span[NAME].split(".")[0]] += duration - inner

    def ms(name):
        return total[name] * 1000 / ops

    def per_op(value):
        return value / ops

    parsed_bytes = sum(kept["parser.parse"])
    growth = kept["rewriter.rewrite"]
    candidates = calls["semantics.reduct"]
    found = sum(kept["reasoner.stable_models"]) + sum(kept["reasoner.gsm_asp_m"])
    values = {
        "parser.parse_ms": ms("parser.parse"),
        "parser.parse_calls": per_op(calls["parser.parse"]),
        "parser.kib_per_s": parsed_bytes / 1024 / total["parser.parse"] if parsed_bytes else 0.0,
        "cli.self_ms": layer_self["cli"] * 1000 / ops,
        "rewriter.rewrite_ms": ms("rewriter.rewrite"),
        "rewriter.rewrite_calls": per_op(calls["rewriter.rewrite"]),
        "rewriter.atom_growth": (
            sum(out for _, out in growth) / sum(inp for inp, _ in growth) if growth else 0.0
        ),
        "rewriter.size_bounds_ms": ms("rewriter.check_size_bounds"),
        "reasoner.enumerate_ms": ms("reasoner.stable_models"),
        "reasoner.enumerate_calls": per_op(calls["reasoner.stable_models"]),
        "reasoner.query_ms": ms("reasoner.query"),
        "reasoner.self_ms": layer_self["reasoner"] * 1000 / ops,
        "reasoner.candidates": per_op(candidates),
        "reasoner.stable_found": per_op(found),
        "reasoner.stable_ratio": found / candidates if candidates else 0.0,
        "reasoner.fast_path_calls": per_op(calls["reasoner.gsm_asp_m"]),
        "semantics.reduct_ms": ms("semantics.reduct"),
        "semantics.reduct_calls": per_op(calls["semantics.reduct"]),
        "semantics.horn_min_ms": ms("semantics.horn_min"),
        "semantics.horn_min_calls": per_op(calls["semantics.horn_min"]),
        "semantics.truth_table_ms": ms("semantics.truth_table"),
        "semantics.truth_table_calls": per_op(calls["semantics.truth_table"]),
        "semantics.scalar_evals": per_op(counts["semantics.scalar_evals"]),
        "semantics.classify_ms": ms("semantics.classify"),
        "semantics.classify_calls": per_op(calls["semantics.classify"]),
        "semantics.lfp_ms": ms("semantics.lfp"),
        "trace.overhead_pct": (traced_s / untraced_s - 1) * 100,
        "trace.coverage": sum(t for layer, t in layer_self.items() if layer != "cli") / traced_s,
    }
    assert values.keys() == PER_LAYER.keys()
    return values
