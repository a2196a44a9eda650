"""Layer spans recorded from outside gzasp, by swapping module globals.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper that records a span: name, start, end, parent span and operation
id. The wrappers go where one module calls another, under the name the
caller looks up at call time; for example ``gzasp.reasoner.f_reduct`` is
the reduct as the enumerator sees it, and ``gzasp.cli.parse`` is the parser
as the CLI sees it. ``reasoner._REWRITINGS`` holds function references
captured at import, so its entries are swapped as well. Nothing inside
``src/`` changes, and untraced passes run the original functions.

Spans stay in memory until ``write`` at the end of the run. A span's self
time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import csv
import gzip
import importlib
from collections import Counter
from time import perf_counter

# (module, key inside the module or inside one of its dicts, span name).
# The span name's prefix is the layer the callee belongs to.
SPANS = (
    ("gzasp.cli", "main", "cli.main"),
    ("gzasp.cli", "parse", "parser.parse"),
    ("gzasp.cli", "check_size_bounds", "rewriter.check_size_bounds"),
    ("gzasp.cli", "stable_models", "reasoner.stable_models"),
    ("gzasp.cli", "check_coherence", "reasoner.query"),
    ("gzasp.cli", "brave", "reasoner.query"),
    ("gzasp.cli", "cautious", "reasoner.query"),
    ("gzasp.cli", "solve_via_rewriting", "reasoner.solve_via_rewriting"),
    ("gzasp.cli", "classify_aggregate", "semantics.classify"),
    ("gzasp.reasoner", "_REWRITINGS.rew", "rewriter.rewrite"),
    ("gzasp.reasoner", "_REWRITINGS.str", "rewriter.rewrite"),
    ("gzasp.reasoner", "stable_models", "reasoner.stable_models"),
    ("gzasp.reasoner", "gsm_asp_m", "reasoner.gsm_asp_m"),
    ("gzasp.reasoner", "is_asp_m", "semantics.is_asp_m"),
    ("gzasp.reasoner", "f_reduct", "semantics.reduct"),
    ("gzasp.reasoner", "g_reduct", "semantics.reduct"),
    ("gzasp.reasoner", "is_minimal_model", "semantics.horn_min"),
    ("gzasp.reasoner", "aggregate_truth_table", "semantics.truth_table"),
    ("gzasp.reasoner", "tp_least_fixpoint", "semantics.lfp"),
    # ensure_asp_m classifies through this global on the fast path
    ("gzasp.semantics", "classify_aggregate", "semantics.classify"),
)
# Called 2**n times per scalar aggregate column: counted, never spanned.
COUNTED = (("gzasp.reasoner", "eval_aggregate", "semantics.scalar_evals"),)
# Spans whose argument or result the metrics need after the operation.
KEEP = frozenset({"parser.parse", "rewriter.rewrite", "reasoner.stable_models", "reasoner.gsm_asp_m"})

NAME, START, END, PARENT, OP, KEPT = range(6)


def _slot(module_name: str, key: str):
    """(container, key) such that container[key] is the traced function."""
    module = importlib.import_module(module_name)
    if "." in key:
        table, entry = key.split(".")
        return getattr(module, table), entry
    return vars(module), key


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._saved: list = []
        self._settled = 0

    def install(self) -> None:
        for module_name, key, name in SPANS:
            self._swap(module_name, key, lambda fn, name=name: self._spanned(name, fn))
        for module_name, key, name in COUNTED:
            self._swap(module_name, key, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            container, key, original = self._saved.pop()
            container[key] = original

    def _swap(self, module_name: str, key: str, make) -> None:
        container, entry = _slot(module_name, key)
        original = container[entry]
        self._saved.append((container, entry, original))
        container[entry] = make(original)

    def _spanned(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, name in KEEP

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if keep:
                span[KEPT] = (args, result)
            return result

        return wrapper

    def settle(self) -> None:
        """Replace the kept arguments and results of the spans recorded
        since the last call by the numbers the metrics need. Call between
        operations, so the work is timed by no span."""
        from gzasp.core import atoms_of

        for span in self.spans[self._settled :]:
            if span[KEPT] is None:
                continue
            args, result = span[KEPT]
            if span[NAME] == "parser.parse":
                span[KEPT] = len(args[0])
            elif span[NAME] == "rewriter.rewrite":
                span[KEPT] = (len(atoms_of(args[0])), len(atoms_of(result)))
            else:
                span[KEPT] = len(result)
        self._settled = len(self.spans)

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        """All spans as gzip CSV: op, name, start and end in microseconds
        from the first span, parent row index (-1 for a root)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("op", "name", "start_us", "end_us", "parent"))
            for span in self.spans:
                writer.writerow(
                    (
                        span[OP],
                        span[NAME],
                        round((span[START] - origin) * 1e6, 1),
                        round((span[END] - origin) * 1e6, 1),
                        span[PARENT],
                    )
                )
