"""Ground answer-set programs with aggregates: parsing, two stable-model
semantics, negation-elimination rewritings, and desk-scale reasoning.

The package is organized in layers. `core` defines the immutable syntax
tree, `parser` the text dialect, `semantics` the model-theoretic machinery
and the solver (aggregate evaluation and circuit, both reducts,
classification, the least-fixpoint route and the enumerator, with one rule
compile and one stability check), `rewriter` the five program
transformations, and `reasoner` the public queries, each one call into the
solver. `cli` wraps everything for the command line.
"""

from .core import (
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    Interpretation,
    Program,
    Rule,
    atoms_of,
    equivalent_in_context,
    program_size,
)
from .errors import (
    AggregateOverflowError,
    DomainTooLargeError,
    DuplicateAggregateElementError,
    EmptyAggregateDomainError,
    GzaspError,
    NegatedAggregateError,
    NotAspMError,
    ParseError,
    PreconditionError,
    ReservedNameError,
    TooManyAtomsError,
    UnsupportedConstructError,
)
from .parser import emit_core2, parse, render, render_literal, render_rule
from .reasoner import (
    DEFAULT_MAX_ATOMS,
    ModelSet,
    Semantics,
    brave,
    cautious,
    check_coherence,
    gsm_asp_m,
    is_stable,
    solve_via_rewriting,
    stable_models,
)
from .rewriter import (
    SizeBounds,
    check_size_bounds,
    dependency_graph,
    is_aggregate_stratified,
    rewrite_c,
    rewrite_m,
    rewrite_n,
    rewrite_rew,
    rewrite_str,
    strongly_connected_components,
)
from .semantics import (
    AggregateClass,
    aggregate_truth_table,
    classify_aggregate,
    ensure_asp_m,
    eval_aggregate,
    f_reduct,
    g_reduct,
    is_asp_m,
    is_horn,
    is_minimal_model,
    satisfies,
    tp_least_fixpoint,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Atom",
    "AtomLiteral",
    "AggregateFunc",
    "AggregateSpec",
    "Rule",
    "Program",
    "Interpretation",
    "atoms_of",
    "program_size",
    "equivalent_in_context",
    # errors
    "GzaspError",
    "ParseError",
    "ReservedNameError",
    "NegatedAggregateError",
    "UnsupportedConstructError",
    "DuplicateAggregateElementError",
    "EmptyAggregateDomainError",
    "AggregateOverflowError",
    "PreconditionError",
    "NotAspMError",
    "DomainTooLargeError",
    "TooManyAtomsError",
    # parser
    "parse",
    "render",
    "render_rule",
    "render_literal",
    "emit_core2",
    # semantics
    "eval_aggregate",
    "satisfies",
    "f_reduct",
    "g_reduct",
    "tp_least_fixpoint",
    "ensure_asp_m",
    "is_asp_m",
    "is_horn",
    "is_minimal_model",
    "AggregateClass",
    "aggregate_truth_table",
    "classify_aggregate",
    # rewriter
    "rewrite_c",
    "rewrite_n",
    "rewrite_m",
    "rewrite_rew",
    "rewrite_str",
    "dependency_graph",
    "strongly_connected_components",
    "is_aggregate_stratified",
    "SizeBounds",
    "check_size_bounds",
    # reasoner
    "Semantics",
    "ModelSet",
    "is_stable",
    "stable_models",
    "gsm_asp_m",
    "check_coherence",
    "cautious",
    "brave",
    "solve_via_rewriting",
    "DEFAULT_MAX_ATOMS",
]
