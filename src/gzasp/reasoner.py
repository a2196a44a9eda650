"""The public queries: stable models, coherence, brave and cautious
reasoning, stability of one interpretation, and solving through a
rewriting. Each is one call into the solver, whose routes and checks the
docstring of semantics.py describes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .core import Atom, Interpretation, Program, atoms_of
from .rewriter import rewrite_rew, rewrite_str
from .semantics import (
    DEFAULT_MAX_ATOMS,
    _fixpoint_models,
    _is_stable,
    _stable_models,
    aggregate_truth_table,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    eval_aggregate,  # noqa: F401  (perfbench/tracing.py counts it by name)
    f_reduct,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    g_reduct,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    is_asp_m,  # noqa: F401  (perfbench/tracing.py wraps reasoner.is_asp_m by name)
    is_minimal_model,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    tp_least_fixpoint,  # noqa: F401  (perfbench/tracing.py wraps it by name)
)


class Semantics(Enum):
    """Which reduct stability is checked against: F keeps aggregates in
    place, G replaces them by their true domain atoms."""

    F = "f"
    G = "g"


class ModelSet:
    """Stable models in canonical order: by cardinality, then by the sorted
    atom names. Duplicates are a programming error and are rejected."""

    __slots__ = ("models",)

    def __init__(self, models: Iterable[Interpretation] = ()):
        ordered = sorted(
            (frozenset(model) for model in models),
            key=lambda model: (len(model), sorted(atom.name for atom in model)),
        )
        for first, second in zip(ordered, ordered[1:]):
            if first == second:
                names = ", ".join(sorted(atom.name for atom in first))
                raise ValueError(f"duplicate model {{{names}}}")
        self.models = tuple(ordered)

    def __iter__(self):
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __contains__(self, item) -> bool:
        return item in self.models

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelSet):
            return NotImplemented
        return self.models == other.models

    def __repr__(self) -> str:
        shown = ", ".join(
            "{" + ", ".join(sorted(atom.name for atom in model)) + "}"
            for model in self.models
        )
        return f"ModelSet([{shown}])"


def is_stable(program: Program, interp: Interpretation, sem: Semantics) -> bool:
    """True iff interp models the program and no strict subset models the
    reduct taken with respect to interp.

    Overflow: the model test raises AggregateOverflowError where an
    aggregate it evaluates at interp overflows; the minimality check raises
    as in is_minimal_model, naming a subset of interp, answers at any size
    where its least-model rounds decide, and refuses a column over more
    than DEFAULT_MAX_ATOMS atoms with TooManyAtomsError."""
    return _is_stable(program, interp, sem is Semantics.G)


def stable_models(
    program: Program, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ModelSet:
    """All stable models under the chosen semantics, canonically ordered.

    An ASP^M program is answered from its least fixpoint at any size; any
    other is enumerated exactly over the subsets of At(program), and refused
    rather than answered partially when it has more than max_atoms atoms.
    """
    return ModelSet(_stable_models(program, sem is Semantics.G, max_atoms))


def gsm_asp_m(program: Program) -> ModelSet:
    """G-stable models of a monotone program without enumeration: the least
    fixpoint is the only candidate, and it stands iff it is the least model
    of its own G-reduct. Raises NotAspMError outside the fragment."""
    return ModelSet(_fixpoint_models(program, True))


def check_coherence(
    program: Program, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """Does at least one stable model exist? The search stops at the first
    stable model; a monotone program has only its least fixpoint to try."""
    return next(_stable_models(program, sem is Semantics.G, max_atoms), None) is not None


def cautious(
    program: Program, atom: Atom, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """True iff every stable model contains the atom; vacuously true for
    incoherent programs. Searches only the candidates without the atom and
    stops at the first stable one."""
    found = _stable_models(program, sem is Semantics.G, max_atoms, atom, holds=False)
    return next(found, None) is None


def brave(
    program: Program, atom: Atom, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """True iff some stable model contains the atom; false for incoherent
    programs. Searches only the candidates with the atom and stops at the
    first stable one."""
    return next(_stable_models(program, sem is Semantics.G, max_atoms, atom), None) is not None


_REWRITINGS = {"rew": rewrite_rew, "str": rewrite_str}


def solve_via_rewriting(
    program: Program, method: str, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ModelSet:
    """G-stable models computed by rewriting and solving under F, projected
    back onto the input's atoms. The atom guard applies to the rewritten
    program, which is the one being enumerated."""
    try:
        rewriting = _REWRITINGS[method]
    except KeyError:
        expected = " or ".join(map(repr, _REWRITINGS))
        raise ValueError(f"unknown rewriting {method!r}; expected {expected}") from None
    rewritten = rewriting(program)
    base = atoms_of(program)
    projected = [
        model & base
        for model in stable_models(rewritten, Semantics.F, max_atoms=max_atoms)
    ]
    return ModelSet(projected)
