"""Exact stable-model enumeration for desk-scale programs.

The search space over n atoms is all 2**n subsets of At(program). Rather
than looping over interpretations, every expression is evaluated once for
the whole space: a column is a 2**n-bit integer whose bit s holds the truth
value under the interpretation encoded by the bits of s. Conjunction is &,
negation is xor against the all-ones mask, and an aggregate becomes a
circuit over its domain columns (semantics._aggregate_column; over the
domain's own space it is the truth table classification reads): an XOR
fold for parity, ORs for min and max, and for count, sum and avg an adder
network whose bit-planes are compared with the bound, so a column costs
O(|dom| log W) column operations for weights up to W. Candidate models
drop out as the set bits of the program column, read 64 bits at a time.

No reduct is built as a Program. Each rule is compiled once into bitmasks
over the sorted universe (head atoms, atoms its body needs true, atoms it
needs false, positive atoms) plus its aggregates (semantics._compile_at),
and the program column is built from that compiled form. One check then
decides stability at each candidate s (semantics._stable_at): the reduct at
s is the list of rules whose body holds at s, each head cut to s, with each
kept aggregate under G turned into the mask of its domain atoms true at s;
semantics._minimal decides its minimality: least-model rounds over the
rules left with at most one head atom prove s minimal or stop at a smaller
model, and otherwise a column over the subsets of s decides. A coherence
test stops at the first stable model; brave and cautious queries first
restrict the candidates to those with, or without, the queried atom.
is_stable runs the same compile and check on its one candidate.

Every query runs through _stable, where the program picks the route. In
the monotone fragment ASP^M the least fixpoint is the only candidate: it
is the one F-stable model, and G-stable iff it is the least model of its
G-reduct. Such a program is answered from it at any size; any other is
enumerated, and refused above the atom guard.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import cache
from typing import Iterable, Iterator

from .core import Atom, Interpretation, Program, atoms_of
from .errors import (
    AggregateOverflowError,
    DomainTooLargeError,
    NotAspMError,
    PreconditionError,
    TooManyAtomsError,
)
from .rewriter import rewrite_rew, rewrite_str
from .semantics import (
    DEFAULT_MAX_ATOMS,
    _atoms_at,
    _column,
    _compile_at,
    _fixpoint_models,
    _pattern,
    _stable_at,
    aggregate_truth_table,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    eval_aggregate,  # noqa: F401  (perfbench/tracing.py counts it by name)
    f_reduct,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    g_reduct,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    is_asp_m,  # noqa: F401  (perfbench/tracing.py wraps reasoner.is_asp_m by name)
    is_minimal_model,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    satisfies,
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
            key=lambda model: (len(model), tuple(sorted(model))),
        )
        for first, second in zip(ordered, ordered[1:]):
            if first == second:
                names = ", ".join(atom.name for atom in sorted(first))
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
            "{" + ", ".join(atom.name for atom in sorted(model)) + "}"
            for model in self.models
        )
        return f"ModelSet([{shown}])"


def _set_bits(column: int, width: int) -> Iterator[int]:
    """Indices of the set bits of a `width`-bit column, lowest first. The
    column is copied once into native 64-bit words, so a set bit costs a few
    word operations instead of a copy of the whole column."""
    words = memoryview(column.to_bytes(max(8, width >> 3), sys.byteorder)).cast("Q")
    del column  # the words are all the scan needs; free the 2**n-bit int
    if sys.byteorder == "big":
        words = words[::-1]  # lowest word first
    for offset, word in enumerate(words):
        if word:
            base = offset << 6
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low


def _stable(
    program: Program,
    sem: Semantics,
    max_atoms: int,
    atom: Atom | None = None,
    holds: bool = True,
) -> Iterator[Interpretation]:
    """Stable models in candidate order; with `atom`, only those where it
    holds (or, with holds=False, where it does not). Programs outside ASP^M,
    or with an aggregate that cannot be classified, are enumerated."""
    grounding = sem is Semantics.G
    try:
        models = _fixpoint_models(program, grounding)
    except (NotAspMError, DomainTooLargeError, AggregateOverflowError):
        pass  # enumerate: its own column raises an overflow, where one is reached
    else:
        yield from (model for model in models if atom is None or (atom in model) == holds)
        return
    size = len(atoms_of(program))  # refuse before compiling a huge program
    if size > max_atoms:
        raise TooManyAtomsError(
            f"program has {size} atoms; the enumeration guard allows {max_atoms}"
        )
    universe, rules, _ = _compile_at(program)
    # atom columns by (position, dimension), for the space and the subspaces
    # of the minimality checks; freed with the generator when the solve ends
    pattern = cache(_pattern)
    column = _column((1 << len(universe)) - 1, rules, pattern)
    if atom is not None:
        restrict = pattern(universe.index(atom), len(universe)) if atom in universe else 0
        column &= restrict if holds else ~restrict
    candidates = _set_bits(column, 1 << len(universe))
    del column  # only the scan's word copy stays alive
    for index in candidates:
        if _stable_at(rules, index, grounding, pattern, max_atoms):
            yield _atoms_at(universe, index)


def is_stable(program: Program, interp: Interpretation, sem: Semantics) -> bool:
    """True iff interp models the program and no strict subset models the
    reduct taken with respect to interp.

    Overflow: the model test raises AggregateOverflowError where an
    aggregate it evaluates at interp overflows; the minimality check raises
    as in is_minimal_model, and refuses a column over more than
    DEFAULT_MAX_ATOMS atoms with TooManyAtomsError."""
    foreign = frozenset(interp) - atoms_of(program)
    if foreign:
        names = ", ".join(sorted(atom.name for atom in foreign))
        raise PreconditionError(
            f"interpretation mentions atoms outside the program: {names}"
        )
    if not satisfies(interp, program):
        return False
    _, rules, index = _compile_at(program, interp)
    return _stable_at(rules, index, sem is Semantics.G, _pattern, DEFAULT_MAX_ATOMS)


def stable_models(
    program: Program, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ModelSet:
    """All stable models under the chosen semantics, canonically ordered.

    An ASP^M program is answered from its least fixpoint at any size; any
    other is enumerated exactly over the subsets of At(program), and refused
    rather than answered partially when it has more than max_atoms atoms.
    """
    return ModelSet(_stable(program, sem, max_atoms))


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
    return next(_stable(program, sem, max_atoms), None) is not None


def cautious(
    program: Program, atom: Atom, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """True iff every stable model contains the atom; vacuously true for
    incoherent programs. Searches only the candidates without the atom and
    stops at the first stable one."""
    return next(_stable(program, sem, max_atoms, atom, holds=False), None) is None


def brave(
    program: Program, atom: Atom, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """True iff some stable model contains the atom; false for incoherent
    programs. Searches only the candidates with the atom and stops at the
    first stable one."""
    return next(_stable(program, sem, max_atoms, atom), None) is not None


_REWRITINGS = {"rew": rewrite_rew, "str": rewrite_str}


def solve_via_rewriting(
    program: Program,
    method: str,
    *,
    minimal_copies: bool = False,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> ModelSet:
    """G-stable models computed by rewriting and solving under F, projected
    back onto the input's atoms. The atom guard applies to the rewritten
    program, which is the one being enumerated."""
    try:
        rewriting = _REWRITINGS[method]
    except KeyError:
        expected = " or ".join(map(repr, _REWRITINGS))
        raise ValueError(f"unknown rewriting {method!r}; expected {expected}") from None
    rewritten = rewriting(program, minimal_copies=minimal_copies)
    base = atoms_of(program)
    projected = [
        model & base
        for model in stable_models(rewritten, Semantics.F, max_atoms=max_atoms)
    ]
    return ModelSet(projected)
