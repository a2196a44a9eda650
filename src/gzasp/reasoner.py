"""Exact stable-model enumeration for desk-scale programs.

The search space over n atoms is all 2**n subsets of At(program). Rather
than looping over interpretations, every expression is evaluated once for
the whole space: a column is a 2**n-bit integer whose bit s holds the truth
value under the interpretation encoded by the bits of s. Conjunction is &,
negation is xor against the all-ones mask, and an aggregate becomes a
circuit over its domain columns (semantics._aggregate_column, which also
classifies aggregates): an XOR fold for parity, ORs for min and
max, and for count, sum and avg an adder network whose bit-planes are
compared with the bound, so a column costs O(|dom| log W) column operations
for weights up to W. Candidate models drop out as the set bits of the
program column, read 64 bits at a time.

No reduct is built as a Program. Each rule is compiled once into bitmasks
over the sorted universe (head atoms, atoms its body needs true, atoms it
needs false, positive atoms) plus its aggregates, so the reduct at
candidate s is the list of rules whose body holds at s; under G each kept
aggregate turns into the mask of its domain atoms true at s. One check then
decides minimality: a least fixpoint over integers when every kept rule has
at most one head atom and no aggregate, otherwise the column of the kept
rules over the subspace of the candidate's own subsets. A coherence test
stops at the first stable model; brave and cautious queries first restrict
the candidates to those with, or without, the queried atom. is_stable
keeps the reference path of semantics.py: a reduct Program and
is_minimal_model.

A polynomial fast path covers the monotone fragment, where the single
candidate G-stable model is the least fixpoint itself.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import cache
from typing import Iterable, Iterator

from .core import (
    AggregateSpec,
    Atom,
    AtomLiteral,
    Interpretation,
    Program,
    Rule,
    atoms_of,
)
from .errors import NotAspMError, PreconditionError, TooManyAtomsError
from .rewriter import rewrite_rew, rewrite_str
from .semantics import (
    _aggregate_column,
    _pattern,
    aggregate_truth_table,  # noqa: F401  (perfbench/tracing.py wraps it by name)
    eval_aggregate,
    f_reduct,
    g_reduct,
    is_asp_m,  # noqa: F401  (perfbench/tracing.py wraps reasoner.is_asp_m by name)
    is_minimal_model,
    satisfies,
    tp_least_fixpoint,
)

DEFAULT_MAX_ATOMS = 24


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


class _Space:
    """Truth-table evaluator over all subsets of a fixed atom tuple."""

    def __init__(self, universe: Iterable[Atom]):
        self.universe = tuple(universe)
        self.position = {atom: i for i, atom in enumerate(self.universe)}
        self.width = 1 << len(self.universe)
        self.full = (1 << self.width) - 1
        # atom columns by (position, dimension), also for the subspaces of
        # the minimality check; freed with the space when the solve ends
        self.pattern = cache(_pattern)

    def interpretation(self, index: int) -> Interpretation:
        return frozenset(
            atom for i, atom in enumerate(self.universe) if index >> i & 1
        )

    def atom_column(self, atom: Atom) -> int:
        position = self.position.get(atom)
        if position is None:
            return 0  # an atom outside the space is false everywhere
        return self.pattern(position, len(self.universe))

    def literal_column(self, lit: AtomLiteral) -> int:
        column = self.atom_column(lit.atom)
        return column ^ self.full if lit.negation_depth % 2 else column

    def body_column(self, body) -> int:
        column = self.full
        for lit in body:
            if isinstance(lit, AggregateSpec):
                columns = [self.atom_column(atom) for atom in lit.domain]
                column &= _aggregate_column(lit, columns, self.full)
            else:
                column &= self.literal_column(lit)
            if not column:
                break
        return column

    def rule_column(self, rule: Rule) -> int:
        head = 0
        for atom in rule.head:
            head |= self.atom_column(atom)
        return (self.body_column(rule.body) ^ self.full) | head

    def program_column(self, program: Program) -> int:
        column = self.full
        for rule in program:
            column &= self.rule_column(rule)
            if not column:
                break
        return column


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


def _compile(program: Program, position: dict) -> list[tuple]:
    """Each rule as (head, must_true, must_false, positive, aggregates): atom
    bitmasks over the universe (a literal at even negation depth needs its
    atom true, at odd depth false; positive holds the depth-0 atoms, the
    only literals either reduct keeps) and the body aggregates in body
    order, each as (spec, domain mask, domain bits in domain order, memo).
    The memo, shared by equal aggregates, maps the candidate's domain bits
    to the aggregate's truth there."""
    compiled = []
    memos: dict = {}
    for rule in program:
        head = must_true = must_false = positive = 0
        for atom in rule.head:
            head |= 1 << position[atom]
        aggregates = []
        for lit in rule.body:
            if isinstance(lit, AggregateSpec):
                bits = tuple(1 << position[atom] for atom in lit.domain)
                aggregates.append((lit, sum(bits), bits, memos.setdefault(lit, {})))
                continue
            bit = 1 << position[lit.atom]
            if lit.negation_depth % 2:
                must_false |= bit
            else:
                must_true |= bit
            if not lit.negation_depth:
                positive |= bit
        compiled.append((head, must_true, must_false, positive, tuple(aggregates)))
    return compiled


def _aggregates_hold(aggregates: tuple, index: int) -> bool:
    """Whether every aggregate holds at candidate `index`, evaluated in body
    order up to the first false one.

    The caller has already checked the rule's atom literals, so each
    aggregate reached sits behind a body prefix that is true at the
    candidate. The program column therefore built its column, checking
    every subset of its domain for 64-bit overflow, so nothing here raises.
    That is why stopping at the first stable model never skips an error
    that full enumeration would raise.
    """
    for spec, domain, bits, memo in aggregates:
        key = index & domain
        truth = memo.get(key)
        if truth is None:
            chosen = frozenset(atom for atom, bit in zip(spec.domain, bits) if key & bit)
            truth = memo[key] = eval_aggregate(spec, chosen)
        if not truth:
            return False
    return True


def _reduct_rules(rules: list[tuple], index: int, grounding: bool) -> tuple:
    """The reduct at candidate `index`: (head, positive, aggregates) per
    kept rule, and whether every kept rule is Horn (at most one head atom,
    no aggregate). Under G (grounding) each aggregate is replaced by its
    domain atoms true at the candidate; under F it stays."""
    kept = []
    horn = True
    for head, must_true, must_false, positive, aggregates in rules:
        if index & must_true != must_true or index & must_false:
            continue
        if aggregates:
            if not _aggregates_hold(aggregates, index):
                continue
            if grounding:
                for _, domain, _, _ in aggregates:
                    positive |= domain & index
                aggregates = ()
        kept.append((head, positive, aggregates))
        horn = horn and not aggregates and not head & (head - 1)
    return kept, horn


def _is_least_model(index: int, kept: list[tuple]) -> bool:
    """Horn minimality: the candidate is the least model of the kept rules.
    That model lies inside the candidate, which models every kept rule, so
    the fixpoint stops as soon as it reaches the candidate."""
    derived = 0
    while derived != index:
        grown = derived
        for head, positive, _ in kept:
            if positive & grown == positive:
                grown |= head
        if grown == derived:
            return False
        derived = grown
    return True


def _no_smaller_model(index: int, kept: list[tuple], pattern) -> bool:
    """Minimality in general: the column of the kept rules over every subset
    of the candidate has only the candidate's own (top) bit set."""
    # an atom's position in the subspace is the number of candidate atoms
    # below it in the universe; an atom outside the candidate is false
    dimension = index.bit_count()
    full = (1 << (1 << dimension)) - 1
    column = full
    for head, positive, aggregates in kept:
        body = full
        while positive:
            low = positive & -positive
            body &= pattern((index & (low - 1)).bit_count(), dimension)
            positive ^= low
        for spec, _, bits, _ in aggregates:
            columns = [
                pattern((index & (bit - 1)).bit_count(), dimension) if index & bit else 0
                for bit in bits
            ]
            body &= _aggregate_column(spec, columns, full)
        heads = 0
        head &= index
        while head:
            low = head & -head
            heads |= pattern((index & (low - 1)).bit_count(), dimension)
            head ^= low
        column &= (body ^ full) | heads
        if column.bit_count() == 1:  # the top bit stays set
            return True
    return column.bit_count() == 1


def _stable(
    program: Program,
    sem: Semantics,
    max_atoms: int,
    atom: Atom | None = None,
    holds: bool = True,
) -> Iterator[Interpretation]:
    """Stable models in candidate order; with `atom`, only those where it
    holds (or, with holds=False, where it does not)."""
    universe = sorted(atoms_of(program))
    if len(universe) > max_atoms:
        raise TooManyAtomsError(
            f"program has {len(universe)} atoms; "
            f"the enumeration guard allows {max_atoms}"
        )
    space = _Space(universe)
    column = space.program_column(program)
    if atom is not None:
        restrict = space.atom_column(atom)
        column &= restrict if holds else restrict ^ space.full
    rules = _compile(program, space.position)
    grounding = sem is Semantics.G
    candidates = _set_bits(column, space.width)
    del column  # only the scan's word copy stays alive
    for index in candidates:
        kept, horn = _reduct_rules(rules, index, grounding)
        if horn:
            minimal = _is_least_model(index, kept)
        else:
            minimal = _no_smaller_model(index, kept, space.pattern)
        if minimal:
            yield space.interpretation(index)


def _has_stable(
    program: Program,
    sem: Semantics,
    max_atoms: int,
    atom: Atom | None = None,
    holds: bool = True,
) -> bool:
    return next(_stable(program, sem, max_atoms, atom, holds), None) is not None


def is_stable(program: Program, interp: Interpretation, sem: Semantics) -> bool:
    """True iff interp models the program and no strict subset models the
    reduct taken with respect to interp."""
    foreign = frozenset(interp) - atoms_of(program)
    if foreign:
        names = ", ".join(sorted(atom.name for atom in foreign))
        raise PreconditionError(
            f"interpretation mentions atoms outside the program: {names}"
        )
    if not satisfies(interp, program):
        return False
    reduct = f_reduct if sem is Semantics.F else g_reduct
    return is_minimal_model(interp, reduct(program, interp))


def stable_models(
    program: Program, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ModelSet:
    """All stable models under the chosen semantics, canonically ordered.

    Enumeration is exact over the subsets of At(program); programs with
    more than max_atoms atoms are refused rather than answered partially.
    """
    return ModelSet(_stable(program, sem, max_atoms))


def gsm_asp_m(program: Program) -> ModelSet:
    """G-stable models of a monotone program without enumeration: the least
    fixpoint is the only candidate, and it stands iff the fixpoint of its
    own reduct confirms it."""
    fixpoint = tp_least_fixpoint(program)
    confirmed = tp_least_fixpoint(g_reduct(program, fixpoint))
    return ModelSet([fixpoint] if fixpoint == confirmed else [])


def check_coherence(
    program: Program, sem: Semantics, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """Does at least one stable model exist? Monotone programs under G skip
    enumeration entirely; otherwise the search stops at the first stable
    model."""
    if sem is Semantics.G:
        try:
            return bool(gsm_asp_m(program))
        except NotAspMError:
            pass  # outside the monotone fragment: enumerate
    return _has_stable(program, sem, max_atoms)


def cautious(
    program: Program,
    atom: Atom,
    sem: Semantics,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> bool:
    """True iff every stable model contains the atom; vacuously true for
    incoherent programs. Searches only the candidates without the atom and
    stops at the first stable one."""
    return not _has_stable(program, sem, max_atoms, atom, holds=False)


def brave(
    program: Program,
    atom: Atom,
    sem: Semantics,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> bool:
    """True iff some stable model contains the atom; false for incoherent
    programs. Searches only the candidates with the atom and stops at the
    first stable one."""
    return _has_stable(program, sem, max_atoms, atom)


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
        raise ValueError(
            f"unknown rewriting {method!r}; expected 'rew' or 'str'"
        ) from None
    rewritten = rewriting(program, minimal_copies=minimal_copies)
    base = atoms_of(program)
    projected = [
        model & base
        for model in stable_models(rewritten, Semantics.F, max_atoms=max_atoms)
    ]
    return ModelSet(projected)
