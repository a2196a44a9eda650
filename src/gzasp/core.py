"""Syntax objects: atoms, aggregates, literals, rules, programs.

The language is propositional. A rule has a (possibly empty) disjunctive
head and a body of literals; a literal is an atom under zero or more
negation-as-failure operators, or a weighted aggregate over an explicit
atom list. An empty head makes the rule an integrity constraint.

Everything here is immutable and hashable. Collections of atoms always
sort lexicographically by name when they are laid out in sequence, so any
two runs of the toolkit produce identical bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    AggregateOverflowError,
    DuplicateAggregateElementError,
    EmptyAggregateDomainError,
)

__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "RESERVED_PREFIX",
    "Atom",
    "AggregateFunc",
    "AggregateSpec",
    "AtomLiteral",
    "Interpretation",
    "Rule",
    "Program",
    "atoms_of",
    "program_size",
    "equivalent_in_context",
]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

RESERVED_PREFIX = "__"

# User atoms start with a lowercase letter. The reserved `__` space is for
# atoms the rewritings introduce; only the parser refuses it, the API not.
_USER_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_GENERATED_NAME = re.compile(r"__[a-z][A-Za-z0-9_]*\Z")


class Atom:
    """An interned propositional atom; equality and order follow the name."""

    __slots__ = ("name",)

    _interned: dict[str, "Atom"] = {}

    def __new__(cls, name: str) -> "Atom":
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        if not isinstance(name, str) or not (
            _USER_NAME.match(name) or _GENERATED_NAME.match(name)
        ):
            raise ValueError(f"invalid atom name: {name!r}")
        atom = object.__new__(cls)
        object.__setattr__(atom, "name", name)
        cls._interned[name] = atom
        return atom

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        return (Atom, (self.name,))

    def __lt__(self, other: "Atom") -> bool:
        return self.name < other.name

    def __le__(self, other: "Atom") -> bool:
        return self.name <= other.name

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


Interpretation = frozenset  # of Atom


class AggregateFunc(Enum):
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    ODD = "odd"
    EVEN = "even"


# Parity tests take no comparator and ignore weights entirely.
PARITY_FUNCS = (AggregateFunc.ODD, AggregateFunc.EVEN)
# These ignore weights, so weights are canonicalized to 1 at construction.
UNWEIGHTED_FUNCS = (AggregateFunc.COUNT, AggregateFunc.ODD, AggregateFunc.EVEN)
# Only count/sum make sense over an empty domain.
EMPTY_DOMAIN_FUNCS = (AggregateFunc.COUNT, AggregateFunc.SUM)

COMPARATORS = ("<", "<=", ">=", ">", "=", "!=")


def _check_int64(value: int, what: str, beyond: str = "outside the 64-bit range") -> int:
    """value, if it fits in 64 bits; otherwise AggregateOverflowError
    "{what} {value} {beyond}"."""
    if not INT64_MIN <= value <= INT64_MAX:
        raise AggregateOverflowError(f"{what} {value} {beyond}")
    return value


@dataclass(frozen=True)
class AggregateSpec:
    """A weighted aggregate literal such as ``sum{2 : a, 3 : b} >= 5``.

    ``elements`` holds (weight, atom) pairs over pairwise distinct atoms and
    is kept sorted by atom name; ``domain`` holds its atoms in that order.
    odd/even take neither comparator nor bound. The hash is taken once, at
    construction; atoms hash by identity, so a pickle rebuilds it there.
    """

    func: AggregateFunc
    elements: tuple[tuple[int, Atom], ...]
    comparator: str | None = None
    bound: int | None = None

    def __post_init__(self) -> None:
        func = self.func
        elements = tuple(map(tuple, self.elements))
        seen: set[Atom] = set()
        for _, atom in elements:
            if atom in seen:
                raise DuplicateAggregateElementError(
                    f"atom '{atom}' listed twice in {func.value} aggregate"
                )
            seen.add(atom)
        if not elements and func not in EMPTY_DOMAIN_FUNCS:
            raise EmptyAggregateDomainError(f"{func.value} aggregate needs a nonempty domain")
        for weight, _ in elements:
            if not INT64_MIN <= weight <= INT64_MAX:
                _check_int64(weight, "weight")
            if not isinstance(weight, int):
                raise ValueError(f"bad weight: {weight!r}")
        if func in PARITY_FUNCS:
            if self.comparator is not None or self.bound is not None:
                raise ValueError(f"{func.value} takes no comparator or bound")
        else:
            if self.comparator not in COMPARATORS:
                raise ValueError(f"bad comparator: {self.comparator!r}")
            if not isinstance(self.bound, int):
                raise ValueError(f"bad bound: {self.bound!r}")
            _check_int64(self.bound, "bound")
        elements = tuple(sorted(elements, key=lambda pair: pair[1].name))
        if func in UNWEIGHTED_FUNCS:
            elements = tuple([(1, atom) for _, atom in elements])
        fields = self.__dict__  # frozen: written past __setattr__
        fields["elements"] = elements
        fields["domain"] = tuple([atom for _, atom in elements])
        fields["_hash"] = hash((func, elements, self.comparator, self.bound))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (AggregateSpec, (self.func, self.elements, self.comparator, self.bound))


@dataclass(frozen=True)
class AtomLiteral:
    """An atom under ``negation_depth`` leading negation-as-failure operators."""

    atom: Atom
    negation_depth: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.atom, Atom):
            raise TypeError(f"not an atom: {self.atom!r}")
        if not isinstance(self.negation_depth, int) or self.negation_depth < 0:
            raise ValueError(f"bad negation depth: {self.negation_depth!r}")


@dataclass(frozen=True)
class Rule:
    """``head :- body.`` Empty head: integrity constraint. Empty body: fact."""

    head: frozenset
    body: tuple = ()

    def __post_init__(self) -> None:
        head, body = self.head, self.body
        if type(head) is not frozenset:  # a frozenset or a tuple is kept as it is
            object.__setattr__(self, "head", head := frozenset(head))
        for atom in head:
            if not isinstance(atom, Atom):
                raise TypeError(f"head member is not an atom: {atom!r}")
        if type(body) is not tuple:
            object.__setattr__(self, "body", body := tuple(body))
        for lit in body:
            if not isinstance(lit, (AtomLiteral, AggregateSpec)):
                raise TypeError(f"body member is not a literal: {lit!r}")


@dataclass(frozen=True)
class Program:
    """An ordered sequence of rules."""

    rules: tuple = ()

    def __post_init__(self) -> None:
        rules = tuple(self.rules)
        for rule in rules:
            if not isinstance(rule, Rule):
                raise TypeError(f"not a rule: {rule!r}")
        object.__setattr__(self, "rules", rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)


def atoms_of(program: Program) -> frozenset:
    """Every atom occurring in a head, a body literal, or an aggregate domain."""
    atoms: set[Atom] = set()
    for rule in program.rules:
        atoms |= rule.head
        for lit in rule.body:
            if isinstance(lit, AtomLiteral):
                atoms.add(lit.atom)
            else:
                atoms.update(lit.domain)
    return frozenset(atoms)


def program_size(program: Program) -> int:
    """Symbol count: 1 per atom occurrence and per negated-literal occurrence
    (whatever its depth), |dom(A)| per aggregate occurrence."""
    total = 0
    for rule in program.rules:
        total += len(rule.head)
        for lit in rule.body:
            total += 1 if isinstance(lit, AtomLiteral) else len(lit.elements)
    return total


def equivalent_in_context(
    first: Iterable[Interpretation],
    second: Iterable[Interpretation],
    context: Iterable[Atom],
) -> bool:
    """Same number of interpretations and the same projections onto context."""
    scope = frozenset(context)
    left = list(first)
    right = list(second)
    if len(left) != len(right):
        return False
    return {model & scope for model in left} == {model & scope for model in right}
