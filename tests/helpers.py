"""Shared builders and frozen expected values for the test suite.

The two-rule golden program used throughout:

    a :- not not a.
    b | c :- count{a, b} >= 1.

All frozen constants below were derived by hand from the definitions before
the corresponding modules were written; tests treat them as ground truth.
"""

from __future__ import annotations

import operator
from functools import reduce

from gzasp import semantics
from gzasp.core import AggregateFunc, AggregateSpec, Atom, AtomLiteral, Program, Rule

A = Atom("a")
B = Atom("b")
C = Atom("c")


def atoms(names: str) -> frozenset:
    """frozenset of one-letter atoms, e.g. atoms('ac')."""
    return frozenset(Atom(ch) for ch in names)


def minimality_columns(monkeypatch, where: list | None = None) -> list:
    """Patch semantics._column for the rest of the test, and return the list
    of the minimality columns built from then on, by index: the calls whose
    first rule is _minimal's `:- M.`, (0, M, 0, M, ()). Every call, also the
    program column's and the interval test's, is still built. Given `where`,
    a stack whose top names the builder running, a program column pushes
    "program" and a minimality column "minimality" on it while it is built;
    any other call keeps the label below it."""
    built: list = []
    stack = [None] if where is None else where
    column = semantics._column

    def recorded(index, rules, pattern, supported=False, fixed=0, aliases=None):
        minimality = bool(rules) and rules[0] == (0, index, 0, index, ())
        if minimality:
            built.append(index)
        stack.append("program" if supported else "minimality" if minimality else stack[-1])
        try:
            return column(index, rules, pattern, supported, fixed, aliases)
        finally:
            stack.pop()

    monkeypatch.setattr(semantics, "_column", recorded)
    return built


def program_blocks(monkeypatch, blocks: list | None = None) -> list:
    """Patch semantics._column for the rest of the test, and return the list
    (`blocks`, if given) that each enumerator block built from then on is
    appended to, as (fixed, decided, column, atom columns read). `decided`
    tells whether an aggregate-free rule over the fixed top atoms alone rules
    the block out: its body true and its head false under them, with each
    alias read as its representative."""
    blocks = [] if blocks is None else blocks
    column = semantics._column

    def recorded(index, rules, pattern, supported=False, fixed=0, aliases=None):
        if not supported:
            return column(index, rules, pattern, supported, fixed, aliases)
        reads = []

        def read(*key):
            reads.append(key)
            return pattern(*key)

        def represented(mask: int) -> int:
            bits = semantics._bits(mask)
            return reduce(operator.or_, ((aliases or {}).get(bit, bit) for bit in bits), 0)

        found = column(index, rules, read, supported, fixed, aliases)
        decided = any(
            not aggregates
            and not represented(head | true | false) & index
            and fixed & represented(true) == represented(true)
            and not fixed & represented(false | head)
            for head, true, false, _, aggregates in rules
        )
        blocks.append((fixed, decided, found, len(reads)))
        return found

    monkeypatch.setattr(semantics, "_column", recorded)
    return blocks


def without_classes(monkeypatch) -> None:
    """Patch semantics._classes for the rest of the test to find no atom
    class, so the enumerator spans every atom, as it does for a program
    with none."""
    monkeypatch.setattr(semantics, "_classes", lambda rules: ({}, 0))


def golden_program() -> Program:
    agg = AggregateSpec(AggregateFunc.COUNT, ((1, A), (1, B)), ">=", 1)
    return Program(
        (
            Rule({A}, (AtomLiteral(A, 2),)),
            Rule({B, C}, (agg,)),
        )
    )


GOLDEN_TEXT = "a :- not not a.\nb | c :- count{a, b} >= 1.\n"

GOLDEN_ATOMS = atoms("abc")
GOLDEN_SIZE = 6  # rule 1: head a + one negated literal; rule 2: two head atoms + |dom|=2

# Classical models of the golden program, restricted to {a, b, c}.
GOLDEN_MODELS = {
    atoms(""),
    atoms("b"),
    atoms("c"),
    atoms("bc"),
    atoms("ab"),
    atoms("ac"),
    atoms("abc"),
}

GOLDEN_G_STABLE = {atoms(""), atoms("ac")}
GOLDEN_F_STABLE = {atoms(""), atoms("ab"), atoms("ac")}

# Canonical renderings of the three reducts exercised by the golden suite.
GOLDEN_F_REDUCT_AB = "a.\nb | c :- count{a, b} >= 1.\n"
GOLDEN_G_REDUCT_AC = "a.\nb | c :- a.\n"
GOLDEN_G_REDUCT_AB = "a.\nb | c :- a, b.\n"

GOLDEN_REW_TEXT = (
    "a :- not not a.\n"
    "b | c :- count{a, b} >= 1, a__t, b__t.\n"
    "a__t :- not a.\n"
    "a__t :- a.\n"
    "b__t :- not b.\n"
    "b__t :- b.\n"
    "c__t :- not c.\n"
    "c__t :- c.\n"
)

GOLDEN_STR_TEXT = (
    "a :- not not a.\n"
    "b | c :- count{a__g, b__g} >= 1, a__t, b__t.\n"
    "a__t :- not a.\n"
    "a__t :- a.\n"
    "a__g :- not not a__g.\n"
    ":- not a__g, a.\n"
    ":- a__g, not a.\n"
    "b__t :- not b.\n"
    "b__t :- b.\n"
    "b__g :- not not b__g.\n"
    ":- not b__g, b.\n"
    ":- b__g, not b.\n"
    "c__t :- not c.\n"
    "c__t :- c.\n"
    "c__g :- not not c__g.\n"
    ":- not c__g, c.\n"
    ":- c__g, not c.\n"
)

_COPIES = frozenset(Atom(ch + "__t") for ch in "abc")

GOLDEN_REW_F_STABLE = {
    _COPIES,
    _COPIES | atoms("ac"),
}

GOLDEN_STR_F_STABLE = {
    _COPIES,
    _COPIES | atoms("ac") | frozenset({Atom("a__g"), Atom("c__g")}),
}

# Hand counts per the size metric: rew keeps rule 1 (2 symbols), extends rule 2
# to 2 head + 2 aggregate + 2 copies = 6, and adds six 2-symbol copy rules.
GOLDEN_REW_SIZE = 20
# str: rule 1 (2), extended rule 2 (6), five 2-symbol rules per atom (30).
GOLDEN_STR_SIZE = 38
GOLDEN_REW_BOUND = 4 * 3 + 2 * 6  # 24
GOLDEN_STR_BOUND = 10 * 3 + 2 * 6  # 42

GOLDEN_CORE2_TEXT = "a :- not not a.\nb | c :- #count{1,a : a; 1,b : b} >= 1.\n"
