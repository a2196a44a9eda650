"""Model-theoretic core and the solver: satisfaction, reducts, aggregate
classification, the minimality and stability checks, and the stable-model
search behind every query of reasoner.py.

Satisfaction and the reducts work on the AST, for clarity. The solver
works on a compiled form: _compile_at turns each rule into atom bitmasks
(head, atoms its body needs true, atoms it needs false, positive atoms)
plus its aggregates, and no reduct is built as a Program. A column is a
big integer with one bit per subset of an atom set: bit s holds a truth
value under the subset at the set bits of s. Conjunction is &, negation is
xor against the all-ones mask, and _column builds the column of compiled
rules over the subsets of any atom set. An aggregate's column is one
circuit, _aggregate_column: an XOR fold for parity, ORs for min and max,
and for count, sum and avg an adder network whose bit-planes are compared
with the bound, O(|dom| log W) column operations for weights up to W.
Over the space of the domain atoms alone it is the packed truth table
(_table) that classify_aggregate and aggregate_truth_table read.

_stable_models picks the route by the program. In the monotone fragment
ASP^M the least fixpoint is the only candidate (_fixpoint_models): it is
the one F-stable model, and G-stable iff it is the least model of its
G-reduct, so such a program is answered at any size. Any other program is
enumerated, and refused above the atom guard: the candidates are the set
bits of the program column, read 64 bits at a time, and _stable_at checks
each. The pass that builds that column keeps only the supported models,
those of Clark's completion, in which each true atom has a rule whose
body holds and whose head meets the model only at that atom. Every stable
model under either reduct is one, and most models are not. The reduct at
a candidate s is the list of rules whose body holds at s, each head cut to
s, with each kept aggregate under G turned into the mask of its domain
atoms true at s. _minimal decides its minimality: least-model rounds
(_least_model) over the rules left with at most one head atom prove s
minimal or stop at a smaller model, and otherwise s is minimal iff the
reduct plus the constraint `:- s.` has an empty column over the subsets
of s. A coherence test stops at the first stable model; brave and
cautious queries first restrict the candidates to those with, or without,
the queried atom. is_stable, is_minimal_model and the G check of the
least fixpoint run the same checks on one candidate. A check, like a
solve, builds each atom column once: it reads them through cache(_pattern).
"""

from __future__ import annotations

import operator
import sys
from enum import Enum
from functools import cache, reduce
from typing import Iterator

from .core import (
    INT64_MAX,
    INT64_MIN,
    PARITY_FUNCS,
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    Interpretation,
    Program,
    Rule,
    _check_int64,
    atoms_of,
)
from .errors import (
    AggregateOverflowError,
    DomainTooLargeError,
    NotAspMError,
    PreconditionError,
    TooManyAtomsError,
)
from .parser import render_rule

# the widest space the engine enumerates, and an aggregate's truth table
# spans, by default: a column over 24 atoms is 2**24 bits, 2 MiB
DEFAULT_MAX_ATOMS = 24

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
    ">": operator.gt,
    "=": operator.eq,
    "!=": operator.ne,
}


class AggregateClass(Enum):
    """Strongest applicable class: monotone aggregates are tagged MONOTONE
    even though they are convex as well."""

    MONOTONE = "monotone"
    CONVEX = "convex"
    NONCONVEX = "nonconvex"


# eval_aggregate's overflow wording; a weight or bound is "outside" the range
_EXCEEDS = "exceeds the 64-bit integer range"


def eval_aggregate(spec: AggregateSpec, interp: Interpretation) -> bool:
    """Evaluate an aggregate over the atoms of its domain that are true.

    count compares the selection size, sum the selected weight total, avg
    the exact rational mean (via cross-multiplication, so 3/2 is neither
    1 nor 2), min/max the extreme selected weight, odd/even the parity of
    the selection size. avg, min and max over an empty selection are
    false for every comparator.
    """
    selected = [weight for weight, atom in spec.elements if atom in interp]
    func = spec.func
    if func is AggregateFunc.ODD:
        return len(selected) % 2 == 1
    if func is AggregateFunc.EVEN:
        return len(selected) % 2 == 0
    compare = _COMPARE[spec.comparator]
    if func is AggregateFunc.COUNT:
        return compare(len(selected), spec.bound)
    if func is AggregateFunc.SUM:
        return compare(_check_int64(sum(selected), "sum", _EXCEEDS), spec.bound)
    if not selected:
        return False
    if func is AggregateFunc.AVG:
        total = _check_int64(sum(selected), "sum", _EXCEEDS)
        scaled = _check_int64(spec.bound * len(selected), "scaled avg bound", _EXCEEDS)
        return compare(total, scaled)
    extreme = min(selected) if func is AggregateFunc.MIN else max(selected)
    return compare(extreme, spec.bound)


def satisfies(interp: Interpretation, item) -> bool:
    """Truth of a literal, aggregate, rule, or whole program under interp.

    A literal is true iff atom membership and odd negation depth disagree.
    A rule is true iff its head intersects interp whenever its body holds;
    an empty head never intersects, which is exactly the constraint reading.
    """
    if isinstance(item, AtomLiteral):
        return (item.atom in interp) != (item.negation_depth % 2 == 1)
    if isinstance(item, AggregateSpec):
        return eval_aggregate(item, interp)
    if isinstance(item, Rule):
        if all(satisfies(interp, lit) for lit in item.body):
            return not interp.isdisjoint(item.head)
        return True
    if isinstance(item, Program):
        return all(satisfies(interp, rule) for rule in item.rules)
    raise TypeError(f"cannot evaluate satisfaction of {type(item).__name__}")


def f_reduct(program: Program, interp: Interpretation) -> Program:
    """Keep the rules whose bodies interp satisfies, with every literal of
    negation depth one or more removed; aggregates stay in place."""
    return _reduct(program, interp, grounding=False)


def g_reduct(program: Program, interp: Interpretation) -> Program:
    """Like the first reduct, but each aggregate is replaced in place by the
    atoms of its domain that are true, in name order (possibly none)."""
    return _reduct(program, interp, grounding=True)


def _reduct(program: Program, interp: Interpretation, grounding: bool) -> Program:
    kept = []
    for rule in program:
        if not all(satisfies(interp, lit) for lit in rule.body):
            continue
        body: list = []
        for lit in rule.body:
            if isinstance(lit, AtomLiteral):
                if not lit.negation_depth:
                    body.append(lit)
            elif grounding:
                body.extend(AtomLiteral(atom) for atom in lit.domain if atom in interp)
            else:
                body.append(lit)
        kept.append(Rule(rule.head, tuple(body)))
    return Program(tuple(kept))


def ensure_asp_m(program: Program) -> None:
    """Check the shape the fixpoint construction needs: single-atom heads,
    no negation, aggregates that classify as monotone. The syntax of every
    rule is checked before any aggregate is classified, and each distinct
    aggregate is classified once, in the order of first occurrence."""
    aggregates: dict = {}  # each distinct aggregate, with its first rule
    for index, rule in enumerate(program, start=1):
        if not rule.head:
            raise NotAspMError(f"rule {index} has an empty head: {render_rule(rule)}")
        if len(rule.head) > 1:
            raise NotAspMError(
                f"rule {index} has a disjunctive head: {render_rule(rule)}"
            )
        for lit in rule.body:
            if isinstance(lit, AggregateSpec):
                aggregates.setdefault(lit, (index, rule))
            elif lit.negation_depth:
                raise NotAspMError(f"rule {index} uses negation: {render_rule(rule)}")
    for lit, (index, rule) in aggregates.items():
        if classify_aggregate(lit) is not AggregateClass.MONOTONE:
            raise NotAspMError(
                f"rule {index} uses a non-monotone aggregate: {render_rule(rule)}"
            )


def is_asp_m(program: Program) -> bool:
    try:
        ensure_asp_m(program)
    except NotAspMError:
        return False
    return True


def tp_least_fixpoint(program: Program) -> Interpretation:
    """The least fixpoint of the consequence operator, the limit of its
    rounds from the empty set. Rejects programs outside the monotone
    fragment, where the iteration could oscillate or lose answers."""
    return _fixpoint_models(program, False)[0]


def is_horn(program: Program) -> bool:
    """No negation at any depth, no aggregates, at most one head atom per
    rule: a check of the syntax alone."""
    return all(
        len(rule.head) <= 1
        and all(isinstance(lit, AtomLiteral) and not lit.negation_depth for lit in rule.body)
        for rule in program
    )


def is_minimal_model(interp: Interpretation, program: Program) -> bool:
    """True iff interp is a model and no strict subset of it is one.

    Below interp a head atom outside it is false, so each head is first cut
    to interp. Least-model rounds over the rules without negation and left
    with at most one head atom decide when they reach interp, none of those
    rules having an aggregate (minimal), or stop below it at a model of
    every rule, constraints included (not minimal). Otherwise interp is
    minimal iff the program plus `:- interp.` has an empty column over the
    subsets of interp, refused above DEFAULT_MAX_ATOMS atoms.

    Overflow: an aggregate whose sum (or scaled avg bound) leaves the
    64-bit range on a subset of interp raises AggregateOverflowError where
    the check meets it: evaluated at a subset the rounds reach, or built
    into the column behind a body prefix that holds on some subset, where
    the error names the first overflowing subset of interp in table order.
    An aggregate that overflows only on atoms outside interp raises nothing.
    """
    if not satisfies(interp, program):
        return False
    _, rules, index = _compile_at(program, interp)
    rules = [(head & index, *body) for head, *body in rules]
    return _minimal(index, rules, cache(_pattern), DEFAULT_MAX_ATOMS)


def _is_stable(program: Program, interp: Interpretation, grounding: bool) -> bool:
    """reasoner.is_stable under G (grounding) or F: interp must mention only
    the program's atoms, model the program and pass _stable_at."""
    foreign = frozenset(interp) - atoms_of(program)
    if foreign:
        names = ", ".join(sorted(atom.name for atom in foreign))
        raise PreconditionError(
            f"interpretation mentions atoms outside the program: {names}"
        )
    if not satisfies(interp, program):
        return False
    _, rules, index = _compile_at(program, interp)
    return _stable_at(rules, index, grounding, cache(_pattern), DEFAULT_MAX_ATOMS)


def aggregate_truth_table(spec: AggregateSpec) -> list[bool]:
    """Truth of spec on every subset of its domain. Entry i is the subset
    whose members are the domain atoms (in name order) at the set bits of i."""
    packed, _, _ = _table(spec)
    return [bit == "1" for bit in reversed(f"{packed:0{1 << len(spec.domain)}b}")]


def _table(spec: AggregateSpec) -> tuple[int, list[int], int]:
    """(packed, columns, full): the aggregate's truth table, its circuit
    column over the space of its domain atoms alone (bit i for the subset at
    the set bits of i), with the columns of those atoms and the all-ones
    mask. A domain wider than DEFAULT_MAX_ATOMS is refused before any
    overflow is looked for."""
    dimension = len(spec.domain)
    if dimension > DEFAULT_MAX_ATOMS:
        raise DomainTooLargeError(
            f"aggregate domain has {dimension} atoms; "
            f"exhaustive evaluation is capped at {DEFAULT_MAX_ATOMS}"
        )
    full = (1 << (1 << dimension)) - 1
    columns = [_pattern(position, dimension) for position in range(dimension)]
    return _aggregate_column(spec, columns, full), columns, full


def _pattern(position: int, dimension: int) -> int:
    """Column of the atom at `position` over a 2**dimension space: bit s is
    (s >> position) & 1. Built by doubling, so cost is linear in the width."""
    pattern = ((1 << (1 << position)) - 1) << (1 << position)
    span = 1 << (position + 1)
    width = 1 << dimension
    while span < width:
        pattern |= pattern << span
        span <<= 1
    return pattern


def _aggregate_column(spec: AggregateSpec, columns: list[int], full: int) -> int:
    """The aggregate's column over a space, from the columns of its domain
    atoms there in domain order (0 for an atom outside the space)."""
    func, bound = spec.func, spec.bound
    terms = [(w, column) for (w, _), column in zip(spec.elements, columns) if column]
    if func in (AggregateFunc.SUM, AggregateFunc.AVG):
        # only subsets of the atoms in the space are evaluated: the column of
        # those whose sum, or avg's scaled bound, leaves the 64-bit range
        weights = [weight for weight, _ in terms]
        scaled = bound * len(weights) if func is AggregateFunc.AVG else 0
        overflow = 0
        if sum(w for w in weights if w < 0) < INT64_MIN:
            overflow = _compare_sum(terms, INT64_MIN, full)[0]
        if sum(w for w in weights if w > 0) > INT64_MAX:
            overflow |= full ^ _compare_sum(terms, INT64_MAX + 1, full)[0]
        if not INT64_MIN <= scaled <= INT64_MAX:
            # a count above the largest with bound * count in range
            most = (INT64_MAX if bound > 0 else INT64_MIN) // bound
            overflow |= full ^ _compare_sum([(1, c) for _, c in terms], most + 1, full)[0]
        if overflow:
            # the lowest bit is the first overflowing subset in table order,
            # and eval_aggregate raises there what the table walk would
            lowest = (overflow & -overflow).bit_length() - 1
            chosen = [a for (_, a), column in zip(spec.elements, columns) if column >> lowest & 1]
            eval_aggregate(spec, frozenset(chosen))
    if func in PARITY_FUNCS:
        odd = reduce(operator.xor, (column for _, column in terms), 0)
        return odd if func is AggregateFunc.ODD else odd ^ full
    if func in (AggregateFunc.MIN, AggregateFunc.MAX):
        below = at = above = 0  # the columns of the weights below, at, above the bound
        for weight, column in terms:
            if weight < bound:
                below |= column
            elif weight == bound:
                at |= column
            else:
                above |= column
        if func is AggregateFunc.MIN:
            less, equal = below, at & ~below
        else:
            less, equal = (at | above) ^ full, at & ~above
    elif func is AggregateFunc.AVG:  # sum >= bound * count: sum(w - bound) >= 0
        less, equal = _compare_sum([(w - bound, c) for w, c in terms], 0, full)
    else:
        less, equal = _compare_sum(terms, bound, full)
    # each comparator holds below, at and/or above the bound: the column is
    # the parts it takes, or the complement of those it leaves out
    compare = _COMPARE[spec.comparator]
    if compare(1, 0):
        column = full ^ (0 if compare(-1, 0) else less) ^ (0 if compare(0, 0) else equal)
    else:
        column = (less if compare(-1, 0) else 0) | (equal if compare(0, 0) else 0)
    if func in (AggregateFunc.AVG, AggregateFunc.MIN, AggregateFunc.MAX):
        column &= reduce(operator.or_, (column for _, column in terms), 0)  # false on no selection
    return column


def _compare_sum(terms: list, bound: int, full: int) -> tuple[int, int]:
    """(less, equal): where sum(weight * column) is below, and at, bound. A
    negative weight w counts |w| on the complement column and adds |w| to
    the bound. Full adders compress the columns, bucketed by the set bits of
    their weights, into one bit-plane per bucket (the adder network of Een
    and Soerensson, "Translating Pseudo-Boolean Constraints into SAT", JSAT
    2006), and the planes are compared with the bound from the most
    significant down."""
    total = 0
    for weight, _ in terms:
        total += abs(weight)
        if weight < 0:
            bound -= weight
    if bound < 0:
        return 0, 0
    # the sum never exceeds the weight total, so no carry leaves the top bucket
    size = max(total, bound).bit_length()
    buckets: list[list[int]] = [[] for _ in range(size)]
    for weight, column in terms:
        if weight < 0:
            weight, column = -weight, column ^ full
        while weight:
            low = weight & -weight
            buckets[low.bit_length() - 1].append(column)
            weight ^= low
    for plane, bucket in enumerate(buckets):
        while len(bucket) > 1:
            first, second = bucket.pop(), bucket.pop()
            half, carry = first ^ second, first & second
            if bucket:
                third = bucket.pop()
                half, carry = half ^ third, carry | half & third
            bucket.append(half)
            if carry:
                buckets[plane + 1].append(carry)
    less, equal = 0, full
    for plane in reversed(range(size)):
        if not equal:
            break
        kept = equal & buckets[plane][0] if buckets[plane] else 0
        if bound >> plane & 1:
            less |= equal ^ kept
            equal = kept
        else:
            equal ^= kept
    return less, equal


def _compile_at(program: Program, interp: Interpretation = frozenset()) -> tuple:
    """(universe, rules, index): the sorted atoms of the program and interp;
    each rule as (head, must_true, must_false, positive, aggregates), atom
    bitmasks over the universe (a literal at even negation depth needs its
    atom true, at odd depth false; positive holds the depth-0 atoms, the
    only literals either reduct keeps) and the body aggregates in body
    order, each as (spec, domain mask, domain bits in domain order, memo,
    must_true, must_false of the literals before it in the body); and
    interp as a candidate, the bitmask of its atoms. The memo, shared by
    equal aggregates, maps the candidate's domain bits to the aggregate's
    truth there."""
    universe = sorted(atoms_of(program).union(interp))
    position = {atom: i for i, atom in enumerate(universe)}
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
                memo = memos.setdefault(lit, {})
                aggregates.append((lit, sum(bits), bits, memo, must_true, must_false))
                continue
            bit = 1 << position[lit.atom]
            if lit.negation_depth % 2:
                must_false |= bit
            else:
                must_true |= bit
            if not lit.negation_depth:
                positive |= bit
        compiled.append((head, must_true, must_false, positive, tuple(aggregates)))
    return universe, compiled, sum(1 << position[atom] for atom in interp)


def _aggregates_hold(aggregates: tuple, index: int) -> bool:
    """Whether every aggregate holds at the atom set `index`, evaluated in
    body order up to the first false one. Each aggregate reached sits behind
    a body prefix true at a candidate, so the enumerator's program column
    (the fixpoint route's classification) already checked every subset of
    its domain for 64-bit overflow: nothing here raises, and stopping at the
    first stable model never skips an error that full enumeration would
    raise. is_stable and is_minimal_model build no such column first."""
    for spec, domain, bits, memo, _, _ in aggregates:
        key = index & domain
        truth = memo.get(key)
        if truth is None:
            chosen = frozenset(atom for atom, bit in zip(spec.domain, bits) if key & bit)
            truth = memo[key] = eval_aggregate(spec, chosen)
        if not truth:
            return False
    return True


def _least_model(rules: list[tuple], stop: int = -1) -> int:
    """Least model, as an atom bitmask, of compiled rules read as their
    positive atoms and aggregates, with at most one head atom and monotone
    aggregates, by rounds from the empty set (with other aggregates, a set
    closed under the rules). For minimality `stop` is the candidate: every
    head is cut to it, so the rounds end as soon as they reach it."""
    derived = 0
    while derived != stop:
        grown = derived
        for head, _, _, positive, aggregates in rules:
            if positive & grown == positive and (
                not aggregates or _aggregates_hold(aggregates, grown)
            ):
                grown |= head
        if grown == derived:
            break
        derived = grown
    return derived


def _atoms_at(universe: list, index: int) -> Interpretation:
    return frozenset(atom for i, atom in enumerate(universe) if index >> i & 1)


def _fixpoint_models(program: Program, grounding: bool) -> list[Interpretation]:
    """The stable models of an ASP^M program, from its least fixpoint: the
    one F-stable model, and under G (grounding) kept iff _stable_at accepts
    it. Raises NotAspMError outside the fragment, and what classification
    raises."""
    ensure_asp_m(program)
    universe, rules, _ = _compile_at(program)
    # without negation a rule's positive mask is all its atom literals
    fixpoint = _least_model(rules)
    if grounding and not _stable_at(rules, fixpoint, True, cache(_pattern), DEFAULT_MAX_ATOMS):
        return []
    return [_atoms_at(universe, fixpoint)]


# the step after a body's aggregates: masks of -1, which the rule's own
# must_true and must_false cut down to all of its literals
_REST = ((None, 0, (), None, -1, -1),)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, each as a one-bit mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _column(index: int, rules: list[tuple], pattern, supported: bool = False) -> int:
    """The column of compiled rules over the subsets of `index`: bit s is
    set iff the subset holding the j-th lowest atom of `index` exactly when
    bit j of s is set models every rule. Every atom column is atom(low):
    `pattern`'s (position, dimension) column inside `index`, 0 outside it.

    Each body is built in body order and stops at the first prefix that is
    false everywhere, so an aggregate's column, and its overflow check, is
    built only behind a prefix that holds on some subset. Rules are added in
    order until the column is empty.

    With `supported`, only the supported models are kept: those in which
    every true atom has a rule whose body holds and whose head meets the
    model only at that atom. Every stable model under either reduct is one
    (a reduct keeps the rules whose body holds; drop an unsupported atom
    and every kept rule still holds, so the model is not minimal). An
    atom's support is the OR of the bodies of its head rules, each where no
    other head atom of the rule is true, and is folded into one unsupported
    column at its last head rule. The mask is applied after the last rule,
    so it never moves the stop or an aggregate's build."""
    dimension = index.bit_count()
    full = (1 << (1 << dimension)) - 1

    def atom(low: int) -> int:
        return pattern((index & (low - 1)).bit_count(), dimension) if index & low else 0

    column = full
    if supported:
        # each head atom's bit, by its last head rule; an atom in no head is
        # unsupported wherever it is true
        last = {low: number for number, rule in enumerate(rules) for low in _bits(rule[0] & index)}
        support: dict = {}
        unsupported = 0
        for low in _bits(index & ~sum(last)):
            unsupported |= atom(low)
    for number, (head, must_true, must_false, _, aggregates) in enumerate(rules):
        body = full
        for spec, _, bits, _, true, false in aggregates + _REST:
            true &= must_true
            while true:
                low = true & -true
                body &= atom(low)
                true ^= low
            false &= must_false
            while false:
                low = false & -false
                body &= atom(low) ^ full
                false ^= low
            if not body or spec is None:
                break
            body &= _aggregate_column(spec, [atom(bit) for bit in bits], full)
        heads = twice = 0  # where some, and where two or more, head atoms hold
        head &= index
        atoms = head
        while head:
            low = head & -head
            holds = atom(low)
            if supported:
                twice |= heads & holds
            heads |= holds
            head ^= low
        column &= (body ^ full) | heads
        if supported:
            # below a true head atom, "no other head atom holds" is "not twice"
            alone = body & (twice ^ full) if twice else body
            for low in _bits(atoms):
                held = support.pop(low) | alone if low in support else alone
                if last[low] == number:
                    unsupported |= atom(low) & (held ^ full)
                else:
                    support[low] = held
        if not column:
            break
    if supported:
        column &= unsupported ^ full
    return column


def _minimal(index: int, rules: list[tuple], pattern, max_atoms: int) -> bool:
    """Whether the candidate `index`, a model of the compiled rules with
    their heads cut to it, is a minimal one. Rounds of _least_model run on
    the rules without negation and left with at most one head atom, which
    every smaller model also models: reaching the candidate with no
    aggregate among them proves it minimal, and stopping below it at a
    model of every rule refutes it. Otherwise it is minimal iff `:- M.` (M
    the candidate) then the rules have an empty column, refused above
    max_atoms atoms; `:- M.` first clears M's bit, which every rule keeps."""
    horn = [r for r in rules if r[1] == r[3] and not r[2] and not r[0] & (r[0] - 1)]
    derived = _least_model(horn, index)
    if derived == index and not any(rule[4] for rule in horn):
        return True
    if derived != index and all(
        must_true & ~derived or must_false & derived or head & derived
        or not _aggregates_hold(aggregates, derived)
        for head, must_true, must_false, _, aggregates in rules
    ):
        return False
    dimension = index.bit_count()
    if dimension > max_atoms:
        raise TooManyAtomsError(
            f"interpretation has {dimension} atoms; the minimality guard allows {max_atoms}"
        )
    return not _column(index, [(0, index, 0, index, ())] + rules, pattern)


def _stable_at(rules: list[tuple], index: int, grounding: bool, pattern, max_atoms: int) -> bool:
    """Whether the candidate `index`, a model of the compiled rules, is a
    minimal model of its reduct there. The reduct is compiled rules whose
    bodies are their positive atoms and, under F, their aggregates; under G
    (grounding) each aggregate is replaced by its domain atoms true at the
    candidate. Each head is cut to the candidate: a subset of it satisfies
    a rule iff it satisfies the rule with the head atoms outside it left
    out."""
    kept = []
    for head, must_true, must_false, positive, aggregates in rules:
        if index & must_true != must_true or index & must_false:
            continue
        if aggregates:
            if not _aggregates_hold(aggregates, index):
                continue
            if grounding:
                for _, domain, _, _, _, _ in aggregates:
                    positive |= domain & index
                aggregates = ()
        kept.append((head & index, positive, 0, positive, aggregates))
    return _minimal(index, kept, pattern, max_atoms)


def _set_bits(column: int) -> Iterator[int]:
    """Indices of the set bits of a column, lowest first. The column is
    copied once into native 64-bit words, so a set bit costs a few word
    operations instead of a copy of the whole column."""
    size = max(8, (column.bit_length() + 63) >> 6 << 3)  # whole words, at least one
    words = memoryview(column.to_bytes(size, sys.byteorder)).cast("Q")
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


def _stable_models(
    program: Program,
    grounding: bool,
    max_atoms: int,
    atom: Atom | None = None,
    holds: bool = True,
) -> Iterator[Interpretation]:
    """Stable models under G (grounding) or F, in candidate order; with
    `atom`, only those where it holds (or, with holds=False, where it does
    not). Programs outside ASP^M, or with an aggregate that cannot be
    classified, are enumerated: _stable_at checks the supported models, the
    set bits of the program column built with `supported`, lowest first."""
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
    column = _column((1 << len(universe)) - 1, rules, pattern, True)  # supported models
    if atom is not None:
        restrict = pattern(universe.index(atom), len(universe)) if atom in universe else 0
        column &= restrict if holds else ~restrict
    candidates = _set_bits(column)
    del column  # only the scan's word copy stays alive
    for index in candidates:
        if _stable_at(rules, index, grounding, pattern, max_atoms):
            yield _atoms_at(universe, index)


def classify_aggregate(spec: AggregateSpec) -> AggregateClass:
    """Exhaustively classify an aggregate as MONOTONE, CONVEX or NONCONVEX.

    The truth table is _table's packed column: one big integer, bit per
    subset. Shifting by a power of two aligns each subset with its neighbour
    across one domain atom, so closing truth upward (toward subsets) and
    downward (toward supersets) takes one pass per atom. Truth is monotone
    iff it already contains its subset closure, and convex iff it holds
    wherever both closures meet.
    """
    packed, columns, full = _table(spec)
    reaches_up = packed  # some superset is true
    reaches_down = packed  # some subset is true
    for position, column in enumerate(columns):
        clear = full ^ column
        span = 1 << position
        reaches_up |= (reaches_up >> span) & clear
        reaches_down |= (reaches_down & clear) << span
    gaps = full & ~packed
    if reaches_down & gaps == 0:
        return AggregateClass.MONOTONE
    if reaches_up & reaches_down & gaps == 0:
        return AggregateClass.CONVEX
    return AggregateClass.NONCONVEX
