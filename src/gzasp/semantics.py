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
(_table) that aggregate_truth_table reads, and classify_aggregate where
the truth along one chain of growing subsets (_chain) does not decide.

_stable_models picks the route by the program. In the monotone fragment ASP^M
the least fixpoint is the only candidate (_fixpoint_models): it is the one
F-stable model, and G-stable iff it is the least model of its G-reduct, so such
a program is answered at any size. Any other program is enumerated, and refused
above the atom guard: the candidates are the set bits of the program column,
read 64 bits at a time, and _stable_at checks each. The column spans one atom
per class that every model respects (_classes), and is built in blocks of at
most 2**_BLOCK_ATOMS subsets, the atoms above the lowest _BLOCK_ATOMS fixed to
each assignment in turn: candidates keep their order, memory holds one block's
columns, a query stops in the first block that answers it, and an overflow
error comes before the first block, as one column over all atoms would raise
it. What a rule's reduct body needs true, its positive atoms and under G its
aggregates' domain atoms, is one mask per rule, built once per solve
(_reduct_needs) and read by the support filter and by the stability check. The
pass that builds a column keeps only the models supported under the reduct:
each true atom has a rule whose body holds, whose head meets the model only at
that atom, and whose mask lacks it (the vicious circle principle): Clark's
completion less the self-supported models, such as {p} of `p :- count{p} >= 0.`
under G. Every stable model is one, as an atom with no support can be dropped
with every kept rule still holding; most models are not. The reduct at a
candidate s is the rules whose body holds at s, each head cut to s and body the
mask at s, plus its aggregates under F. _minimal decides its minimality:
least-model rounds (_least_model) over the rules left with at most one head
atom prove s minimal, through aggregates only where each holds on every set
between the atoms derived and s (the interval test: at both ends where its
chain makes it convex, else one sub-cube column), or stop at a smaller model;
otherwise s is minimal iff the reduct plus `:- s.` has an empty column. A
coherence test stops at the first stable model; a brave or cautious query on p
leads the rules with `:- not p.` or `:- p.`, so candidates hold, or lack, p.
is_stable, is_minimal_model and the G check of the least fixpoint run the same
checks on one candidate. A check, like a solve, builds each atom column once:
it reads them through cache(_pattern).
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

# the most atoms one enumerator block spans: a column of 2**18 bits, 32 KiB
_BLOCK_ATOMS = 18

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
    with at most one head atom decide, at any size, when they reach interp
    with each aggregate they fire at the derived set G holding on every set
    between G and interp (minimal), or stop below it at a model of every
    rule, constraints included (not minimal). Otherwise interp is minimal
    iff the program plus `:- interp.` has an empty column over the subsets
    of interp, refused above DEFAULT_MAX_ATOMS atoms.

    Overflow: an aggregate whose sum (or scaled avg bound) leaves the
    64-bit range on a subset of interp raises AggregateOverflowError where
    the check meets it: evaluated at a subset the rounds reach, or built
    into the column behind a body prefix that holds on some subset, where
    the error names the first overflowing subset of interp in table order.
    The interval test declines at it. Where the rounds decide, an aggregate
    only the column would build raises nothing, nor does one that
    overflows only on atoms outside interp.
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
        raise PreconditionError(f"interpretation mentions atoms outside the program: {names}")
    if not satisfies(interp, program):
        return False
    _, rules, index = _compile_at(program, interp)
    rules = _reduct_needs(rules, grounding)
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
    overflow is looked for, and an overflow before any column is built."""
    dimension = len(spec.domain)
    if dimension > DEFAULT_MAX_ATOMS:
        raise DomainTooLargeError(
            f"aggregate domain has {dimension} atoms; "
            f"exhaustive evaluation is capped at {DEFAULT_MAX_ATOMS}"
        )
    _first_overflow(spec, spec.elements)
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
    atoms there in domain order (0 for an atom outside the space). Where the
    extremes test flags those atoms, the lowest overflowing subset raises.
    Precondition: none of them is fixed true (column `full`), which the walk
    would count as optional, where they are flagged (see _raise_overflow)."""
    func, bound = spec.func, spec.bound
    terms = [(w, column) for (w, _), column in zip(spec.elements, columns) if column]
    if func is AggregateFunc.SUM or func is AggregateFunc.AVG:  # the kinds that overflow
        _first_overflow(spec, [pair for pair, column in zip(spec.elements, columns) if column])
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


def _overflows(spec: AggregateSpec, terms: list, taken: tuple = ()) -> bool:
    """The extremes test: whether a selection of `terms`, (weight, ...) pairs, with all
    of `taken`, takes a sum, or avg's bound times the count, out of the 64-bit range."""
    if spec.func not in (AggregateFunc.SUM, AggregateFunc.AVG):
        return False
    low = high = sum(w for w, _ in taken) if taken else 0
    for weight, _ in terms:  # one plain pass: _chain runs it on every one-sign sum
        if weight < 0:
            low += weight
        else:
            high += weight
    if spec.func is AggregateFunc.AVG:
        scaled = spec.bound * (len(taken) + len(terms))
        low, high = min(scaled, low), max(scaled, high)
    return not INT64_MIN <= low <= high <= INT64_MAX


def _first_overflow(spec: AggregateSpec, elements: list) -> None:
    """Where the extremes test flags `elements`, (weight, atom) pairs in
    domain order, raise what eval_aggregate raises at their first overflowing
    subset in table order. A later element is a more significant bit: walking
    down, each is left out where those below it and those taken can overflow."""
    if _overflows(spec, elements):
        taken: tuple = ()
        for place in reversed(range(len(elements))):
            if not _overflows(spec, elements[:place], taken):
                taken += (elements[place],)
        eval_aggregate(spec, frozenset(atom for _, atom in taken))


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
        for low in _bits(weight):
            buckets[low.bit_length() - 1].append(column)
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


def _compile_at(program: Program, interp: Interpretation = frozenset(), order=None) -> tuple:
    """(universe, rules, index): the atoms of the program and interp, in
    `order` (a list of them) or sorted; each rule as (head, must_true,
    must_false, positive, aggregates), atom bitmasks over the universe (a
    literal at even negation depth needs its atom true, at odd depth false;
    positive holds the depth-0 atoms, the only literals either reduct
    keeps) and the body aggregates in body order, each as (spec, domain
    mask, domain bits in domain order, memo, must_true, must_false of the
    literals before it in the body); and interp as a candidate, the bitmask
    of its atoms. The memo, shared by equal aggregates, maps the candidate's
    domain bits to its truth there, and None to whether its chain is convex."""
    if order is None:
        order = sorted(atoms_of(program).union(interp), key=operator.attrgetter("name"))
    bit_of = {atom: 1 << i for i, atom in enumerate(order)}
    compiled = []
    memos: dict = {}
    for rule in program:
        head = must_true = must_false = positive = 0
        for atom in rule.head:
            head |= bit_of[atom]
        aggregates = []
        for lit in rule.body:
            if isinstance(lit, AggregateSpec):
                bits = tuple([bit_of[atom] for atom in lit.domain])
                memo = memos.setdefault(lit, {})
                aggregates.append((lit, sum(bits), bits, memo, must_true, must_false))
                continue
            bit = bit_of[lit.atom]
            if lit.negation_depth % 2:
                must_false |= bit
            else:
                must_true |= bit
            if not lit.negation_depth:
                positive |= bit
        compiled.append((head, must_true, must_false, positive, tuple(aggregates)))
    return order, compiled, sum(bit_of[atom] for atom in interp)


def _reduct_needs(rules: list, grounding: bool) -> list:
    """The compiled rules, each positive mask widened to what the rule's
    reduct body needs true: under G (grounding) also its aggregates' domain
    atoms, whose true ones replace them. At a candidate the mask is the reduct
    body (_stable_at), and a rule never supports an atom of it (_column)."""
    widened = []
    for rule in rules:
        if grounding and rule[4]:  # any other rule is kept as it is
            head, true, false, needed, aggregates = rule
            for aggregate in aggregates:
                needed |= aggregate[1]
            rule = head, true, false, needed, aggregates
        widened.append(rule)
    return widened


def _aggregates_hold(aggregates: tuple, index: int) -> bool:
    """Whether every aggregate holds at the atom set `index`, evaluated in
    body order up to the first false one. Each aggregate reached sits behind
    a body prefix true at a candidate, a model of the rules before it, so
    the enumerator's _raise_overflow (the fixpoint route's classification)
    already raised if any subset of its domain overflows: nothing here
    raises, and stopping at the first stable model never skips an error
    that full enumeration would raise. is_stable and is_minimal_model run
    no such check first."""
    for spec, domain, bits, memo, _, _ in aggregates:
        key = index & domain
        truth = memo.get(key)
        if truth is None:
            chosen = frozenset(atom for atom, bit in zip(spec.domain, bits) if key & bit)
            truth = memo[key] = eval_aggregate(spec, chosen)
        if not truth:
            return False
    return True


def _least_model(rules: list[tuple], stop: int = -1, fires=None) -> int:
    """Least model, as an atom bitmask, of compiled rules read as their
    positive atoms and aggregates, with at most one head atom and monotone
    aggregates, by rounds from the empty set (with other aggregates, a set
    closed under the rules). For minimality `stop` is the candidate: every
    head is cut to it, so the rounds end as soon as they reach it. Given
    `fires`, fires(head, aggregates, derived) replaces the aggregates' test."""
    fires = fires or (lambda _, aggregates, derived: _aggregates_hold(aggregates, derived))
    derived = 0
    while derived != stop:
        grown = derived
        for head, _, _, positive, aggregates in rules:
            if positive & grown == positive and (
                not aggregates or fires(head, aggregates, grown)
            ):
                grown |= head
        if grown == derived:
            break
        derived = grown
    return derived


def _holds_between(aggregate: tuple, low: int, high: int, pattern, max_atoms: int) -> bool:
    """Whether a compiled aggregate holds on every atom set from `low` up to
    its superset `high`, memoised under the pair: at both ends where its
    chain (_chain) makes it convex, at any width; else False where its free
    atoms, those of its domain in high but not low, exceed max_atoms or its
    atoms in high can overflow, and otherwise whether `:- aggregate.` has
    an empty column over the free atoms with low fixed true."""
    spec, domain, bits, memo, _, _ = aggregate
    convex = memo.get(None)  # whether its chain makes it convex
    if convex is None:
        truths = _chain(spec)
        convex = truths is not None and _chain_class(truths) is not AggregateClass.NONCONVEX
        memo[None] = convex
    free = domain & high & ~low
    if not convex and free.bit_count() > max_atoms:
        return False
    key = (low & domain, high & domain)
    if key in memo:
        return memo[key]
    if convex:  # a convex aggregate holds between its ends
        truth = _aggregates_hold((aggregate,), low) and _aggregates_hold((aggregate,), high)
    elif _overflows(spec, [pair for pair, bit in zip(spec.elements, bits) if bit & high]):
        truth = False
    else:
        truth = not _column(free, [(0, 0, 0, 0, (aggregate,))], pattern, fixed=low)
    memo[key] = truth
    return truth


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
    rules = _reduct_needs(rules, grounding)
    stable = not grounding or _stable_at(rules, fixpoint, True, cache(_pattern), DEFAULT_MAX_ATOMS)
    return [_atoms_at(universe, fixpoint)] if stable else []


# the step after a body's aggregates: masks of -1, which the rule's own
# must_true and must_false cut down to all of its literals
_REST = ((None, 0, (), None, -1, -1),)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, each as a one-bit mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _column(
    index: int, rules: list, pattern, supported: bool = False, fixed: int = 0, aliases=None
) -> int:
    """The column of compiled rules over the subsets of `index`, with the
    atoms of `fixed` (disjoint from it, the top atoms of an enumerator
    block) true throughout: bit s is set iff the set holding `fixed` and
    the j-th lowest atom of `index` exactly when bit j of s is set models
    every rule. Every atom column is atom(low): `full` in `fixed`,
    `pattern`'s (position, dimension) column inside `index`, its
    representative's for an atom of `aliases` (a map of atom bits, from
    _classes), 0 elsewhere.

    Each body is built in body order and stops at the first prefix that is
    false everywhere, so an aggregate's column, and its overflow check, is
    built only behind a prefix that holds on some subset. Rules are added in
    order until the column is empty.

    With `supported`, only the supported models are kept: a rule supports
    each head atom outside its fourth mask (_reduct_needs) where its body
    holds and no other head atom of it is true. Each atom's support, the OR
    of those bodies, is kept as the rules are read; one pass after the last
    rule clears where a true atom lacks it, so the filter never moves the
    stop or an aggregate's build. An alias needs support of its own."""
    dimension = index.bit_count()
    full = (1 << (1 << dimension)) - 1
    space = index | fixed

    def atom(low: int) -> int:
        if index & low:
            return pattern((index & (low - 1)).bit_count(), dimension)
        return full if fixed & low else 0

    if aliases:  # an alias reads as its representative, and holds where it can
        space |= sum(alias for alias, rep in aliases.items() if rep & space)
        read = atom

        def atom(low: int) -> int:
            return read(aliases.get(low, low))

    column = full
    support: dict = {}  # each head atom's support, with `supported`
    for head, must_true, must_false, needed, aggregates in rules:
        body = full
        for spec, _, bits, _, true, false in aggregates + _REST:
            for low in _bits(true & must_true):
                body &= atom(low)
            for low in _bits(false & must_false):
                body &= atom(low) ^ full
            if not body or spec is None:
                break
            body &= _aggregate_column(spec, [atom(bit) for bit in bits], full)
        heads = twice = 0  # where some, and where two or more, head atoms hold
        for low in _bits(head & space):
            holds = atom(low)
            twice |= heads & holds
            heads |= holds
        column &= (body ^ full) | heads
        if supported and body:
            # below a true head atom, "no other head atom holds" is "not twice"
            alone = body & (twice ^ full) if twice else body
            for low in _bits(head & space & ~needed):
                support[low] = support[low] | alone if low in support else alone
        if not column:
            break
    if supported and column:  # a true atom needs its support
        for low in _bits(space):
            column &= (atom(low) ^ full) | support.get(low, 0)
    return column


def _minimal(index: int, rules: list[tuple], pattern, max_atoms: int) -> bool:
    """Whether the candidate M (`index`), a model of the compiled rules with
    their heads cut to it, is a minimal one. Rounds of _least_model run on
    the rules without negation and left with at most one head atom, which
    every smaller model S also models. Reaching M proves M minimal when no
    aggregate is among them, and else when a second pass reaches M, where
    a rule with aggregates fires at the derived set G only if each holds on
    every set between G and M: the first atom of M outside S derived came
    from a rule whose body holds at S, as S lies between G and M. Stopping
    below M at a model of every rule refutes it. Otherwise M is minimal iff
    `:- M.` then the rules have an empty column, refused above max_atoms
    atoms; `:- M.` first clears M's bit, which every rule keeps."""
    horn = [r for r in rules if r[1] == r[3] and not r[2] and not r[0] & (r[0] - 1)]
    derived = _least_model(horn, index)

    def interval(head, aggregates, low):  # a rule whose head is derived adds nothing
        holding = (_holds_between(a, low, index, pattern, max_atoms) for a in aggregates)
        return head & ~low and all(holding)

    if derived == index and (  # the empty candidate keeps its one-bit column
        not any(rule[4] for rule in horn) or index and _least_model(horn, index, interval) == index
    ):
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
    minimal model of its reduct there: each rule whose body holds, its head
    cut to `index` (a subset satisfies it iff it satisfies the cut rule), its
    body the fourth mask (_reduct_needs) there plus, under F, its aggregates."""
    kept = []
    for head, must_true, must_false, needed, aggregates in rules:
        if index & must_true == must_true and not index & must_false and (
            not aggregates or _aggregates_hold(aggregates, index)
        ):
            needed &= index
            kept.append((head & index, needed, 0, needed, () if grounding else aggregates))
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


def _raise_overflow(rules: list, size: int, width: int, pattern) -> None:
    """Before the first block of 2**width, raise what one column over all
    2**size subsets would: _first_overflow over the domain alone, all that
    overflow reads, of the first aggregate in rule and body order that the
    extremes test flags, whose body prefix holds over its own atoms (literals
    and domains) and whose earlier rules leave some block nonempty (tested
    second, as reach only shrinks). No block build reaches another flagged one."""
    low = (1 << width) - 1
    blocks = range(0, 1 << size, 1 << width)
    for number, (_, _, _, _, aggregates) in enumerate(rules):
        for place, (spec, _, _, _, true, false) in enumerate(aggregates):
            if true & false or not _overflows(spec, spec.elements):
                continue  # unflagged, or behind conflicting literals
            prefix = [(0, true, false, 0, aggregates[:place])]  # `:- prefix.`
            own = reduce(operator.or_, (other[1] for other in aggregates[:place]), true | false)
            built = (_column(own & low, prefix, pattern, fixed=t) for t in blocks if not t & ~own)
            if place and all(c.bit_count() == 1 << (own & low).bit_count() for c in built):
                continue  # the prefix holds nowhere; literals alone hold somewhere
            if not any(_column(low, rules[:number], pattern, fixed=top) for top in blocks):
                return  # no block is reached past these rules
            _first_overflow(spec, spec.elements)


def _classes(rules: list) -> tuple[dict, int]:
    """(aliases, always): atom classes that every model of the compiled rules
    respects, as atom bits, read off twins: aggregate-free one-head rules
    whose literals negate each other's. The constraints `:- a, not b.` and
    `:- b, not a.` put a and b in one class; `p :- q.` and `p :- not q.`
    make p true, and with it its class; twins with other literals do neither.
    Each other class maps its members above its lowest, its representative,
    to that one in `aliases`; `always` holds the rest."""
    plain = {(h, t, f) for h, t, f, _, aggregates in rules if not aggregates}
    twins = [(h, t, f) for h, t, f in plain if t < f and (h, f, t) in plain and not h & (h - 1)]
    parent: dict = {}  # each member to a lower one of its class

    def root(bit: int) -> int:  # the lowest member
        while bit in parent:
            bit = parent[bit]
        return bit

    for head, true, false in twins:  # true < false: `:- a, not b.` or `p :- not q.`
        if not head and true and not true & (true - 1) and not false & (false - 1):
            low, high = sorted((root(true), root(false)))
            if low != high:
                parent[high] = low
    sure = {root(h) for h, t, f in twins if h and not t and not f & (f - 1)}
    aliases = {bit: root(bit) for bit in parent if root(bit) not in sure}
    return aliases, sum(sure) | sum(bit for bit in parent if bit not in aliases)


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
    classified, are enumerated: _raise_overflow first raises what one column
    of the program's own rules, in program order, over all n atoms would.
    The column then spans one representative per atom class (_classes): the
    m representatives take the low positions, the atoms true in every model
    the next, and the aliases, read as their representatives, the top. It is
    built in blocks: the low k = min(m, _BLOCK_ATOMS) representatives span
    one, the atoms true throughout and the top m - k are fixed to each
    assignment in turn, and a query on p leads the rules with `:- not p.`
    (brave) or `:- p.` (cautious), then the aggregate-free rules over top
    atoms alone, so a block they rule out reads no low atom. _stable_at
    checks each model supported under the reduct there, lowest first, with
    its aliases set where their representatives are, over all atoms."""
    try:
        models = _fixpoint_models(program, grounding)
    except (NotAspMError, DomainTooLargeError, AggregateOverflowError):
        pass  # enumerate: its own column raises an overflow, where one is reached
    else:
        yield from (model for model in models if atom is None or (atom in model) == holds)
        return
    size = len(atoms := atoms_of(program))  # refuse before compiling a huge program
    if size > max_atoms:
        raise TooManyAtomsError(
            f"program has {size} atoms; the enumeration guard allows {max_atoms}"
        )
    universe, rules, _ = _compile_at(program, order=sorted(atoms, key=operator.attrgetter("name")))
    # atom columns by (position, dimension), for the blocks and the subspaces
    # of the minimality checks; freed with the generator when the solve ends
    pattern = cache(_pattern)
    _raise_overflow(rules, size, min(size, _BLOCK_ATOMS), pattern)
    aliases, always = _classes(rules)
    if aliases or always:  # representatives first, then the atoms true throughout
        order = sorted(range(size), key=lambda i: 2 if 1 << i in aliases else always >> i & 1)
        universe, rules, _ = _compile_at(program, order=[universe[i] for i in order])
        aliases, always = _classes(rules)  # the same classes, at their new positions
    rules = _reduct_needs(rules, grounding)
    dimension = size - len(aliases) - always.bit_count()
    width = min(dimension, _BLOCK_ATOMS)  # the low representatives, a block's space
    queried = 1 << universe.index(atom) if atom in universe else 0
    query = []  # a leading constraint: `:- not p.` keeps p, `:- p.` drops it
    if atom is not None and (queried or holds):  # an atom outside is false: `:- .` or none
        query = [(0, 0, queried, 0, ()) if holds else (0, queried, 0, 0, ())]
    low = (1 << width) - 1
    spanned = low | sum(alias for alias, rep in aliases.items() if rep & low)
    ordered = query + sorted(rules, key=lambda r: bool(r[4] or (r[0] | r[1] | r[2]) & spanned))
    for top in range(0, 1 << dimension, 1 << width):  # the top atoms' assignments, in order
        fixed = top | always
        column = _column(low, ordered, pattern, True, fixed, aliases)  # supported models
        for index in _set_bits(column):
            index |= fixed
            if aliases:  # each alias holds where its representative does
                index |= sum(alias for alias, rep in aliases.items() if index & rep)
            if _stable_at(rules, index, grounding, pattern, max_atoms):
                yield _atoms_at(universe, index)


def classify_aggregate(spec: AggregateSpec) -> AggregateClass:
    """Classify an aggregate as MONOTONE, CONVEX or NONCONVEX: by its truth
    along one chain of growing subsets where _chain gives one (count, odd,
    even, min, max, and sums of one sign under <, <=, >= or > that cannot
    overflow), at any width, otherwise by its truth table, which raises any
    overflow and refuses a domain wider than DEFAULT_MAX_ATOMS."""
    truths = _chain(spec)
    return _table_class(spec) if truths is None else _chain_class(truths)


def _chain_class(truths: list[bool]) -> AggregateClass:
    """The class of these truths along a chain, counted from a false in front:
    no switch or one rise is monotone, a rise and a fall convex, more nonconvex."""
    switches = sum(map(operator.ne, [False, *truths], truths))
    if switches <= 1:
        return AggregateClass.MONOTONE
    return AggregateClass.CONVEX if switches == 2 else AggregateClass.NONCONVEX


def _chain(spec: AggregateSpec) -> list[bool] | None:
    """spec's truth along one chain of growing subsets of its domain, or
    None where the table decides. Truth hangs on one value (count, min, max
    or sum) that never moves backward as atoms are added, and the chain
    passes every value listed, so each true-false-true pattern here occurs
    along real supersets. A one-sign sum under an inequality is true on an
    up-set or a down-set, so its two ends decide it."""
    func, bound, compare = spec.func, spec.bound, _COMPARE.get(spec.comparator)
    if func is AggregateFunc.COUNT:
        return [compare(k, bound) for k in range(len(spec.elements) + 1)]
    if func in PARITY_FUNCS:
        return [k % 2 == (func is AggregateFunc.ODD) for k in range(len(spec.elements) + 1)]
    weights = [w for w, _ in spec.elements]
    if func in (AggregateFunc.MIN, AggregateFunc.MAX):  # false on no selection
        ordered = sorted(set(weights), reverse=func is AggregateFunc.MIN)
        return [False, *(compare(w, bound) for w in ordered)]
    if func is AggregateFunc.SUM and spec.comparator not in ("=", "!="):
        one_sign = not min(weights, default=0) < 0 < max(weights, default=0)
        if one_sign and not _overflows(spec, spec.elements):  # extremes 0 and the total
            return [compare(0, bound), compare(sum(weights), bound)]
    return None


def _table_class(spec: AggregateSpec) -> AggregateClass:
    """Exhaustively classify an aggregate. Its truth table is _table's packed
    column: one big integer, bit per subset. Shifting by a power of two
    aligns each subset with its neighbour across one domain atom, so closing
    truth upward (toward subsets) and downward (toward supersets) takes one
    pass per atom. Truth is monotone iff it already contains its subset
    closure, and convex iff it holds wherever both closures meet."""
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
