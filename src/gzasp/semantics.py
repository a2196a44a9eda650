"""Model-theoretic core: satisfaction, reducts, consequence operator,
minimal-model checking, and aggregate classification.

Everything here is written for clarity over speed; it is the reference
layer the enumeration engine in reasoner.py is checked against. The one
exception is the aggregate circuit, _aggregate_column, which builds an
aggregate's column over a space of subsets from its domain atoms' columns
in O(|dom| log W) big-integer operations. The enumerator builds every
aggregate column with it, and classify_aggregate takes its packed truth
table from it, over the space of the domain atoms alone, so the closure
tests stay cheap even for wide domains.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import reduce
from itertools import combinations

from .core import (
    INT64_MAX,
    INT64_MIN,
    PARITY_FUNCS,
    AggregateFunc,
    AggregateSpec,
    AtomLiteral,
    Interpretation,
    Program,
    Rule,
)
from .errors import AggregateOverflowError, DomainTooLargeError, NotAspMError
from .parser import render_rule

DOMAIN_CHECK_LIMIT = 20

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


def _require_int64(value: int, what: str) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise AggregateOverflowError(f"{what} {value} exceeds the 64-bit integer range")
    return value


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
        return compare(_require_int64(sum(selected), "sum"), spec.bound)
    if not selected:
        return False
    if func is AggregateFunc.AVG:
        total = _require_int64(sum(selected), "sum")
        scaled = _require_int64(spec.bound * len(selected), "scaled avg bound")
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
    kept = []
    for rule in program:
        if not all(satisfies(interp, lit) for lit in rule.body):
            continue
        body = tuple(
            lit
            for lit in rule.body
            if not (isinstance(lit, AtomLiteral) and lit.negation_depth)
        )
        kept.append(Rule(rule.head, body))
    return Program(tuple(kept))


def g_reduct(program: Program, interp: Interpretation) -> Program:
    """Like the first reduct, but each aggregate is replaced in place by the
    atoms of its domain that are true, in name order (possibly none)."""
    kept = []
    for rule in program:
        if not all(satisfies(interp, lit) for lit in rule.body):
            continue
        body: list[AtomLiteral] = []
        for lit in rule.body:
            if isinstance(lit, AggregateSpec):
                body.extend(
                    AtomLiteral(atom) for atom in lit.domain if atom in interp
                )
            elif not lit.negation_depth:
                body.append(lit)
        kept.append(Rule(rule.head, tuple(body)))
    return Program(tuple(kept))


def tp_step(program: Program, interp: Interpretation) -> Interpretation:
    """One application of the immediate-consequence operator: all head atoms
    of rules whose bodies interp satisfies, disjuncts included."""
    fired: set = set()
    for rule in program:
        if all(satisfies(interp, lit) for lit in rule.body):
            fired.update(rule.head)
    return frozenset(fired)


def ensure_asp_m(program: Program) -> None:
    """Check the shape the fixpoint construction needs: single-atom heads,
    no negation, aggregates that classify as monotone."""
    for index, rule in enumerate(program, start=1):
        if not rule.head:
            raise NotAspMError(f"rule {index} has an empty head: {render_rule(rule)}")
        if len(rule.head) > 1:
            raise NotAspMError(
                f"rule {index} has a disjunctive head: {render_rule(rule)}"
            )
        for lit in rule.body:
            if isinstance(lit, AtomLiteral):
                if lit.negation_depth:
                    raise NotAspMError(
                        f"rule {index} uses negation: {render_rule(rule)}"
                    )
            elif classify_aggregate(lit) is not AggregateClass.MONOTONE:
                raise NotAspMError(
                    f"rule {index} uses a non-monotone aggregate: {render_rule(rule)}"
                )


def is_asp_m(program: Program) -> bool:
    try:
        ensure_asp_m(program)
    except NotAspMError:
        return False
    return True


def _lfp(program: Program) -> Interpretation:
    # sound only for monotone bodies; callers guarantee that
    current: Interpretation = frozenset()
    while True:
        step = tp_step(program, current)
        if step == current:
            return current
        current = step


def tp_least_fixpoint(program: Program) -> Interpretation:
    """Iterate the consequence operator from the empty set to its least
    fixpoint. Rejects programs outside the monotone fragment, where the
    iteration could oscillate or lose answers."""
    ensure_asp_m(program)
    return _lfp(program)


def is_horn(program: Program) -> bool:
    """No negation, no aggregates, at most one head atom per rule."""
    for rule in program:
        if len(rule.head) > 1:
            return False
        for lit in rule.body:
            if isinstance(lit, AggregateSpec) or lit.negation_depth:
                return False
    return True


def is_minimal_model(interp: Interpretation, program: Program) -> bool:
    """True iff interp is a model and no strict subset of it is one.

    Horn programs (no negation, no aggregates, at most one head atom) are
    decided by comparing interp with the least fixpoint of their definite
    rules; a constraint a model of the program satisfies is satisfied by
    every subset too, because positive bodies are monotone. Everything
    else falls back to checking the strict subsets of interp.
    """
    if not satisfies(interp, program):
        return False
    if is_horn(program):
        definite = Program(tuple(rule for rule in program if rule.head))
        return interp == _lfp(definite)
    items = sorted(interp)
    return not any(
        satisfies(frozenset(chosen), program)
        for size in range(len(items))
        for chosen in combinations(items, size)
    )


def _check_domain(size: int, max_domain: int) -> None:
    if size > max_domain:
        raise DomainTooLargeError(
            f"aggregate domain has {size} atoms; "
            f"exhaustive evaluation is capped at {max_domain}"
        )


def aggregate_truth_table(
    spec: AggregateSpec, *, max_domain: int = DOMAIN_CHECK_LIMIT
) -> list[bool]:
    """Evaluate spec on every subset of its domain. Entry i uses the subset
    whose members are the domain atoms (in name order) at the set bits of i."""
    domain = spec.domain
    _check_domain(len(domain), max_domain)
    return [
        eval_aggregate(
            spec, frozenset(atom for i, atom in enumerate(domain) if index >> i & 1)
        )
        for index in range(1 << len(domain))
    ]


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
    if func in (AggregateFunc.SUM, AggregateFunc.AVG):
        weights = [weight for weight, _ in spec.elements]
        scaled = bound * len(weights) if func is AggregateFunc.AVG else 0
        extremes = (sum(w for w in weights if w < 0), sum(w for w in weights if w > 0), scaled)
        if min(extremes) < INT64_MIN or max(extremes) > INT64_MAX:
            # some subset overflows; the table raises for the first one
            aggregate_truth_table(spec, max_domain=len(weights))
    terms = [(w, column) for (w, _), column in zip(spec.elements, columns) if column]
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


def classify_aggregate(
    spec: AggregateSpec, *, max_domain: int = DOMAIN_CHECK_LIMIT
) -> AggregateClass:
    """Exhaustively classify an aggregate as MONOTONE, CONVEX or NONCONVEX.

    The truth table is the aggregate's circuit column over the space of its
    domain atoms alone: one big integer, bit per subset. Shifting
    by a power of two aligns each subset with its neighbour across one domain
    atom, so closing truth upward (toward subsets) and downward (toward
    supersets) takes one pass per atom. Truth is monotone iff it already
    contains its subset closure, and convex iff it holds wherever both
    closures meet.
    """
    dimension = len(spec.domain)
    _check_domain(dimension, max_domain)
    full = (1 << (1 << dimension)) - 1
    columns = [_pattern(position, dimension) for position in range(dimension)]
    packed = _aggregate_column(spec, columns, full)
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
