"""Seeded random program generation for the property and acceptance suites.

Everything is driven by a caller-supplied random.Random so each test run
sees the same corpus.
"""

from __future__ import annotations

import random

from gzasp.core import (
    COMPARATORS,
    INT64_MAX,
    INT64_MIN,
    PARITY_FUNCS,
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    Program,
    Rule,
)

POOL = tuple(Atom(ch) for ch in "abcdef")
ALT_POOL = tuple(Atom(ch) for ch in "uvwxyz")

_BOUNDED_FUNCS = (
    AggregateFunc.COUNT,
    AggregateFunc.SUM,
    AggregateFunc.AVG,
    AggregateFunc.MIN,
    AggregateFunc.MAX,
)
_PARITY = (AggregateFunc.ODD, AggregateFunc.EVEN)
_COMPARATORS = ("<", "<=", ">=", ">", "=", "!=")
# Aggregates whose truth can only grow along subset chains: count/sum/max
# over positive weights with a lower-bound comparator.
_MONOTONE_FUNCS = (AggregateFunc.COUNT, AggregateFunc.SUM, AggregateFunc.MAX)


def random_aggregate(
    rng: random.Random,
    pool=POOL,
    max_dom: int = 3,
    monotone_only: bool = False,
) -> AggregateSpec:
    if monotone_only:
        func = rng.choice(_MONOTONE_FUNCS)
        size = rng.randint(0 if func is not AggregateFunc.MAX else 1, min(max_dom, len(pool)))
        dom = rng.sample(pool, size)
        elements = tuple((rng.randint(1, 4), atom) for atom in dom)
        return AggregateSpec(func, elements, rng.choice((">=", ">")), rng.randint(-2, 6))
    func = rng.choice(_BOUNDED_FUNCS + _PARITY)
    low = 0 if func in (AggregateFunc.COUNT, AggregateFunc.SUM) else 1
    size = rng.randint(max(low, 1) if rng.random() < 0.9 else low, min(max_dom, len(pool)))
    dom = rng.sample(pool, size)
    elements = tuple((rng.randint(-3, 5), atom) for atom in dom)
    if func in _PARITY:
        if not elements:
            elements = ((1, rng.choice(pool)),)
        return AggregateSpec(func, elements)
    return AggregateSpec(func, elements, rng.choice(_COMPARATORS), rng.randint(-4, 6))


# Every function with each comparator it takes.
AGGREGATE_CASES = [
    (func, comparator)
    for func in AggregateFunc
    for comparator in ((None,) if func in PARITY_FUNCS else COMPARATORS)
]
# Weight kinds: zero, positive, negative, 40-bit, and near the 64-bit edge,
# where sum and avg overflow.
_WEIGHT_KINDS = (
    lambda rng: 0,
    lambda rng: rng.randint(1, 6),
    lambda rng: rng.randint(-6, -1),
    lambda rng: rng.randint(-2**40, 2**40),
    lambda rng: rng.choice((INT64_MAX, INT64_MIN, 2**62, -(2**62), 3 * 2**61)),
)


def random_weighted_aggregate(
    rng: random.Random, func: AggregateFunc, comparator, pool, max_dom: int
) -> AggregateSpec:
    """An aggregate with the given function and comparator (None for
    parity) over up to max_dom atoms of pool, its weights drawn from one to
    three weight kinds, so they are uniform or mixed."""
    low = 0 if func in (AggregateFunc.COUNT, AggregateFunc.SUM) else 1
    domain = rng.sample(pool, rng.randint(low, max_dom))
    kinds = rng.sample(_WEIGHT_KINDS, rng.randint(1, 3))  # one kind, or a mix
    elements = tuple((rng.choice(kinds)(rng), atom) for atom in domain)
    if comparator is None:
        return AggregateSpec(func, elements)
    bound = rng.choice((0, rng.randint(-8, 12), rng.choice(kinds)(rng)))
    return AggregateSpec(func, elements, comparator, bound)


def random_program(
    rng: random.Random,
    *,
    pool=POOL,
    max_atoms: int = 6,
    max_rules: int = 8,
    max_body: int = 3,
    max_dom: int = 3,
    negation: bool = True,
    max_depth: int = 2,
    disjunction: bool = True,
    aggregates: bool = True,
    constraints: bool = True,
    monotone_only: bool = False,
    gadgets: bool = False,
) -> Program:
    atoms = list(pool[: rng.randint(1, min(max_atoms, len(pool)))])
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        if constraints and rng.random() < 0.12:
            head: frozenset = frozenset()
        else:
            width = 1
            if disjunction and rng.random() < 0.35:
                width = rng.randint(2, min(3, len(atoms))) if len(atoms) > 1 else 1
            head = frozenset(rng.sample(atoms, width))
        body = []
        for _ in range(rng.randint(0, max_body)):
            roll = rng.random()
            if aggregates and roll < 0.35:
                body.append(
                    random_aggregate(rng, atoms, max_dom, monotone_only=monotone_only)
                )
            elif negation and roll < 0.65:
                depth = 1 if max_depth == 1 or rng.random() < 0.7 else rng.randint(2, max_depth)
                body.append(AtomLiteral(rng.choice(atoms), depth))
            else:
                body.append(AtomLiteral(rng.choice(atoms)))
        rules.append(Rule(head, tuple(body)))
    if gadgets and rng.random() < 0.5:
        # self-supported derivation through an aggregate's own domain
        target = rng.choice(atoms)
        loop = AggregateSpec(AggregateFunc.COUNT, ((1, target),), ">=", 0)
        rules.append(Rule(frozenset({target}), (loop,)))
    return Program(tuple(rules))


def random_mixed_program(rng: random.Random, index: int) -> Program:
    """Criterion-2 style mix with deterministic subfamilies: every third
    program is disjunction-free, every fourth aggregate-free."""
    return random_program(
        rng,
        disjunction=index % 3 != 0,
        aggregates=index % 4 != 0,
        negation=index % 7 != 6,
    )


def random_normal_program(rng: random.Random) -> Program:
    """ASP(~, v): no aggregates, negation depth at most 1."""
    return random_program(rng, aggregates=False, max_depth=1)


def random_monotone_program(rng: random.Random) -> Program:
    """ASP(M): definite rules, monotone aggregates, optional self-support gadget."""
    return random_program(
        rng,
        negation=False,
        disjunction=False,
        constraints=False,
        monotone_only=True,
        gadgets=True,
    )


def random_large_monotone_program(rng: random.Random, size: int, cyclic: bool) -> Program:
    """ASP(M) at benchmark scale over `size` atoms m0..m{size-1} (200-400 in
    the suites): a few facts, and one or two rules per other atom whose
    body atoms and count/sum/max aggregates (positive weights, lower bounds)
    draw on lower atoms. The rules are shuffled, so they are listed out of
    dependency order. With `cyclic`, some aggregate domains also hold the
    rule's own head or an atom just above it, so an atom can support itself
    through an aggregate, which the G-reduct cannot rederive."""
    atoms = [Atom(f"m{i}") for i in range(size)]
    loops = rng.choice((0.02, 0.1, 0.3)) if cyclic else 0
    rules = []
    for index, atom in enumerate(atoms):
        if index < 3 or rng.random() < 0.05:
            rules.append(Rule(frozenset({atom}), ()))
            continue
        lower = atoms[:index]
        for _ in range(rng.randint(1, 2)):
            body = [AtomLiteral(rng.choice(lower)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                domain = rng.sample(lower, min(index, rng.randint(1, 5)))
                if rng.random() < loops:
                    domain[0] = atoms[min(size - 1, index + rng.randint(0, 3))]
                func = rng.choice(_MONOTONE_FUNCS)
                elements = tuple((rng.randint(1, 4), member) for member in domain)
                top = len(domain) if func is AggregateFunc.COUNT else 4 * len(domain)
                body.append(
                    AggregateSpec(func, elements, rng.choice((">=", ">")), rng.randint(-1, top))
                )
            rules.append(Rule(frozenset({atom}), tuple(body)))
    rng.shuffle(rules)
    return Program(tuple(rules))


# Parser fuzzing: tokens and near-miss names, stray characters that form no
# token alone, and separators from every whitespace class the tokenizer meets.
_WORDS = (
    "a", "b", "q1", "x_Y9", "not", "count", "sum", "avg", "min", "max", "odd",
    "even", "__bot", "__x", "_y", "Abc", "0", "1", "-3", "12", "007", "-0",
    "9223372036854775808", ".", ",", "{", "}", "|", ":", ":-", "<", "<=", ">=",
    ">", "=", "!=",
)
_STRAYS = ("!", "-", ";", "?", "#", "\xe9", "\u20ac", "\x00")
_SEPARATORS = (
    "", " ", " ", "\n", "\r\n", "\r", "\t", "\x0b", "\x85", "\u2028", "\xa0", "% note\n", "%",
)


def fuzz_text(rng: random.Random) -> str | bytes:
    """One parser input: token soup (random words, or a rendered random
    program with tokens dropped, doubled or replaced) or random bytes, half
    of those decoded as Latin-1 so they reach the tokenizer."""
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            words = [_fuzz_word(rng) for _ in range(rng.randint(0, 24))]
        else:
            program = random_program(rng, max_atoms=4, max_rules=4)
            words = []
            for rule in program:
                words.extend(_rule_words(rule))
            for _ in range(rng.randint(0, 3)):
                if not words:
                    break
                index = rng.randrange(len(words))
                roll = rng.random()
                if roll < 0.4:
                    del words[index]
                elif roll < 0.6:
                    words.insert(index, words[index])
                else:
                    words[index] = _fuzz_word(rng)
        return "".join(word + rng.choice(_SEPARATORS) for word in words)
    alphabet = b"ab{}.,:-|<>=!% \n\r\t019_Z" + bytes(range(0x80, 0x100, 7))
    blob = bytes(
        rng.choice(alphabet) if rng.random() < 0.7 else rng.randrange(256)
        for _ in range(rng.randrange(48))
    )
    return blob if rng.random() < 0.5 else blob.decode("latin-1")


def _fuzz_word(rng: random.Random) -> str:
    return rng.choice(_STRAYS if rng.random() < 0.03 else _WORDS)


def _rule_words(rule: Rule) -> list[str]:
    """The rule's tokens in source order, weights written for every function."""
    words = []
    for atom in sorted(rule.head):
        words += [atom.name, "|"]
    words[len(words) - 1 :] = [":-"]  # the last '|', or nothing, becomes ':-'
    for lit in rule.body:
        if isinstance(lit, AtomLiteral):
            words += ["not"] * lit.negation_depth + [lit.atom.name, ","]
            continue
        words += [lit.func.value, "{"]
        for weight, atom in lit.elements:
            words += [str(weight), ":", atom.name, ","]
        if lit.elements:
            words.pop()
        words.append("}")
        if lit.comparator is not None:
            words += [lit.comparator, str(lit.bound)]
        words.append(",")
    if rule.body:
        words.pop()
    return words + ["."]
