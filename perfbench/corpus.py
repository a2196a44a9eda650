"""Seeded program families for the benchmark, in the benchmark's own form.

A program is a list of rules; a rule is ``(head, body)`` with ``head`` a
tuple of atom names (empty for an integrity constraint) and ``body`` a list
of literals:

    ("lit", atom, negation_depth)
    ("agg", func, [(weight, atom), ...], comparator, bound)

``render`` turns a program into gzasp dialect text; gzasp only ever sees
that text. Nothing here imports gzasp, so the references computed from
these structures share no code with the program under test.

Families
--------
half-guessed
    Atoms ``x0..x{n-1}``. Only the first half is guessed
    (``xi :- not not xi.``); 2n further rules derive atoms of the second
    half. The random family of the roadmap guesses every atom instead, so
    each candidate's reduct holds a fact for every true atom and every
    candidate is stable: stable models over candidates is exactly 1.0 at
    n = 12-20 under both reducts, and minimality work never shows. Guessing
    half of the atoms leaves stable/candidates at about 0.05-0.2.
wide-aggregate
    A half-guessed program at n = 16 plus one rule or constraint with a
    sum/avg/min/max aggregate over 4-16 atoms, so the aggregate column
    straddles the enumerator's mux-tree budget.
monotone
    200-400 atoms, single-atom heads, positive bodies and monotone
    aggregates only, so G-coherence takes the fixpoint fast path and
    nothing enumerates.
"""

from __future__ import annotations

import random

COUNT_COMPARATORS = (">=", "<=", "!=")
WIDE_FUNCS = ("sum", "avg", "min", "max")
WIDE_COMPARATORS = ("<", "<=", ">=", ">", "=", "!=")
MONOTONE_FUNCS = ("count", "sum", "max")


def half_guessed(rng: random.Random, n: int) -> list:
    """The half-guessed family: 2n rules with heads in the second half,
    about 15% integrity constraints, 20% disjunctive heads, 1-2 body
    literals at negation depth 0-2, and in half of the bodies one count
    over at most three atoms."""
    atoms = [f"x{i}" for i in range(n)]
    guessed, derived = atoms[: n // 2], atoms[n // 2 :]
    rules = [((atom,), [("lit", atom, 2)]) for atom in guessed]
    for _ in range(2 * n):
        draw = rng.random()
        if draw < 0.15:
            head = ()
        elif draw < 0.35:
            head = tuple(rng.sample(derived, 2))
        else:
            head = (rng.choice(derived),)
        body = [
            ("lit", rng.choice(atoms), rng.randint(0, 2))
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < 0.5:
            domain = rng.sample(atoms, rng.randint(1, 3))
            body.append(
                (
                    "agg",
                    "count",
                    [(1, atom) for atom in domain],
                    rng.choice(COUNT_COMPARATORS),
                    rng.randint(0, len(domain)),
                )
            )
        rules.append((head, body))
    return rules


def wide_aggregate(rng: random.Random, n: int, domain: int, form: str) -> list:
    """A half-guessed program over n atoms plus one ``form`` ("rule" or
    "constraint") whose body is a single sum/avg/min/max aggregate over
    ``domain`` distinct atoms."""
    rules = half_guessed(rng, n)
    atoms = [f"x{i}" for i in range(n)]
    func = rng.choice(WIDE_FUNCS)
    if func in ("sum", "avg"):
        elements = [(rng.randint(-3, 6), atom) for atom in rng.sample(atoms, domain)]
    else:
        elements = [(rng.randint(1, 6), atom) for atom in rng.sample(atoms, domain)]
    bound = rng.randint(0, 2 * domain) if func == "sum" else rng.randint(0, 6)
    aggregate = ("agg", func, elements, rng.choice(WIDE_COMPARATORS), bound)
    head = (rng.choice(atoms[n // 2 :]),) if form == "rule" else ()
    rules.append((head, [aggregate]))
    return rules


def monotone(rng: random.Random, size: int, cyclic: bool) -> list:
    """A positive program over atoms ``a0..a{size-1}`` with single-atom
    heads and count/sum/max aggregates that classify as monotone.

    About 5% of the atoms are facts; every other atom gets one or two rules
    whose body atoms have lower indices. With ``cyclic`` every aggregate
    domain also holds its rule's head, so an atom can support itself through
    an aggregate; the G-reduct then cannot rederive it and the least
    fixpoint is usually not G-stable. Without it the domains stay below the
    head and the program is G-coherent.
    """
    atoms = [f"a{i}" for i in range(size)]
    rules = []
    for index, atom in enumerate(atoms):
        if index < 3 or rng.random() < 0.05:
            rules.append(((atom,), []))
            continue
        for _ in range(rng.randint(1, 2)):
            lower = atoms[:index]
            body = [("lit", rng.choice(lower), 0) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.5:
                domain = rng.sample(lower, min(len(lower), rng.randint(2, 5)))
                if cyclic:
                    domain[0] = atom
                body.append(_monotone_aggregate(rng, domain))
            rules.append(((atom,), body))
    return rules


def _monotone_aggregate(rng: random.Random, domain: list) -> tuple:
    func = rng.choice(MONOTONE_FUNCS)
    if func == "count":
        elements = [(1, atom) for atom in domain]
        bound = rng.randint(1, len(domain))
    elif func == "sum":
        elements = [(rng.randint(1, 4), atom) for atom in domain]
        bound = rng.randint(1, sum(weight for weight, _ in elements))
    else:
        elements = [(rng.randint(1, 4), atom) for atom in domain]
        bound = rng.randint(1, 4)
    return ("agg", func, elements, ">=", bound)


def rename(program: list, mapping: dict) -> list:
    """The same program with every atom replaced through ``mapping``."""
    renamed = []
    for head, body in program:
        new_body = []
        for lit in body:
            if lit[0] == "lit":
                new_body.append(("lit", mapping[lit[1]], lit[2]))
            else:
                _, func, elements, comparator, bound = lit
                new_body.append(
                    ("agg", func, [(w, mapping[a]) for w, a in elements], comparator, bound)
                )
        renamed.append((tuple(mapping[atom] for atom in head), new_body))
    return renamed


def atoms_in(program: list) -> set:
    found = set()
    for head, body in program:
        found.update(head)
        for lit in body:
            if lit[0] == "lit":
                found.add(lit[1])
            else:
                found.update(atom for _, atom in lit[2])
    return found


def render_literal(lit) -> str:
    """Canonical gzasp text of one literal: aggregate elements in atom-name
    order, count elements without weights."""
    if lit[0] == "lit":
        _, atom, depth = lit
        return "not " * depth + atom
    _, func, elements, comparator, bound = lit
    ordered = sorted(elements, key=lambda pair: pair[1])
    if func == "count":
        inner = ", ".join(atom for _, atom in ordered)
    else:
        inner = ", ".join(f"{weight} : {atom}" for weight, atom in ordered)
    return f"{func}{{{inner}}} {comparator} {bound}"


def render(program: list) -> str:
    lines = []
    for head, body in program:
        head_text = " | ".join(head)
        body_text = ", ".join(render_literal(lit) for lit in body)
        if not body_text:
            lines.append(f"{head_text}." if head_text else ":-.")
        elif not head_text:
            lines.append(f":- {body_text}.")
        else:
            lines.append(f"{head_text} :- {body_text}.")
    return "".join(line + "\n" for line in lines)
