"""Source-to-source transformations over ground programs.

Three rewritings eliminate negation from plain normal programs by trading
it for aggregates or guessed complements (rewrite_c, rewrite_n, rewrite_m);
two more (rewrite_rew, rewrite_str) make any program's aggregates safe to
evaluate under the simpler reduct by padding rule bodies with true-copies
of the aggregate domains, the second additionally rerouting every aggregate
through guessed copies so that no aggregate shares a dependency cycle with
the atoms it derives.

Generated names are derived from the base name (p__t, p__g, p__f, plus the
shared __bot), never from a counter, so rewriting a union of programs with
disjoint atoms equals the union of the rewritings. Output order is fixed:
transformed original rules first, then generated rules grouped per atom in
name order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    Program,
    Rule,
    atoms_of,
    program_size,
)
from .errors import PreconditionError
from .parser import render_rule

BOTTOM = Atom("__bot")


def true_copy(atom: Atom) -> Atom:
    return Atom(atom.name + "__t")


def guess_copy(atom: Atom) -> Atom:
    return Atom(atom.name + "__g")


def false_copy(atom: Atom) -> Atom:
    return Atom(atom.name + "__f")


def _require_plain_normal(program: Program, rewriting: str) -> None:
    """The negation-eliminating rewritings take aggregate-free programs
    with negation depth at most one."""
    for index, rule in enumerate(program, start=1):
        for lit in rule.body:
            if isinstance(lit, AggregateSpec):
                raise PreconditionError(
                    f"{rewriting} takes aggregate-free input, but rule {index} "
                    f"contains {lit.func.value}: {render_rule(rule)}"
                )
            if lit.negation_depth > 1:
                raise PreconditionError(
                    f"{rewriting} takes negation depth at most one, but rule "
                    f"{index} nests it: {render_rule(rule)}"
                )


def _require_fresh(program: Program, generated) -> None:
    taken = sorted(set(generated) & atoms_of(program))
    if taken:
        raise PreconditionError(
            f"generated atom {taken[0]} already occurs in the program"
        )


def _map_negative_literals(program: Program, replace) -> Program:
    rules = []
    for rule in program:
        body = tuple(
            replace(lit) if lit.negation_depth else lit for lit in rule.body
        )
        rules.append(Rule(rule.head, body))
    return Program(tuple(rules))


def rewrite_c(program: Program) -> Program:
    """Replace every `not p` by the convex aggregate count{p} <= 0."""
    _require_plain_normal(program, "rewrite_c")

    def complement(lit: AtomLiteral) -> AggregateSpec:
        return AggregateSpec(AggregateFunc.COUNT, ((1, lit.atom),), "<=", 0)

    return _map_negative_literals(program, complement)


def rewrite_n(program: Program) -> Program:
    """Replace every `not p` by the non-convex count{p, __bot} != 1, with
    __bot a shared atom that no rule derives."""
    _require_plain_normal(program, "rewrite_n")
    if any(lit.negation_depth for rule in program for lit in rule.body):
        _require_fresh(program, (BOTTOM,))

    def complement(lit: AtomLiteral) -> AggregateSpec:
        return AggregateSpec(
            AggregateFunc.COUNT, ((1, lit.atom), (1, BOTTOM)), "!=", 1
        )

    return _map_negative_literals(program, complement)


def rewrite_m(program: Program) -> Program:
    """Replace every `not p` by the fresh atom p__f, and let each atom guess
    its complement: p | p__f is derived by an always-true monotone count."""
    _require_plain_normal(program, "rewrite_m")
    base = sorted(atoms_of(program))
    _require_fresh(program, (false_copy(p) for p in base))
    rewritten = _map_negative_literals(
        program, lambda lit: AtomLiteral(false_copy(lit.atom))
    )
    rules = list(rewritten.rules)
    for p in base:
        always = AggregateSpec(AggregateFunc.COUNT, ((1, p),), ">=", 0)
        rules.append(Rule({p, false_copy(p)}, (always,)))
    return Program(tuple(rules))


def _aggregate_domain_atoms(rule: Rule) -> list[Atom]:
    seen = set()
    for lit in rule.body:
        if isinstance(lit, AggregateSpec):
            seen.update(lit.domain)
    return sorted(seen)


def _copied_atoms(program: Program, minimal_copies: bool) -> list[Atom]:
    if not minimal_copies:
        return sorted(atoms_of(program))
    seen = set()
    for rule in program:
        seen.update(_aggregate_domain_atoms(rule))
    return sorted(seen)


def rewrite_rew(program: Program, *, minimal_copies: bool = False) -> Program:
    """Extend every aggregate-bearing rule body with the true-copies of the
    aggregate domains, and derive each copy from its atom either way.

    With minimal_copies, copy rules are emitted only for atoms that occur
    in some aggregate domain instead of for the whole atom set.
    """
    copied = _copied_atoms(program, minimal_copies)
    _require_fresh(program, (true_copy(p) for p in copied))
    rules = []
    for rule in program:
        padding = tuple(
            AtomLiteral(true_copy(p)) for p in _aggregate_domain_atoms(rule)
        )
        rules.append(Rule(rule.head, rule.body + padding))
    for p in copied:
        rules.append(Rule({true_copy(p)}, (AtomLiteral(p, 1),)))
        rules.append(Rule({true_copy(p)}, (AtomLiteral(p),)))
    return Program(tuple(rules))


def rewrite_str(program: Program, *, minimal_copies: bool = False) -> Program:
    """Like rewrite_rew, but every aggregate is additionally rerouted through
    guessed copies: its element atoms are renamed p -> p__g, each p__g may be
    guessed freely, and two constraints force the guess to mirror p. The
    result never evaluates an aggregate over atoms it helps to derive.
    """
    copied = _copied_atoms(program, minimal_copies)
    _require_fresh(
        program,
        [true_copy(p) for p in copied] + [guess_copy(p) for p in copied],
    )
    rules = []
    for rule in program:
        body = []
        for lit in rule.body:
            if isinstance(lit, AggregateSpec):
                body.append(
                    AggregateSpec(
                        lit.func,
                        tuple((w, guess_copy(p)) for w, p in lit.elements),
                        lit.comparator,
                        lit.bound,
                    )
                )
            else:
                body.append(lit)
        body.extend(
            AtomLiteral(true_copy(p)) for p in _aggregate_domain_atoms(rule)
        )
        rules.append(Rule(rule.head, tuple(body)))
    for p in copied:
        t, g = true_copy(p), guess_copy(p)
        rules.append(Rule({t}, (AtomLiteral(p, 1),)))
        rules.append(Rule({t}, (AtomLiteral(p),)))
        rules.append(Rule({g}, (AtomLiteral(g, 2),)))
        rules.append(Rule(frozenset(), (AtomLiteral(g, 1), AtomLiteral(p))))
        rules.append(Rule(frozenset(), (AtomLiteral(g), AtomLiteral(p, 1))))
    return Program(tuple(rules))


def dependency_graph(program: Program) -> dict[Atom, frozenset[Atom]]:
    """Successor map over At(program): an arc q -> p for every rule deriving
    p whose body mentions q, negated, plain, or inside an aggregate domain."""
    successors: dict[Atom, set[Atom]] = {atom: set() for atom in atoms_of(program)}
    for rule in program:
        sources: set[Atom] = set()
        for lit in rule.body:
            if isinstance(lit, AggregateSpec):
                sources.update(lit.domain)
            else:
                sources.add(lit.atom)
        for source in sources:
            successors[source].update(rule.head)
    return {atom: frozenset(found) for atom, found in successors.items()}


def strongly_connected_components(
    graph: dict[Atom, frozenset[Atom]]
) -> list[frozenset[Atom]]:
    """Tarjan's algorithm, iterative so deep chains cannot exhaust the
    Python stack. Nodes and successors are visited in name order, making
    the component list deterministic."""
    order: dict[Atom, int] = {}
    low: dict[Atom, int] = {}
    on_stack: set[Atom] = set()
    stack: list[Atom] = []
    components: list[frozenset[Atom]] = []
    counter = 0

    for root in sorted(graph):
        if root in order:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(graph[root])))]
        while work:
            node, successors = work[-1]
            pushed = False
            for succ in successors:
                if succ not in order:
                    order[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    pushed = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], order[succ])
            if pushed:
                continue
            work.pop()
            if low[node] == order[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def is_aggregate_stratified(program: Program) -> bool:
    """True iff no rule derives an atom that shares a dependency cycle with
    an atom in the domain of one of its own aggregates."""
    component_of: dict[Atom, int] = {}
    graph = dependency_graph(program)
    for index, component in enumerate(strongly_connected_components(graph)):
        for atom in component:
            component_of[atom] = index
    for rule in program:
        for lit in rule.body:
            if not isinstance(lit, AggregateSpec):
                continue
            for q in lit.domain:
                if any(component_of[p] == component_of[q] for p in rule.head):
                    return False
    return True


@dataclass(frozen=True)
class SizeBounds:
    """Symbol counts of a program and its two aggregate-guarding rewritings,
    with the linear-growth bounds 4a + 2s (rew) and 10a + 2s (str) and
    whether each rewriting stays within its bound."""

    size_in: int
    size_rew: int
    size_str: int
    atoms: int
    rew_ok: bool
    str_ok: bool
    rew_bound: int
    str_bound: int


def check_size_bounds(program: Program) -> SizeBounds:
    """The sizes of both rewritings, without building them: each must equal
    program_size of the real rewriting, and a name clash raises the
    rewritings' own error, rew's first."""
    atoms = atoms_of(program)
    _require_fresh(program, (true_copy(p) for p in atoms))
    _require_fresh(program, (guess_copy(p) for p in atoms))
    size_in = program_size(program)
    padded = size_in + sum(len(_aggregate_domain_atoms(rule)) for rule in program)
    atom_count = len(atoms)
    size_rew = padded + 4 * atom_count
    size_str = padded + 10 * atom_count
    rew_bound = 4 * atom_count + 2 * size_in
    str_bound = 10 * atom_count + 2 * size_in
    return SizeBounds(
        size_in=size_in,
        size_rew=size_rew,
        size_str=size_str,
        atoms=atom_count,
        rew_ok=size_rew <= rew_bound,
        str_ok=size_str <= str_bound,
        rew_bound=rew_bound,
        str_bound=str_bound,
    )
