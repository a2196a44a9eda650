"""Independent reference implementations the fast code paths are checked against.

These deliberately share nothing with the production enumeration machinery:
model search walks subsets with itertools, minimality re-walks subsets, the
lattice classifier scans subset chains literally, truth tables evaluate one
subset at a time, least fixpoints apply the consequence operator to the AST
round by round, and the reference parser keeps one object per token. Slow
and obviously correct is the point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from gzasp.core import (
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    PARITY_FUNCS,
    Program,
    RESERVED_PREFIX,
    Rule,
    atoms_of,
)
from gzasp.errors import NegatedAggregateError, ParseError, ReservedNameError
from gzasp.rewriter import (
    _aggregate_domain_atoms,
    _copied_atoms,
    _require_fresh,
    guess_copy,
    true_copy,
)
from gzasp.semantics import (
    AggregateClass,
    ensure_asp_m,
    eval_aggregate,
    f_reduct,
    g_reduct,
    satisfies,
)


def subsets(universe: frozenset) -> list[frozenset]:
    items = sorted(universe)
    out = []
    for size in range(len(items) + 1):
        out.extend(frozenset(chosen) for chosen in combinations(items, size))
    return out


def naive_models(program: Program) -> list[frozenset]:
    return [interp for interp in subsets(atoms_of(program)) if satisfies(interp, program)]


def naive_is_minimal_model(interp: frozenset, program: Program) -> bool:
    if not satisfies(interp, program):
        return False
    return not any(
        satisfies(smaller, program) for smaller in subsets(interp) if smaller != interp
    )


def naive_supported_models(program: Program, semantics: str) -> list[frozenset]:
    """The models of program in which every true atom a has a rule whose
    body holds, whose head meets the model only at a, and whose reduct
    body under `semantics` ("f" or "g") does not need a: a is no literal of
    negation depth 0 in it and, under "g", in no aggregate's domain. In
    the order of `subsets`."""

    def supports(rule: Rule, atom: Atom, interp: frozenset) -> bool:
        return (
            rule.head & interp == {atom}
            and all(satisfies(interp, lit) for lit in rule.body)
            and AtomLiteral(atom) not in rule.body
            and not (
                semantics == "g"
                and any(
                    atom in lit.domain for lit in rule.body if isinstance(lit, AggregateSpec)
                )
            )
        )

    return [
        interp
        for interp in naive_models(program)
        if all(any(supports(rule, atom, interp) for rule in program) for atom in interp)
    ]


def naive_stable_models(program: Program, semantics: str) -> set[frozenset]:
    reduct = {"f": f_reduct, "g": g_reduct}[semantics]
    out = set()
    for interp in naive_models(program):
        if naive_is_minimal_model(interp, reduct(program, interp)):
            out.add(interp)
    return out


def tp_step(program: Program, interp: frozenset) -> frozenset:
    """One application of the immediate-consequence operator: all head atoms
    of rules whose bodies interp satisfies, disjuncts included."""
    fired: set = set()
    for rule in program:
        if all(satisfies(interp, lit) for lit in rule.body):
            fired.update(rule.head)
    return frozenset(fired)


def reference_least_fixpoint(program: Program) -> frozenset:
    """Rounds of the consequence operator from the empty set until one
    changes nothing. Raises what ensure_asp_m raises outside the monotone
    fragment, where the rounds could oscillate or lose answers."""
    ensure_asp_m(program)
    current: frozenset = frozenset()
    while True:
        step = tp_step(program, current)
        if step == current:
            return current
        current = step


def fixpoint_g_stable_models(program: Program) -> list[frozenset]:
    """G-stable models of a monotone program by definition, in naive rounds
    of the consequence operator: the least fixpoint, kept iff the least
    fixpoint of its own G-reduct is the same. Raises what
    reference_least_fixpoint raises outside the fragment."""
    fixpoint = reference_least_fixpoint(program)
    confirmed = reference_least_fixpoint(g_reduct(program, fixpoint))
    return [fixpoint] if fixpoint == confirmed else []


def reference_truth_table(spec: AggregateSpec) -> list[bool]:
    """eval_aggregate on every subset of the domain, one at a time. Entry i
    uses the subset whose members are the domain atoms (in name order) at
    the set bits of i; raises what the first overflowing subset raises."""
    domain = spec.domain
    return [
        eval_aggregate(
            spec, frozenset(atom for i, atom in enumerate(domain) if index >> i & 1)
        )
        for index in range(1 << len(domain))
    ]


def naive_classify(spec: AggregateSpec) -> AggregateClass:
    dom = list(spec.domain)
    n = len(dom)
    masks = list(range(1 << n))

    def value(mask: int) -> bool:
        return eval_aggregate(
            spec, frozenset(dom[i] for i in range(n) if mask >> i & 1)
        )

    table = [value(mask) for mask in masks]

    def subset(small: int, big: int) -> bool:
        return small & big == small

    monotone = all(
        table[j] <= table[k] for j in masks for k in masks if subset(j, k)
    )
    if monotone:
        return AggregateClass.MONOTONE
    nonconvex = any(
        table[i] and not table[j] and table[k]
        for j in masks
        for i in masks
        if subset(i, j)
        for k in masks
        if subset(j, k)
    )
    return AggregateClass.NONCONVEX if nonconvex else AggregateClass.CONVEX


def analytic_count_class(domain_size: int, comparator: str, bound: int) -> AggregateClass:
    """Hand-derived classification of count{n atoms} <cmp> <bound>.

    Normalizing < and <= (count < b iff count <= b-1, count > b iff
    count >= b+1), the truth of the aggregate depends only on |S|:

      >=  upward closed, always MONOTONE (constant when out of range);
      <=  constant when b < 0 (false) or b >= n (true), hence MONOTONE,
          otherwise a down-set: CONVEX;
      =   constant false out of [0, n] (MONOTONE); true only at the top
          when b = n (MONOTONE); otherwise one middle layer: CONVEX;
      !=  complement of the above: constant true (MONOTONE) out of range;
          b = 0 removes only the bottom layer (up-set: MONOTONE); b = n
          removes only the top layer (down-set: CONVEX, and MONOTONE when
          n = 0 since then nothing is true); middle layer cut out:
          NONCONVEX (for n >= 2; n = 1 with b in (0,1) cannot occur).
    """
    n = domain_size
    if comparator == "<":
        return analytic_count_class(n, "<=", bound - 1)
    if comparator == ">":
        return analytic_count_class(n, ">=", bound + 1)
    if comparator == ">=":
        return AggregateClass.MONOTONE
    if comparator == "<=":
        if bound < 0 or bound >= n:
            return AggregateClass.MONOTONE
        return AggregateClass.CONVEX
    if comparator == "=":
        if bound < 0 or bound > n or bound == n:
            return AggregateClass.MONOTONE
        return AggregateClass.CONVEX
    if comparator == "!=":
        if bound < 0 or bound > n:
            return AggregateClass.MONOTONE
        if bound == 0:
            return AggregateClass.MONOTONE
        if bound == n:
            return AggregateClass.CONVEX
        return AggregateClass.NONCONVEX
    raise ValueError(comparator)


def analytic_parity_class(func: str, domain_size: int) -> AggregateClass:
    """odd{1 atom} is an up-set; odd over 2 atoms never has true below false
    above true; everything else has a true-false-true chain."""
    if func == "odd":
        if domain_size == 1:
            return AggregateClass.MONOTONE
        if domain_size == 2:
            return AggregateClass.CONVEX
        return AggregateClass.NONCONVEX
    if func == "even":
        if domain_size == 1:
            return AggregateClass.CONVEX
        return AggregateClass.NONCONVEX
    raise ValueError(func)


_AGG_NAMES = {func.value: func for func in AggregateFunc}
_BOTTOM_NAMES = re.compile(r"__bot(?:__[tgf])*")

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>-?[0-9]+)
    | (?P<arrow>:-)
    | (?P<cmp><=|>=|!=|<|>|=)
    | (?P<punct>[.{},|:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | arrow | cmp | punct | eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        chunk = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rindex("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, expected: str) -> ParseError:
        token = self.current
        shown = repr(token.text) if token.kind != "eof" else "end of input"
        return ParseError(f"unexpected {shown}", token.line, token.column, expected)

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> _Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            raise self.fail(expected or (text or kind))
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def program(self) -> Program:
        rules = []
        while self.current.kind != "eof":
            rules.append(self.rule())
        return Program(tuple(rules))

    def rule(self) -> Rule:
        head: list[Atom] = []
        if not (self.current.kind == "arrow" or self.at_punct(".")):
            head.append(self.atom())
            while self.at_punct("|"):
                self.advance()
                head.append(self.atom())
        body: list = []
        if self.current.kind == "arrow":
            self.advance()
            if not self.at_punct("."):
                body.append(self.literal())
                while self.at_punct(","):
                    self.advance()
                    body.append(self.literal())
        elif not head:
            raise self.fail("atom or ':-'")
        self.expect("punct", ".", "'.'")
        return Rule(frozenset(head), tuple(body))

    def atom(self) -> Atom:
        token = self.current
        if token.kind != "ident" or token.text == "not":
            raise self.fail("atom")
        return Atom(self._atom_name(self.advance()))

    def _atom_name(self, token: _Token) -> str:
        name = token.text
        bottom = _BOTTOM_NAMES.fullmatch(name)
        if name.startswith(RESERVED_PREFIX) and not bottom:
            raise ReservedNameError(
                f"atom '{name}' uses the reserved '__' prefix", token.line, token.column
            )
        if not bottom and not re.fullmatch(r"[a-z][A-Za-z0-9_]*", name):
            raise ParseError(f"invalid atom '{name}'", token.line, token.column, "atom")
        return name

    def literal(self):
        depth = 0
        while self.current.kind == "ident" and self.current.text == "not":
            self.advance()
            depth += 1
        token = self.current
        is_aggregate = (
            token.kind == "ident"
            and token.text in _AGG_NAMES
            and self.tokens[self.pos + 1].kind == "punct"
            and self.tokens[self.pos + 1].text == "{"
        )
        if is_aggregate:
            if depth:
                raise NegatedAggregateError(
                    "aggregates cannot be negated", token.line, token.column
                )
            return self.aggregate()
        return AtomLiteral(self.atom(), depth)

    def aggregate(self) -> AggregateSpec:
        func = _AGG_NAMES[self.advance().text]
        self.expect("punct", "{", "'{'")
        elements: list[tuple[int, Atom]] = []
        if not self.at_punct("}"):
            elements.append(self.element())
            while self.at_punct(","):
                self.advance()
                elements.append(self.element())
        self.expect("punct", "}", "'}'")
        if func in PARITY_FUNCS:
            return AggregateSpec(func, tuple(elements))
        if self.current.kind != "cmp":
            raise self.fail("comparator")
        comparator = self.advance().text
        if self.current.kind != "int":
            raise self.fail("integer bound")
        bound = int(self.advance().text)
        return AggregateSpec(func, tuple(elements), comparator, bound)

    def element(self) -> tuple[int, Atom]:
        if self.current.kind == "int":
            weight = int(self.advance().text)
            self.expect("punct", ":", "':'")
            return (weight, self.atom())
        return (1, self.atom())


def reference_parse(text: str | bytes) -> Program:
    """The parser as first written: a _Token object per token with its line
    and column tracked while scanning, and a recursive descent through the
    current/advance/expect helpers. Same grammar, results and errors as
    gzasp.parser.parse, which the differential test checks."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8 ({exc.reason})", 1, exc.start + 1)
    return _Parser(_tokenize(text)).program()


def reference_rewrite_str(program: Program, *, minimal_copies: bool = False) -> Program:
    """rewrite_str as first written, building rew's padding and true-copy
    rules itself. gzasp.rewriter.rewrite_str builds them through the helpers
    it shares with rew; the differential test checks that the output is the
    same."""
    copied = _copied_atoms(program, atoms_of(program), minimal_copies)
    _require_fresh(
        atoms_of(program),
        [true_copy(p).name for p in copied] + [guess_copy(p).name for p in copied],
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
            AtomLiteral(true_copy(p)) for p in sorted(_aggregate_domain_atoms(rule))
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
